"""RL004 negative fixture: cataloged kinds, or non-literal dispatch."""


def report(tracer, sim, node: int) -> None:
    tracer.emit("fetch_start", t=sim.now, node=node)
    tracer.emit("fetch_done", t=sim.now, node=node, success=True)


def relay(tracer, kind: str, **data) -> None:
    # non-literal kinds are the wrapper pattern (the bus, a fetcher's
    # _emit); the rule checks the literal call sites that feed them
    tracer.emit(kind, **data)
