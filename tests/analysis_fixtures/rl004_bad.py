"""RL004 positive fixture: event kinds missing from the catalog."""


def report(tracer, sim, node: int) -> None:
    tracer.emit("fetch_startt", t=sim.now, node=node)  # typo: finding


class Fetcher:
    def __init__(self, events) -> None:
        self.events = events

    def _emit(self, kind: str, **data) -> None:
        self.events.emit(kind, **data)

    def run(self) -> None:
        self._emit("rounds_exhausted")  # uncataloged kind: finding
