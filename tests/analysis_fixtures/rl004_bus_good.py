"""RL004 negative fixture: a cataloged kind published on the bus."""


def complete(ctx, slot: int, node: int, at: float) -> None:
    ctx.emit("phase", slot=slot, node=node, phase="sampling", at=at)
