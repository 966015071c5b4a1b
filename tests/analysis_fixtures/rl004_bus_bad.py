"""RL004 positive fixture: an uncataloged kind published on the bus."""


def complete(ctx, slot: int, node: int) -> None:
    ctx.emit("uncataloged", slot=slot, node=node)  # finding
