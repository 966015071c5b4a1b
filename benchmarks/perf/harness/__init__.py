"""The repo benchmark's harness (see ../README.md).

Everything here observes the simulator from outside: it drives the
public API of ``repro`` and wraps its entry points in the traced child
only. Nothing under ``src/`` imports this package.
"""
