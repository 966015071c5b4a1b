"""Simulated cryptographic substrate: the RANDAO epoch beacon."""

from repro.crypto.randao import RandaoBeacon

__all__ = ["RandaoBeacon"]
