"""Simulated crypto substrate: the RANDAO epoch beacon."""

from __future__ import annotations

import pytest

from repro.crypto.randao import RandaoBeacon


class TestRandao:
    def test_same_epoch_same_seed(self):
        beacon = RandaoBeacon(9)
        assert beacon.epoch_seed(4) == beacon.epoch_seed(4)

    def test_epochs_differ(self):
        beacon = RandaoBeacon(9)
        assert beacon.epoch_seed(4) != beacon.epoch_seed(5)

    def test_genesis_differ(self):
        assert RandaoBeacon(1).epoch_seed(0) != RandaoBeacon(2).epoch_seed(0)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            RandaoBeacon(1).epoch_seed(-1)
