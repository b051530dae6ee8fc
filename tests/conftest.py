"""Fixtures shared by the test modules."""

import pytest

from beamkey import experiments
from beamkey.channel import sampling_matrix


@pytest.fixture
def perturbed_grid_256(monkeypatch):
    """Make the validation suite's `sampling_matrix` return a non-unitary
    256-antenna grid, so `sampling_unitarity` fails.  No other check reads
    `sampling_matrix` through `experiments` or forms a grid of that size."""
    def perturbed(antenna_count):
        a = sampling_matrix(antenna_count)
        if antenna_count == 256:
            a = a.copy()
            a[0, 0] += 1e-3
        return a

    monkeypatch.setattr(experiments, "sampling_matrix", perturbed)
