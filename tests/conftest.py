"""Shared fixtures: a freely spreading Gaussian snapshot series and
finite-difference snapshot triples at matched physical time.

Both are session-scoped because the 512-point evolutions dominate the suite
runtime and every consumer treats them as read-only.

Every test must also leave no snapshot stream's worker thread running.
"""

import gc
import threading

import numpy as np
import pytest

from mzbw import EvolutionConfig, Grid, PhysicalParams, gaussian, propagate


def snapshot_workers():
    return [t.name for t in threading.enumerate() if t.name.startswith("mzbw-snapshots")]


@pytest.fixture(autouse=True)
def no_snapshot_worker_left():
    """Fail a test that leaves a snapshot stream's worker alive.  A stream
    dropped inside a reference cycle joins its worker only when the cycle is
    collected, so when a worker is found one collection runs before a second
    look; collecting after every test would double the suite's time."""
    yield
    if snapshot_workers():
        gc.collect()
        assert snapshot_workers() == [], "a snapshot stream's worker thread outlived the test"


@pytest.fixture(scope="session")
def params():
    return PhysicalParams()


@pytest.fixture(scope="session")
def free_grid():
    return Grid((512,), (40.0,))


@pytest.fixture(scope="session")
def free_gaussian_series(free_grid, params):
    """sigma=1 packet evolved freely to t=2, snapshots every 10 steps."""
    psi0 = gaussian(free_grid, params=params)
    config = EvolutionConfig(dt=1e-3, steps=2000, snapshot_stride=10, params=params)
    return propagate(psi0, config)


@pytest.fixture(scope="session")
def residual_triples(free_grid, params):
    """Adjacent-step snapshot triples centered at t=1.0 for dt halvings.

    Built in two stages so only three states per dt are kept: evolve to
    t = 1-dt recording nothing in between, then two more steps recorded
    densely.  Keys are dt, values are (prev, mid, next) ComplexFields with
    spacing dt.
    """
    psi0 = gaussian(free_grid, params=params)
    triples = {}
    for dt in (2e-3, 1e-3, 5e-4, 2.5e-4):
        lead = round(1.0 / dt) - 1
        warm = propagate(
            psi0, EvolutionConfig(dt=dt, steps=lead, snapshot_stride=lead, params=params)
        )
        tail = propagate(
            warm.states[-1], EvolutionConfig(dt=dt, steps=2, snapshot_stride=1, params=params)
        )
        assert np.isclose(warm.times[-1] + tail.times[1], 1.0)
        triples[dt] = tuple(tail.states)
    return triples
