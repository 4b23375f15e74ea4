"""Kernel probes: many-sample timings of public `mzbw` entry points at fixed sizes.

Each probe calls one public function on a seeded input, once to warm up and
then a fixed number of timed times.  A probe reports the median, the highest
percentile of a fixed ladder that still has at least ten samples beyond it
(nearest rank), and the sample count; the two writers also report MB/s from
the file size and the median time.

    python3 perfbench/probes.py OUT.json SEED
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import tempfile
import time

PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

# probe name -> timed samples; chosen so every probe has a p75 or better tail
# and all probes together take about half a minute on two 2 GHz cores
SAMPLES = {
    "gradient_real_96": 40,
    "gradient_complex_96": 40,
    "laplacian_96": 40,
    "propagate_step_64": 40,
    "decompose_64": 40,
    "velocity_decomposition_64": 40,
    "advect_rk4_step_1e4": 200,
    "write_field_96": 100,
    "write_trajectories_csv_1e3x11": 40,
}
THROUGHPUT = ("write_field_96", "write_trajectories_csv_1e3x11")


def tail(samples_ms: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest ladder percentile with MIN_BEYOND samples above it."""
    ordered = sorted(samples_ms)
    n = len(ordered)
    for pct in PERCENTILE_LADDER:
        rank = math.ceil(n * pct / 100.0)
        if n - rank >= MIN_BEYOND:
            return pct, ordered[rank - 1]
    return 0.0, ordered[0]


def _cases(seed: int, scratch: str) -> dict:
    import numpy as np

    from mzbw import fieldio, states
    from mzbw.evolve import EvolutionConfig, propagate
    from mzbw.fields import Grid, PhysicalParams, RealField, gradient, laplacian
    from mzbw.madelung import decompose
    from mzbw.spinhydro import velocity_decomposition
    from mzbw.trajectories import advect, sample_initial

    params = PhysicalParams()
    g96 = Grid((96,) * 3, (18.0,) * 3)
    g64 = Grid((64,) * 3, (18.0,) * 3)
    psi96 = states.random_smooth_state(g96, seed)
    rho96 = RealField(g96, np.abs(psi96.values) ** 2)
    psi64 = states.random_smooth_state(g64, seed)
    spinor64 = states.attach_spinor(psi64, states.constant_spinor(0.3))
    evolution64 = EvolutionConfig(
        dt=1e-3, steps=1, potential=states.harmonic_potential(g64, omega=0.5), params=params
    )

    g1 = Grid((256,), (40.0,))
    psi1 = states.gaussian(g1, sigma=1.0)
    seeds = sample_initial(decompose(psi1, params).rho, 10_000, seed)
    traj = advect(seeds[:1000], psi1, "drift", params=params, duration=1e-2, rk_steps=10)
    field_path = os.path.join(scratch, "probe.mzbw")
    csv_path = os.path.join(scratch, "probe.csv")

    return {
        "gradient_real_96": (lambda: gradient(rho96), None),
        "gradient_complex_96": (lambda: gradient(psi96), None),
        "laplacian_96": (lambda: laplacian(psi96), None),
        "propagate_step_64": (lambda: propagate(psi64, evolution64), None),
        "decompose_64": (lambda: decompose(psi64, params), None),
        "velocity_decomposition_64": (lambda: velocity_decomposition(spinor64, params), None),
        "advect_rk4_step_1e4": (
            lambda: advect(seeds, psi1, "drift", params=params, duration=1e-3, rk_steps=1),
            None,
        ),
        "write_field_96": (lambda: fieldio.write_field(field_path, psi96), field_path),
        "write_trajectories_csv_1e3x11": (lambda: fieldio.write_trajectories_csv(csv_path, traj), csv_path),
    }


def run(seed: int) -> dict:
    results = {}
    with tempfile.TemporaryDirectory(dir=os.getcwd(), prefix=".perfbench_probe_") as scratch:
        for name, (call, path) in _cases(seed, scratch).items():
            call()
            samples = []
            for _ in range(SAMPLES[name]):
                start = time.perf_counter()
                call()
                samples.append(1e3 * (time.perf_counter() - start))
            pct, value = tail(samples)
            entry = {
                "median_ms": statistics.median(samples),
                "tail_ms": value,
                "tail_pct": pct,
                "samples": len(samples),
            }
            if name in THROUGHPUT:
                entry["mb_per_s"] = os.path.getsize(path) / 1e6 / (entry["median_ms"] / 1e3)
            results[name] = entry
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: probes.py OUT.json SEED", file=sys.stderr)
        return 1
    results = run(int(argv[1]))
    with open(argv[0], "w") as fh:
        json.dump(results, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
