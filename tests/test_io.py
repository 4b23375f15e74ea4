"""Serialization round-trips.

Every field kind must survive a write/read cycle bit for bit, rejects on
corrupt headers must be loud, and repeated writes of the same data must be
byte-identical so reruns can be diffed.
"""

import json
import os
import re
import struct
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzbw import (
    ComplexField,
    EvolutionConfig,
    Grid,
    RealField,
    SpinorField,
    TrajectorySet,
    VectorField,
    advect,
    gaussian,
    propagate,
)
from mzbw.fieldio import (
    TRAJ_MAGIC,
    _CSV_BLOCK_VALUES,
    _format_g17,
    _kept_times,
    read_field,
    read_json,
    read_snapshot_series,
    read_trajectories_binary,
    stream_snapshot_series,
    write_field,
    write_json,
    write_trajectories_binary,
    write_trajectories_csv,
)


def sample_fields():
    rng = np.random.default_rng(31)
    g1 = Grid((16,), (4.0,))
    g2 = Grid((8, 12), (3.0, 5.0))
    g3 = Grid((6, 6, 6), (2.0, 2.0, 2.0))
    yield RealField(g1, rng.standard_normal(16))
    yield RealField(g3, rng.standard_normal((6, 6, 6)))
    yield ComplexField(g2, rng.standard_normal((8, 12)) + 1j * rng.standard_normal((8, 12)))
    yield VectorField(g2, rng.standard_normal((3, 8, 12)))
    yield SpinorField(
        g1, rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
    )
    yield VectorField(g3, np.asfortranarray(rng.standard_normal((3, 6, 6, 6))))  # not C-contiguous


class TestFieldRoundTrip:
    @pytest.mark.parametrize(
        "field", list(sample_fields()), ids=lambda f: type(f).__name__ + str(len(f.grid.points))
    )
    def test_bit_identity(self, field, tmp_path):
        path = tmp_path / "field.mzbw"
        write_field(str(path), field)
        back = read_field(str(path))
        assert type(back) is type(field)
        assert back.grid == field.grid
        assert np.array_equal(back.values, field.values)

    def test_writes_are_byte_identical(self, tmp_path):
        field = next(iter(sample_fields()))
        a, b = tmp_path / "a.mzbw", tmp_path / "b.mzbw"
        write_field(str(a), field)
        write_field(str(b), field)
        assert a.read_bytes() == b.read_bytes()

    def test_write_allocates_less_than_one_copy(self, tmp_path):
        grid = Grid((32, 32, 32), (4.0, 4.0, 4.0))
        field = VectorField(grid, np.random.default_rng(5).standard_normal((3,) + grid.shape))
        tracemalloc.start()
        try:
            write_field(str(tmp_path / "v.mzbw"), field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < field.values.nbytes


class TestFieldValidation:
    def test_bad_magic_rejected(self, tmp_path):
        field = next(iter(sample_fields()))
        path = tmp_path / "field.mzbw"
        write_field(str(path), field)
        raw = bytearray(path.read_bytes())
        raw[0:5] = b"WRONG"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            read_field(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        field = next(iter(sample_fields()))
        path = tmp_path / "field.mzbw"
        write_field(str(path), field)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError):
            read_field(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        field = next(iter(sample_fields()))
        path = tmp_path / "field.mzbw"
        write_field(str(path), field)
        with open(path, "ab") as f:
            f.write(b"\x00" * 8)
        with pytest.raises(ValueError):
            read_field(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises((OSError, ValueError)):
            read_field(str(tmp_path / "absent.mzbw"))

    # offsets in a 1D real field file: points (uint32) at 6, extent at 10, data at 20
    @pytest.mark.parametrize(
        "offset,patch,message",
        [
            (6, struct.pack("<I", 3), "points per axis"),
            (6, struct.pack("<I", 0), "points per axis"),
            (10, struct.pack("<d", np.nan), "extents"),
            (10, struct.pack("<d", np.inf), "extents"),
            (20, struct.pack("<d", np.nan), "non-finite"),
        ],
        ids=["odd-points", "zero-points", "nan-extent", "inf-extent", "nan-data"],
    )
    def test_bad_grid_or_data_names_the_file(self, tmp_path, offset, patch, message):
        path = tmp_path / "field.mzbw"
        write_field(str(path), RealField(Grid((4,), (1.0,)), np.arange(4.0)))
        raw = bytearray(path.read_bytes())
        raw[offset : offset + len(patch)] = patch
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + message):
            read_field(str(path))


class TestJson:
    def test_round_trip_and_key_order(self, tmp_path):
        path = tmp_path / "data.json"
        payload = {"zeta": 1, "alpha": {"b": [1.5, 2.5], "a": None}}
        write_json(str(path), payload)
        assert read_json(str(path)) == payload
        text = path.read_text()
        assert text.index('"alpha"') < text.index('"zeta"')
        assert text.endswith("\n")


class TestSnapshotSeries:
    def test_round_trip(self, tmp_path):
        grid = Grid((64,), (20.0,))
        series = propagate(gaussian(grid), EvolutionConfig(dt=1e-3, steps=20, snapshot_stride=10))
        out = tmp_path / "snaps"
        list(stream_snapshot_series(str(out), series, config_echo={"note": "test"}))
        back = read_snapshot_series(str(out))
        np.testing.assert_array_equal(back.times, series.times)
        np.testing.assert_array_equal(back.norms, series.norms)
        np.testing.assert_array_equal(back.energies, series.energies)
        assert len(back.states) == len(series.states)
        for mine, theirs in zip(series.states, back.states):
            assert np.array_equal(mine.values, theirs.values)

    def test_manifest_contents(self, tmp_path):
        grid = Grid((64,), (20.0,))
        series = propagate(gaussian(grid), EvolutionConfig(dt=1e-3, steps=10, snapshot_stride=5))
        out = tmp_path / "snaps"
        list(stream_snapshot_series(str(out), series, config_echo={"grid": {"points": [64]}}))
        manifest = read_json(str(out / "manifest.json"))
        assert manifest["format"] == "mzbw-snapshots"
        assert len(manifest["files"]) == 3
        assert manifest["config"] == {"grid": {"points": [64]}}
        assert len(manifest["conserved"]["norm"]) == 3

    @staticmethod
    def _corrupt(manifest, key, change):
        """Apply `change` to manifest[key] (key "a.b" reaches into a nested
        object); a change of None deletes the key."""
        *path, last = key.split(".")
        target = manifest
        for part in path:
            target = target[part]
        if change is None:
            del target[last]
        else:
            target[last] = change(target[last])

    @pytest.mark.parametrize(
        "key, change",
        [
            ("files", None),
            ("times", None),
            ("conserved", None),
            ("conserved.norm", None),
            ("conserved.energy", None),
            ("files", lambda v: v[:-1]),
            ("files", lambda v: v + ["psi_000009.mzbw"]),
            ("files", lambda v: "psi_000000.mzbw"),
            ("files", lambda v: []),
            ("files", lambda v: [0] + v[1:]),
            ("times", lambda v: v[:-1]),
            ("times", lambda v: v + [1.0]),
            ("times", lambda v: ["t"] + v[1:]),
            ("times", lambda v: [[t] for t in v]),
            ("times", lambda v: v[::-1]),
            ("times", lambda v: [v[0]] * len(v)),
            ("times", lambda v: None),
            ("conserved", lambda v: [v["norm"], v["energy"]]),
            ("conserved.norm", lambda v: v[:-1]),
            ("conserved.norm", lambda v: {"values": v}),
            ("conserved.energy", lambda v: v + [0.0]),
            ("conserved.energy", lambda v: "high"),
            ("conserved.norm", lambda v: v[:1] + [float("nan")] + v[2:]),
            ("conserved.energy", lambda v: v[:-1] + [float("inf")]),
        ],
    )
    def test_corrupt_manifest_rejected(self, tmp_path, key, change):
        grid = Grid((16,), (12.0,))
        series = propagate(gaussian(grid), EvolutionConfig(dt=1e-3, steps=4, snapshot_stride=2))
        out = tmp_path / "snaps"
        list(stream_snapshot_series(str(out), series))
        manifest = read_json(str(out / "manifest.json"))
        self._corrupt(manifest, key, change)
        write_json(str(out / "manifest.json"), manifest)
        with pytest.raises(ValueError, match=re.escape(str(out))):
            read_snapshot_series(str(out))

    @pytest.mark.parametrize(
        "text", [json.dumps([]), json.dumps("mzbw-snapshots"), json.dumps({"format": "other"}), "{not json"]
    )
    def test_non_series_manifest_rejected(self, tmp_path, text):
        out = tmp_path / "snaps"
        out.mkdir()
        (out / "manifest.json").write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(out))):
            read_snapshot_series(str(out))

    def test_snapshot_on_another_grid_rejected(self, tmp_path):
        grid = Grid((16,), (12.0,))
        series = propagate(gaussian(grid), EvolutionConfig(dt=1e-3, steps=4, snapshot_stride=2))
        out = tmp_path / "snaps"
        list(stream_snapshot_series(str(out), series))
        write_field(str(out / "psi_000001.mzbw"), gaussian(Grid((16,), (14.0,))))
        with pytest.raises(ValueError, match="grid"):
            read_snapshot_series(str(out))


class TestTrajectories:
    @pytest.fixture()
    def traj(self):
        grid = Grid((64,), (20.0,))
        psi = gaussian(grid)
        return advect(
            np.array([[0.5], [-0.25]]), psi, mode="drift", duration=0.5, rk_steps=8,
            rng_seed=77,
        )

    def test_binary_round_trip(self, traj, tmp_path):
        path = tmp_path / "traj.bin"
        write_trajectories_binary(str(path), traj)
        back = read_trajectories_binary(str(path))
        assert back.mode == traj.mode
        assert back.rng_seed == 77
        np.testing.assert_array_equal(back.times, traj.times)
        np.testing.assert_array_equal(back.paths, traj.paths)
        np.testing.assert_array_equal(back.seeds, traj.seeds)
        np.testing.assert_array_equal(back.frozen, traj.frozen)

    def test_csv_layout(self, traj, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectories_csv(str(path), traj)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "particle,t,x,y,z,mode,frozen"
        assert len(lines) == 1 + 2 * len(traj.times)
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[2]) == traj.paths[0, 0, 0]

    def test_csv_stride_keeps_endpoint(self, traj, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectories_csv(str(path), traj, record_stride=4)
        lines = path.read_text().strip().split("\n")[1:]
        times = sorted({float(line.split(",")[1]) for line in lines})
        assert times[0] == traj.times[0]
        assert times[-1] == traj.times[-1]

    def test_binary_stride_keeps_the_csv_times(self, traj, tmp_path):
        write_trajectories_binary(str(tmp_path / "all.bin"), traj)
        write_trajectories_binary(str(tmp_path / "one.bin"), traj, record_stride=1)
        assert (tmp_path / "all.bin").read_bytes() == (tmp_path / "one.bin").read_bytes()
        write_trajectories_binary(str(tmp_path / "traj.bin"), traj, record_stride=3)
        back = read_trajectories_binary(str(tmp_path / "traj.bin"))
        np.testing.assert_array_equal(back.times, traj.times[[0, 3, 6, 8]])
        np.testing.assert_array_equal(back.paths, traj.paths[:, [0, 3, 6, 8]])
        np.testing.assert_array_equal(back.seeds, traj.seeds)
        with pytest.raises(ValueError, match="record_stride"):
            write_trajectories_binary(str(tmp_path / "bad.bin"), traj, record_stride=0)

    def test_csv_is_deterministic(self, traj, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectories_csv(str(a), traj)
        write_trajectories_csv(str(b), traj)
        assert a.read_bytes() == b.read_bytes()


def row_csv_reference(path, traj, record_stride=1):
    """Reference writer: one f-string per row, the layout the per-particle
    template writer replaced.  The template writer must match it byte for
    byte."""
    keep = list(range(0, len(traj.times), record_stride))
    if keep[-1] != len(traj.times) - 1:
        keep.append(len(traj.times) - 1)
    with open(path, "w") as fh:
        fh.write("particle,t,x,y,z,mode,frozen\n")
        for p in range(traj.paths.shape[0]):
            frozen = int(traj.frozen[p])
            for i in keep:
                x, y, z = traj.paths[p, i]
                fh.write(
                    f"{p},{traj.times[i]:.17g},{x:.17g},{y:.17g},{z:.17g},{traj.mode},{frozen}\n"
                )


def awkward_trajectories(mode):
    """Paths that exercise every float spelling: nan, +-inf, -0.0,
    subnormals, huge and tiny magnitudes, and integers; mixed frozen flags."""
    rng = np.random.default_rng(19)
    n, nt = 12, 9
    paths = rng.standard_normal((n, nt, 3)) * 10.0 ** rng.integers(-300, 300, (n, nt, 3))
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e308, 3.0, -1.0 / 3.0]
    paths.flat[: 7 * len(specials) : 7] = specials
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 0.3, nt - 1))])
    times[3] = 1e-320
    frozen = np.arange(n) % 3 == 0
    return TrajectorySet(
        seeds=paths[:, 0].copy(), times=times, paths=paths, mode=mode, frozen=frozen
    )


class TestCsvTemplateWriter:
    @pytest.mark.parametrize("mode", ["drift", "total"])
    @pytest.mark.parametrize("stride", [1, 4, 50])
    def test_matches_row_writer(self, mode, stride, tmp_path):
        traj = awkward_trajectories(mode)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_trajectories_csv(str(got), traj, record_stride=stride)
        row_csv_reference(str(want), traj, record_stride=stride)
        assert got.read_bytes() == want.read_bytes()

    def test_matches_row_writer_on_advected_node_state(self, tmp_path):
        # a real node-crossing run: particle 0 starts in the node and freezes
        grid = Grid((64,), (20.0,))
        x = grid.axes[0]
        values = x * np.exp(-x * x / 4.0 + 0.8j * x)
        values /= np.sqrt(np.sum(np.abs(values) ** 2) * grid.cell_volume)
        psi = ComplexField(grid, values)
        traj = advect(np.array([[0.0], [1.5], [-2.0]]), psi, mode="drift", duration=0.5, rk_steps=6)
        assert traj.frozen[0]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_trajectories_csv(str(got), traj, record_stride=4)
        row_csv_reference(str(want), traj, record_stride=4)
        assert got.read_bytes() == want.read_bytes()


def layouts(paths):
    """The same (n, nt, 3) values C-contiguous, as a view of one plane per
    coordinate (the layout `advect` returns) and Fortran-ordered."""
    planes = np.ascontiguousarray(paths.transpose(2, 0, 1)).transpose(1, 2, 0)
    return {"C": np.ascontiguousarray(paths), "planes": planes, "F": np.asfortranarray(paths)}


class TestWriterLayouts:
    @pytest.mark.parametrize("mode", ["drift", "total"])
    @pytest.mark.parametrize("stride", [1, 4])
    def test_bytes_do_not_depend_on_the_layout(self, mode, stride, tmp_path):
        traj = awkward_trajectories(mode)
        variants = layouts(traj.paths)
        assert not variants["planes"].flags.c_contiguous and not variants["F"].flags.c_contiguous
        outputs = {}
        for name, paths in variants.items():
            assert np.array_equal(paths, traj.paths, equal_nan=True)
            variant = replace(traj, paths=paths)
            csv, binary = tmp_path / f"{name}.csv", tmp_path / f"{name}.bin"
            write_trajectories_csv(str(csv), variant, record_stride=stride)
            write_trajectories_binary(str(binary), variant, record_stride=stride)
            outputs[name] = (csv.read_bytes(), binary.read_bytes())
        assert outputs["planes"] == outputs["C"] and outputs["F"] == outputs["C"]

    def test_advected_set_writes_as_its_contiguous_copy(self, tmp_path):
        grid = Grid((64,), (20.0,))
        traj = advect(np.array([[0.5], [-0.25], [1.5]]), gaussian(grid, boost=0.3), duration=0.5, rk_steps=8)
        assert not traj.paths.flags.c_contiguous
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_trajectories_csv(str(got), traj, record_stride=3)
        write_trajectories_csv(str(want), replace(traj, paths=np.ascontiguousarray(traj.paths)), record_stride=3)
        assert got.read_bytes() == want.read_bytes()


def small_trajectory_file(tmp_path):
    grid = Grid((32,), (16.0,))
    traj = advect(np.array([[0.5], [-1.0]]), gaussian(grid), mode="drift", duration=0.2, rk_steps=2)
    path = tmp_path / "traj.bin"
    write_trajectories_binary(str(path), traj)
    return path


def small_field_file(tmp_path):
    path = tmp_path / "field.mzbw"
    write_field(str(path), RealField(Grid((4,), (1.0,)), np.arange(4.0)))
    return path


class TestTrajectoryBinaryValidation:
    def test_bad_magic_rejected(self, tmp_path):
        path = small_trajectory_file(tmp_path)
        path.write_bytes(b"MZBW1" + path.read_bytes()[5:])
        with pytest.raises(ValueError, match="magic"):
            read_trajectories_binary(str(path))

    def test_unknown_mode_code_rejected(self, tmp_path):
        path = small_trajectory_file(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[5] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="mode code 7"):
            read_trajectories_binary(str(path))

    def test_bad_frozen_flag_rejected(self, tmp_path):
        path = small_trajectory_file(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="frozen"):
            read_trajectories_binary(str(path))

    def test_no_recorded_times_rejected(self, tmp_path):
        path = tmp_path / "traj.bin"
        n = 2
        header = struct.pack("<5sBIIq", TRAJ_MAGIC, 0, n, 0, -1)
        path.write_bytes(header + np.zeros(3 * n).tobytes() + bytes(n))  # seeds and frozen flags only
        with pytest.raises(ValueError, match=re.escape(f"{path}: no recorded times")):
            read_trajectories_binary(str(path))

    @pytest.mark.parametrize("write", [write_trajectories_csv, write_trajectories_binary])
    def test_writers_reject_a_set_without_times(self, write, tmp_path):
        traj = TrajectorySet(
            seeds=np.zeros((2, 3)), times=np.zeros(0), paths=np.zeros((2, 0, 3)), mode="drift", frozen=np.zeros(2, bool)
        )
        with pytest.raises(ValueError, match="at least one recorded time"):
            write(str(tmp_path / "traj.out"), traj)

    @pytest.mark.parametrize(
        "make,read",
        [(small_field_file, read_field), (small_trajectory_file, read_trajectories_binary)],
        ids=["field", "traj"],
    )
    def test_every_truncation_rejected(self, make, read, tmp_path):
        path = make(tmp_path)
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match=re.escape(str(path))):
                read(str(path))

    @settings(max_examples=60, deadline=None)
    @given(which=st.sampled_from(["field", "traj"]), data=st.data())
    def test_resized_files_rejected(self, tmp_path_factory, which, data):
        make, read = {
            "field": (small_field_file, read_field),
            "traj": (small_trajectory_file, read_trajectories_binary),
        }[which]
        path = make(tmp_path_factory.mktemp("resize"))
        raw = path.read_bytes()
        # truncate at any offset, or extend by up to 64 arbitrary bytes
        size = data.draw(st.integers(0, len(raw) + 64).filter(lambda k: k != len(raw)))
        path.write_bytes((raw + data.draw(st.binary(min_size=64, max_size=64)))[:size])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read(str(path))


def zero_column_trajectories(kind):
    """Paths whose y and z columns are +0.0 everywhere except, by `kind`,
    one -0.0, one subnormal or one nan; x is random, some particles frozen."""
    rng = np.random.default_rng(23)
    n, nt = 7, 11
    paths = np.zeros((n, nt, 3))
    paths[:, :, 0] = rng.standard_normal((n, nt))
    odd = {"zero": None, "negzero": -0.0, "subnormal": 5e-324, "nan": np.nan}[kind]
    if odd is not None:
        paths[3, 5, 1] = odd
        paths[6, nt - 1, 2] = odd
    times = np.linspace(0.0, 1.0, nt)
    frozen = np.arange(n) % 4 == 1
    return TrajectorySet(seeds=paths[:, 0].copy(), times=times, paths=paths, mode="drift", frozen=frozen)


class TestCsvLiteralColumns:
    @pytest.mark.parametrize("kind", ["zero", "negzero", "subnormal", "nan"])
    @pytest.mark.parametrize("stride", [1, 50])
    def test_matches_row_writer(self, kind, stride, tmp_path):
        traj = zero_column_trajectories(kind)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_trajectories_csv(str(got), traj, record_stride=stride)
        row_csv_reference(str(want), traj, record_stride=stride)
        assert got.read_bytes() == want.read_bytes()

    def test_all_columns_literal(self, tmp_path):
        traj = zero_column_trajectories("zero")
        traj.paths[:, :, 0] = 0.0
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_trajectories_csv(str(got), traj, record_stride=3)
        row_csv_reference(str(want), traj, record_stride=3)
        assert got.read_bytes() == want.read_bytes()


def g17_reference(values):
    return [b"%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


def g17_ties():
    """Values whose 18th significant digit is an exact 5 and nothing follows:
    x = m / 2**(17 - X) with m odd lies half-way between two 17-digit
    decimals, for each decimal exponent X of the kernel's range."""
    out = []
    for X in range(-4, 16):
        low = Fraction(10) ** X * 2 ** (17 - X)
        high = min(Fraction(10) ** (X + 1) * 2 ** (17 - X), 2**53)  # m exact as a double
        for m in (int(low) + 1, int((low + high) / 2), int(high) - 2):
            m |= 1
            x = Fraction(m, 2 ** (17 - X))
            assert (x * Fraction(10) ** (16 - X)).denominator == 2 and float(x) == x
            out.append(float(x))
    return out


def g17_specials():
    powers = [float(Fraction(10) ** k) for k in range(-8, 21)] + [1e-4, 1e16]
    around = [float(np.nextafter(p, d)) for p in powers for d in (0.0, np.inf)]
    # each lies just below a power of ten and rounds up to it at 17 digits,
    # a carry into an 18th digit (all out of the kernel's range: none is in it)
    carries = [1e-14, 1e-70, 1e-243]
    specials = [0.0, 5e-324, 2.2250738585072014e-308, 1e-310, np.nan, np.inf, 1e15 + 0.25, 1e15 + 0.75]
    values = powers + around + carries + specials + g17_ties()
    return np.array(values + [-v for v in values])


class TestFormatG17:
    def test_specials_ties_and_range_edges(self):
        values = g17_specials()
        assert _format_g17(values.copy()) == g17_reference(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_matches_percent_g_on_bit_patterns(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert _format_g17(values.copy()) == g17_reference(values)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.floats() | st.floats(1e-4, 1e16) | st.floats(-1e16, -1e-4) | st.floats(-100.0, 100.0),
            min_size=1,
            max_size=64,
        )
    )
    def test_matches_percent_g_on_floats(self, floats):
        values = np.array(floats, dtype=np.float64)
        assert _format_g17(values.copy()) == g17_reference(values)


def block_trajectories(n, nt, live):
    """n particles over nt times with `live` nonzero columns: values across
    the kernel's range and a few it leaves to %.17g; every third frozen."""
    rng = np.random.default_rng(n + 7 * live)
    paths = np.zeros((n, nt, 3))
    paths[:, :, :live] = rng.standard_normal((n, nt, live)) * 10.0 ** rng.integers(-6, 18, (n, nt, live))
    specials = [1.0, -0.0, 1e-310, 1e16, np.nan, -2.5, 1e15 + 0.25, 1e-5]
    paths[::7, ::3, live - 1] = np.resize(specials, paths[::7, ::3, live - 1].shape)
    times = np.linspace(0.0, 1.0, nt)
    return TrajectorySet(seeds=paths[:, 0].copy(), times=times, paths=paths, mode="drift", frozen=np.arange(n) % 3 == 0)


class TestCsvBlocks:
    @pytest.mark.parametrize("live", [1, 3])
    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["block-1", "block", "block+1"])
    def test_matches_row_writer_around_a_block(self, live, stride, extra, tmp_path):
        nt = 11
        per_block = _CSV_BLOCK_VALUES // (live * len(_kept_times(nt, stride)))
        traj = block_trajectories(per_block + extra, nt, live)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_trajectories_csv(str(got), traj, record_stride=stride)
        row_csv_reference(str(want), traj, record_stride=stride)
        assert got.read_bytes() == want.read_bytes()

    def test_peak_memory_stays_bounded(self):
        # 201 times and one live column, as in the README example.  The
        # per-particle writer this replaced peaked at 0.07 MB here, with 2e3
        # or 1e4 particles alike; a block of formatted values may add less
        # than 1 MB.  The peak is per block, and 2e3 particles (100 blocks)
        # keep the traced run short.
        n, nt = 2_000, 201
        paths = np.zeros((n, nt, 3))
        paths[:, :, 0] = np.random.default_rng(5).standard_normal((n, nt))
        traj = TrajectorySet(
            seeds=paths[:, 0].copy(), times=np.linspace(0.0, 2.0, nt), paths=paths, mode="drift", frozen=np.arange(n) % 5 == 0
        )
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_trajectories_csv(os.devnull, traj)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestBinaryBlocks:
    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["block-1", "block", "block+1"])
    def test_planes_around_a_block_match_the_references(self, stride, extra, tmp_path):
        # three live columns: the binary and the CSV writer take the same
        # number of particles a block
        nt = 11
        keep = _kept_times(nt, stride)
        traj = block_trajectories(_CSV_BLOCK_VALUES // (3 * len(keep)) + extra, nt, 3)
        planes = replace(traj, paths=layouts(traj.paths)["planes"])
        path = tmp_path / "traj.bin"
        write_trajectories_binary(str(path), planes, record_stride=stride)
        assert read_trajectories_binary(str(path)).paths.tobytes() == traj.paths[:, keep].tobytes()
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_trajectories_csv(str(got), planes, record_stride=stride)
        row_csv_reference(str(want), traj, record_stride=stride)
        assert got.read_bytes() == want.read_bytes()

    def test_peak_memory_stays_within_a_few_blocks(self):
        # 10^4 particles over 201 times, x moving, as in the README example,
        # stored as per-coordinate planes: one copy of the set would be
        # 48 MB, a block of particles under _CSV_BLOCK_VALUES values 32 KB
        n, nt = 10**4, 201
        store = np.zeros((3, n, nt))
        store[0] = np.random.default_rng(6).standard_normal((n, nt))
        traj = TrajectorySet(
            seeds=store[:, :, 0].T.copy(), times=np.linspace(0.0, 2.0, nt), paths=store.transpose(1, 2, 0),
            mode="drift", frozen=np.arange(n) % 5 == 0,
        )
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_trajectories_binary(os.devnull, traj)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * _CSV_BLOCK_VALUES
