"""The CSV kernel against its definition: every cell is ``repr(float(v))``."""

import io
import math
import sys

import numpy as np
import pytest

from nhsteer import _csvtext, dynamics
from nhsteer._csvtext import csv_block
from nhsteer.dynamics import Trajectory

NCOLS = 7


def _reference(values: np.ndarray, ncols: int) -> str:
    rows = values.reshape(-1, ncols).tolist()
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


def _kernel(values: np.ndarray, ncols: int) -> str:
    """``csv_block`` over blocks of whole rows, about as many cells as ``Trajectory.to_csv`` takes."""
    block = dynamics._CSV_BLOCK_CELLS // ncols * ncols
    last = np.arange(block) % ncols == ncols - 1
    return "".join(csv_block(values[lo : lo + block], last[: len(values) - lo]) for lo in range(0, len(values), block))


def _assert_cells_match(values) -> None:
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate((values, np.zeros(-len(values) % NCOLS)))
    got, want = _kernel(values, NCOLS), _reference(values, NCOLS)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split("\n"), want.split("\n")) if g != w]
        pytest.fail(f"{len(bad)} rows differ from repr, first {bad[:3]}")


def _with_neighbours(values: np.ndarray) -> np.ndarray:
    return np.concatenate((values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)))


RNG_SEED = 20260419


def _cases():
    rng = np.random.default_rng(RNG_SEED)
    bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64)
    yield "random bit patterns", bits.view(np.float64)
    yield "normals scaled by 10^U(-30, 30)", rng.standard_normal(100_000) * 10.0 ** rng.uniform(-30.0, 30.0, 100_000)
    with np.errstate(over="ignore"):
        yield "normals scaled by 10^U(-307, 308)", rng.standard_normal(100_000) * 10.0 ** rng.uniform(-307.0, 308.0, 100_000)
    yield "normals", rng.standard_normal(400_000)
    yield "short decimals", rng.integers(-(10**6), 10**6, 120_000) / 10.0 ** rng.integers(0, 7, 120_000)
    yield "integers times 10^k", rng.integers(-(10**7), 10**7, 100_000) * 10.0 ** rng.integers(-12, 12, 100_000)
    yield "linspace grids", np.concatenate(
        [np.linspace(lo, hi, n) for lo, hi, n in ((0.0, 2.0, 4001), (-1.0, 1.0, 80_001), (0.0, 1.0, 16_001), (-3.7, 1e3, 160_000))]
    )
    yield "powers of two", _with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
    yield "powers of ten", _with_neighbours(np.array([float(f"1e{k}") for k in range(-323, 309)]))
    yield "notation edges", _with_neighbours(np.array([1e-4, 1e-5, 1e-3, 1e16, 1e15, 9999999999999998.0, 2.0**-17, 2.0**56]))
    yield "range bounds and 3-digit exponents", _with_neighbours(
        np.array([_csvtext._LO, _csvtext._HI, -_csvtext._LO, -_csvtext._HI, 1e-100, 1e100, -1.2345e-300])
    )
    yield "special values", np.array(
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max,
         sys.float_info.min, 9007199254740993.0, 1234567890123456.25, 0.1, 0.3, 0.5, 1.0, 2.0 / 3.0]
    )


CASES = dict(_cases())


@pytest.mark.parametrize("name", list(CASES))
def test_cells_match_repr(name):
    _assert_cells_match(CASES[name])


def test_the_properties_cover_a_million_cells():
    assert sum(len(values) for values in CASES.values()) >= 1_000_000


def test_ties_and_powers_of_two_are_left_to_repr():
    # a tie between two 17-digit decimals, and a power of two, whose ulp below is half the ulp above
    values = np.array([1234567890123456.25, 0.5])
    assert _csvtext._shortest(values)[3].all()
    _assert_cells_match(values)


def _is_tie(x: float) -> bool:
    """A decimal of at most 17 significant digits lies exactly half an ulp from x,
    or x lies exactly halfway between two such decimals."""

    def significant(a: int, b: int) -> str:  # the digits of a 2^b
        return str(a << b if b >= 0 else a * 5**-b).rstrip("0")

    mantissa, exponent = math.frexp(abs(x))
    m, b = int(mantissa * 2**53), exponent - 53
    digits = significant(m, b)
    halfway = len(digits) <= 18 and digits.endswith("5")
    return halfway or any(len(significant(2 * m + d, b - 1)) <= 17 for d in (-1, 1))


def test_exponent_notation_is_written_without_repr(monkeypatch):
    rng = np.random.default_rng(RNG_SEED + 1)
    small = np.exp(rng.uniform(math.log(1e-40), math.log(1e-5), 50_000))
    large = np.exp(rng.uniform(math.log(1e16), math.log(1e100), 50_000))
    values = np.concatenate((small, large)) * rng.choice((-1.0, 1.0), 100_000)
    values = np.array([v for v in values.tolist() if math.frexp(v)[0] not in (0.5, -0.5) and not _is_tie(v)])
    assert len(values) > 99_000
    calls = []
    monkeypatch.setattr(_csvtext, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    _assert_cells_match(values)
    assert calls == []


@pytest.mark.parametrize("ncols", [1, 6, 46])
def test_trajectory_blocks_of_one_and_around_the_block_size(ncols):
    block = max(1, dynamics._CSV_BLOCK_CELLS // ncols)
    rng = np.random.default_rng(ncols)
    for rows in (1, block - 1, block, block + 1):
        values = rng.standard_normal((ncols, rows)) * 10.0 ** rng.integers(-6, 18, (ncols, rows))
        names = tuple(f"c{i}" for i in range(1, ncols))
        traj = Trajectory(values[0], dict(zip(names, values[1:])), names, (), "rk4", (0.0, 1.0))
        buf = io.StringIO()
        traj.to_csv(buf)
        assert buf.getvalue() == ",".join(("t", *names)) + "\n" + _reference(values.T.ravel(), ncols)
