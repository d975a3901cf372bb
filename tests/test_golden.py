"""Golden outputs of the README CLI examples, `fuel --compare` and `paper-repro`.

The files under ``tests/golden`` were written by the CLI itself (see
CHANGES.md for the commands).  Everything that is not a number (keys,
strings, column names, spacing, line breaks) must match exactly; numbers
must agree to a relative 1e-12.  The comparison is not byte-for-byte because
libm and SIMD code paths can round differently between CPUs, which moves
the last bits of transcendental values; byte identity of a refactor is
checked by comparing parent and change on one machine.  Values at roundoff
level (simulated endpoint errors, |delta| of exact rows) have no relative
accuracy at all, so they also pass within an absolute 1e-12.
"""

import math
import re
from pathlib import Path

import pytest

from nhsteer.cli import main

GOLDEN = Path(__file__).parent / "golden"

# a number not glued to a name (so x12 and chebyshev_first stay text)
_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\w.])")

CASES = {
    "plan_nhi_legendre.json": ["plan", "nhi", "--from", "0,0,0", "--to", "0,0,1", "--family", "legendre"],
    "plan_nhi_optimal.json": ["plan", "nhi", "--from", "0,0,0", "--to", "0,0,1", "--optimal"],
    "plan_gnhi_m3_trig.json": [
        "plan", "gnhi", "--m", "3", "--from", "0,0,0,0,0,0",
        "--to", "1,-2,0.5,1.5,-0.75,2", "--family", "trig",
    ],
    "fuel_compare.csv": ["fuel", "--target", "1", "--compare", "trig,legendre,chebyshev_first"],
    "paper_repro.txt": ["paper-repro"],
}


def _split(text: str) -> tuple[str, list[float]]:
    """The text with every number replaced by '#', and the numbers in order."""
    return _NUMBER.sub("#", text), [float(m) for m in _NUMBER.findall(text)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    got_layout, got = _split(capsys.readouterr().out)
    want_layout, want = _split((GOLDEN / name).read_text())
    assert got_layout == want_layout
    assert len(got) == len(want)
    bad = [
        (k, g, w)
        for k, (g, w) in enumerate(zip(got, want))
        if not math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-12)
    ]
    assert not bad, f"numbers off (index, got, golden): {bad[:5]}"


def test_split_keeps_names_and_finds_numbers():
    layout, numbers = _split('{"x12": -1.5e-3, "f": "chebyshev_first", "k": 2}')
    assert layout == '{"x12": #, "f": "chebyshev_first", "k": #}'
    assert numbers == [-1.5e-3, 2.0]
