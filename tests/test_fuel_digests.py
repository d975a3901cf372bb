"""sha256 digests of the shape-fuel results, every bit of every number.

``tests/golden/fuel_compare.csv`` compares numbers to 1e-12 and covers three
pairs; these digests cover every planner family with lower pair index 1 to
63, on both intervals (first-kind Chebyshev, whose shapes are singular, on
[-1, 1] only), plus Jacobi shapes at alpha = beta in {0.3, 1.7, 2.2}.  The
pair is (n, n + 1), or (n, n) for trig.  For each pair a case hashes the
``repr`` of ``l1_norm`` of both shapes, their ``coupling_displacement`` and
the ``fuel_min(fuel_constants(...))`` report at a fixed target, so any change
of one bit in a norm, a coupling, a coefficient or the grid minimum fails it.

The digests pin the numpy and libm build they were made with: another CPU or
build may round transcendental functions differently.  There, regenerate them
from the commit before a change (``PYTHONPATH=src python
tests/test_fuel_digests.py`` prints the table) and compare the change against
those.
"""

import hashlib

import pytest

from nhsteer.fuel_l1 import fuel_constants, fuel_min
from nhsteer.orthopoly import coupling_displacement, l1_norm
from nhsteer.steering import pair_signals

TARGET = -2.5
LOWER_INDICES = range(1, 64)

GROUPS = {
    "legendre": ("legendre", (-1.0, 1.0), None),
    "legendre 0,1": ("legendre", (0.0, 1.0), None),
    "chebyshev_first": ("chebyshev_first", (-1.0, 1.0), None),
    "chebyshev_second": ("chebyshev_second", (-1.0, 1.0), None),
    "chebyshev_second 0,1": ("chebyshev_second", (0.0, 1.0), None),
    "trig": ("trig", (-1.0, 1.0), None),
    "trig 0,1": ("trig", (0.0, 1.0), None),
    "jacobi 0.3": ("jacobi", (-1.0, 1.0), (0.3, 0.3)),
    "jacobi 0.3 0,1": ("jacobi", (0.0, 1.0), (0.3, 0.3)),
    "jacobi 1.7": ("jacobi", (-1.0, 1.0), (1.7, 1.7)),
    "jacobi 1.7 0,1": ("jacobi", (0.0, 1.0), (1.7, 1.7)),
    "jacobi 2.2": ("jacobi", (-1.0, 1.0), (2.2, 2.2)),
    "jacobi 2.2 0,1": ("jacobi", (0.0, 1.0), (2.2, 2.2)),
}


def _digest(family, interval, params) -> str:
    sha = hashlib.sha256()
    for n in LOWER_INDICES:
        pair = (n, n) if family == "trig" else (n, n + 1)
        odd, even = pair_signals(family, pair, interval, params)
        report = fuel_min(fuel_constants(odd, even, TARGET), family=family, pair=pair)
        for value in (l1_norm(odd), l1_norm(even), coupling_displacement(odd, even), report):
            sha.update(repr(value).encode())
    return sha.hexdigest()


DIGESTS = {
    "chebyshev_first": "48741814139010e6d52d25cb6fa6bbba6a30777b7d6aee0bf28149ef4299821f",
    "chebyshev_second": "854a167a2c4cb2e1b211f5896d77f850fb434ed8b44b2f78470f3cd31c6581ff",
    "chebyshev_second 0,1": "29b728f21e234fd6db7efc55fc8ecfe3fb858ea366090c210cf06dc9a7044b02",
    "jacobi 0.3": "46293800e5af601d0d2f8f3c543f2a29c01a293e159af6170920aa95166a8880",
    "jacobi 0.3 0,1": "f40f97ff0fe40b460707badc94234b14ae242974937db43be22a984a924f4acd",
    "jacobi 1.7": "61a9e9a45e6ff14382c5c4e9da2c26a729d30e75b7c18c29edc2325611d97b96",
    "jacobi 1.7 0,1": "5d816d04b85a60e51aa663d57d7cbe5ac8ee442897ae8bac79359499f5dc6945",
    "jacobi 2.2": "f270f10a48fd91ab73477c1dde7ecfb4d897a961f80e398188ee8784008806e5",
    "jacobi 2.2 0,1": "ea1fd0f1b33b1f198eebffb805bcfb48f3b232f02cd0e5fd1265a084d32ebf41",
    "legendre": "5b8c2b5848de1bd8fddaa8bd529fd4477041eb8621f4ad99cf2e7b2ff2a5afed",
    "legendre 0,1": "3a9f4ab1a72a1653bdb62403ca3342b4b4ca0cf5e018516ffafd28c666adac05",
    "trig": "21428a6bf69520b6acb9c9472f08ca8135a33ea296ae1c5b469e090197b5e069",
    "trig 0,1": "2bf8d0a31559bccef7ca26c6c3b12a47544c337b17aab8c3f18509ab6489c876",
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_fuel_results_are_bit_identical(name):
    assert _digest(*GROUPS[name]) == DIGESTS[name]


if __name__ == "__main__":
    print("DIGESTS = {")
    for name in sorted(GROUPS):
        print(f'    "{name}": "{_digest(*GROUPS[name])}",')
    print("}")
