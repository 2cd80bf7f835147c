"""The in-tree Brent root-finder behind the profile fitters.

``fit._brentq`` is a port of scipy's ``brentq``; the oracle tests hold it
bit-equal to scipy where scipy is installed, and the pinned profile
digest guards the fitted calibration everywhere else.
"""

import hashlib
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.calibration import TABLE2_GCC, TABLE3_ICC, THROTTLE_TABLES, get_profile
from repro.calibration import fit
from repro.errors import CalibrationError

#: Every (app, compiler, optlevel) the paper reports: 56 Table II cells,
#: 60 Table III cells and the four throttling applications.
PROFILE_KEYS = (
    [(app, "gcc", level) for app, rows in TABLE2_GCC.items() for level in rows]
    + [(app, "icc", level) for app, rows in TABLE3_ICC.items() for level in rows]
    + [(app, "maestro", "O3") for app in THROTTLE_TABLES]
)

#: SHA-256 over ``repr(get_profile(*key))`` for PROFILE_KEYS, one line
#: each, as fitted with ``scipy.optimize.brentq`` before the port.
PROFILES_SHA256 = "4decb150300682a25041a1e827bb7feaf65426682d1e82de13fc1f62f95d1db4"

#: The fitters' tolerances plus scipy's default.
XTOLS = (1e-6, 1e-9, 2e-12)


def test_fitted_profiles_match_pinned_digest():
    assert len(PROFILE_KEYS) == len(set(PROFILE_KEYS)) == 120
    text = "\n".join(repr(get_profile(*key)) for key in PROFILE_KEYS)
    assert hashlib.sha256(text.encode()).hexdigest() == PROFILES_SHA256


def test_same_sign_bracket_raises():
    with pytest.raises(CalibrationError, match="not bracketed"):
        fit._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-6)
    with pytest.raises(CalibrationError, match="not bracketed"):
        fit._brentq(lambda x: -math.exp(x), 3.0, -2.0, 1e-9)


def test_exact_root_at_an_endpoint_is_returned():
    assert fit._brentq(lambda x: x - 2.0, 2.0, 5.0, 1e-6) == 2.0
    assert fit._brentq(lambda x: x - 5.0, 2.0, 5.0, 1e-6) == 5.0


def test_non_convergence_raises():
    # A step at 0 with an absolute tolerance far below the float spacing
    # near 0 needs ~1000 halvings, far past the 100-iteration budget.
    with pytest.raises(CalibrationError, match="did not converge"):
        fit._brentq(lambda x: 1.0 if x > 0 else -1.0, -1.0, 3.0, 1e-300)


# ----------------------------------------------------------------- oracle
def test_every_profile_fit_is_bit_equal_to_scipy(monkeypatch):
    optimize = pytest.importorskip("scipy.optimize")
    calls = []
    port = fit._brentq

    def checked(f, xa, xb, xtol):
        root = port(f, xa, xb, xtol)
        reference = optimize.brentq(f, xa, xb, xtol=xtol)
        calls.append((xa, xb, xtol))
        assert root.hex() == reference.hex(), (xa, xb, xtol)
        return root

    monkeypatch.setattr(fit, "_brentq", checked)
    for key in PROFILE_KEYS:
        get_profile.__wrapped__(*key)  # bypass the lru_cache
    assert len(calls) == 112  # all but the eight fixed-shape profiles


@st.composite
def _bracketed(draw):
    """A function with a sign change over a random bracket."""
    kind = draw(st.sampled_from(["linear", "tanh", "exp", "cubic"]))
    finite = st.floats(-50.0, 50.0, allow_nan=False)
    c = draw(finite)
    slope = draw(st.floats(1e-3, 1e3))
    if kind == "linear":
        def f(x):
            return slope * (x - c)
    elif kind == "tanh":
        def f(x):
            return math.tanh(slope * (x - c))
    elif kind == "exp":
        def f(x):
            return math.exp((x - c) / 10.0) - 1.0
    else:
        r2, r3 = draw(finite), draw(finite)

        def f(x):
            return (x - c) * (x - r2) * (x - r3) + slope * 1e-3 * (x - c)
    lo, hi = sorted((draw(finite), draw(finite)))
    assume(hi - lo > 1e-6)
    f_lo, f_hi = f(lo), f(hi)
    assume(math.copysign(1.0, f_lo) != math.copysign(1.0, f_hi))
    xa, xb = (lo, hi) if draw(st.booleans()) else (hi, lo)
    return f, xa, xb


@settings(max_examples=300)
@given(case=_bracketed(), xtol=st.sampled_from(XTOLS))
def test_random_brackets_are_bit_equal_to_scipy(case, xtol):
    optimize = pytest.importorskip("scipy.optimize")
    f, xa, xb = case
    root = fit._brentq(f, xa, xb, xtol)
    assert root.hex() == optimize.brentq(f, xa, xb, xtol=xtol).hex()
