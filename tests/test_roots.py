import math

import pytest
from scipy.optimize import brentq as scipy_brentq

from relplasma import roots
from relplasma.roots import brentq, lockstep_brentq

# (f, a, b): zero endpoints, steep, flat, tiny-valued and oscillating functions
CASES = [
    (lambda x: x * x - 2.0, 0.0, 2.0),
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: x - 0.25, 0.25, 1.0),                 # zero at a
    (lambda x: x - 1.0, 0.25, 1.0),                  # zero at b
    (lambda x: math.tanh(200.0 * (x - 0.123)), -1.0, 1.0),       # steep
    (lambda x: math.exp(x) - 1e10, 0.0, 40.0),                   # steep, lopsided
    (lambda x: (x - 0.5) ** 9, 0.0, 1.3),                        # flat at the root
    (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0),                    # underflowing products
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.sin(30.0 * x) + 0.1, 0.05, 0.2),
    (lambda x: x * x + 1.0, -1.0, 1.0),                          # no sign change
    (lambda x: 1.0 / (x - 0.4), 0.0, 1.0),                       # pole, not a root
]
# defaults, limits.plasmon_frequency's and dispersion's tolerances, a loose one
TOLERANCES = [(2e-12, 4.0 * 2.220446049250313e-16), (1e-16, 1e-14), (1e-14, 1e-14),
              (1e-3, 1e-3)]


def outcome(solver, f, a, b, **kw):
    try:
        return solver(f, a, b, **kw).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("case", range(len(CASES)))
@pytest.mark.parametrize("xtol, rtol", TOLERANCES)
def test_bit_equal_to_scipy(case, xtol, rtol):
    f, a, b = CASES[case]
    got = outcome(brentq, f, a, b, xtol=xtol, rtol=rtol)
    assert got == outcome(scipy_brentq, f, a, b, xtol=xtol, rtol=rtol)


def test_same_sign_and_nonconvergence_are_scipy_errors(monkeypatch):
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    f = CASES[6][0]
    monkeypatch.setattr(roots, "MAXITER", 5)
    got = outcome(brentq, f, 0.0, 1.3)
    assert got == outcome(scipy_brentq, f, 0.0, 1.3, maxiter=5)
    assert got[0] == "RuntimeError"
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        brentq(lambda x: x, -1.0, 1.0, xtol=0.0)
    with pytest.raises(ValueError):
        brentq(lambda x: x, -1.0, 1.0, rtol=1e-17)


def lone_run(f, a, b):
    """Outcome of a lone brentq run and the number of values it took."""
    xs = []
    got = outcome(brentq, lambda x: xs.append(x) or f(x), a, b, xtol=1e-14, rtol=1e-14)
    return got, len(xs)


def test_lockstep_equals_separate_runs_one_call_per_step():
    lone = [lone_run(*case) for case in CASES]
    calls = []

    def evaluate(xs):
        # a bracket still runs at step k when its lone run took more than k values
        owners = [i for i, (_, n) in enumerate(lone) if n > len(calls)]
        calls.append(len(xs))
        assert len(xs) == len(owners)
        return [CASES[i][0](x) for i, x in zip(owners, xs)]

    got = lockstep_brentq([(a, b) for _, a, b in CASES], evaluate,
                          xtol=1e-14, rtol=1e-14)
    assert len(calls) == max(n for _, n in lone)
    for res, (want, _), (f, _, _) in zip(got, lone, CASES):
        if isinstance(res, Exception):
            assert (type(res).__name__, str(res)) == want
        else:
            root, value = res
            assert root.hex() == want
            assert value == f(root)


def test_lockstep_unavailable_value_ends_only_its_bracket():
    hole = RuntimeError("unavailable")

    def evaluate(xs):
        return [hole if 0.6 < x < 0.7 else x - 0.65 if x > 0.5 else x - 0.2 for x in xs]

    got = lockstep_brentq([(0.0, 0.5), (0.55, 0.9)], evaluate, xtol=1e-14, rtol=1e-14)
    assert got[0][0] == brentq(lambda x: x - 0.2, 0.0, 0.5, xtol=1e-14, rtol=1e-14)
    assert got[1] is hole
