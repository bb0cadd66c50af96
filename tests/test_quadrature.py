import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relplasma import quadrature
from relplasma.core import ThermoState, fermi_occupation, make_kinematics
from relplasma.dispersion import SEED_STRIDE
from relplasma.limits import thomas_fermi_mass2
from relplasma.quadrature import (
    Breakpoints,
    IntegralResult,
    NonConvergence,
    adaptive_panels,
    fermi_x_cut,
    integrate_semi_infinite,
    locate_log_singularities,
    lockstep_panels,
    map_partition,
)
from relplasma.scalar_functions import _medium_bracket, _medium_edges

COLD2 = ThermoState(t=0.0, zeta=2.0)


def weighted(f, state):
    return lambda x: fermi_occupation(x, state) * f(x)


class TestIntegrateSemiInfinite:
    def test_unit_integrand_cold(self):
        # occupation alone integrates to zeta - 1 = 1 at t=0, zeta=2
        res = integrate_semi_infinite(lambda x: fermi_occupation(x, COLD2), COLD2,
                                      Breakpoints(), tol=1e-12)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.errEst < 1e-12

    def test_momentum_measure_cold(self):
        # integral of sqrt(x^2-1) over [1, 2]: zeta*pF/2 - log(zeta+pF)/2
        exact = 0.5 * (2 * math.sqrt(3) - math.log(2 + math.sqrt(3)))
        res = integrate_semi_infinite(weighted(lambda x: np.sqrt(x * x - 1), COLD2),
                                      COLD2, Breakpoints(), tol=1e-12)
        assert res.converged
        assert res.value == pytest.approx(exact, rel=1e-12)

    def test_log_singularity_with_breakpoint(self):
        # integral of ln|x - 3/2| over [1, 2] = ln(1/2) - 1
        exact = math.log(0.5) - 1.0
        res = integrate_semi_infinite(
            weighted(lambda x: np.log(np.abs(x - 1.5)), COLD2),
            COLD2, Breakpoints((1.5,)), tol=1e-9)
        assert res.converged
        assert res.errEst <= 1e-9
        assert res.value == pytest.approx(exact, abs=2e-9)

    def test_empty_sea_is_zero(self):
        empty = ThermoState(t=0.0, zeta=1.0)
        res = integrate_semi_infinite(lambda x: fermi_occupation(x, empty) * x**3,
                                      empty, Breakpoints(), tol=1e-10)
        assert res.converged and res.value == 0.0 and res.panels == 0

    def test_warm_tail_truncation_stable(self):
        warm = ThermoState(t=0.3, zeta=1.5)
        f = weighted(lambda x: x * x, warm)
        x_cut = fermi_x_cut(warm, 1e-9)
        base = adaptive_panels(f, [1.0, x_cut], tol=1e-9)
        longer = adaptive_panels(f, [1.0, warm.zeta + 1.5 * (x_cut - warm.zeta)],
                                 tol=1e-9)
        assert abs(base.value - longer.value) < 1e-9

    def test_refinement_consistency(self):
        f = weighted(lambda x: np.log(np.abs(x - 1.25)) * np.sqrt(x * x - 1), COLD2)
        loose = integrate_semi_infinite(f, COLD2, Breakpoints((1.25,)), tol=1e-6)
        tight = integrate_semi_infinite(f, COLD2, Breakpoints((1.25,)), tol=1e-12)
        assert abs(loose.value - tight.value) <= loose.errEst + tight.errEst

    def test_nonconvergence_carries_partial_result(self):
        f = weighted(lambda x: np.log(np.abs(x - 1.5)), COLD2)
        with pytest.raises(NonConvergence) as exc:
            integrate_semi_infinite(f, COLD2, Breakpoints((1.5,)), tol=1e-300)
        res = exc.value.result
        assert isinstance(res, IntegralResult)
        assert not res.converged
        assert res.value == pytest.approx(math.log(0.5) - 1.0, abs=1e-9)

    @given(
        coeffs=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=11),
        zeta=st.floats(1.2, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_polynomial_exactness(self, coeffs, zeta):
        state = ThermoState(t=0.0, zeta=zeta)
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(zeta) - poly.integ()(1.0)
        res = integrate_semi_infinite(weighted(poly, state), state, Breakpoints(),
                                      tol=1e-11 * exact)
        assert abs(res.value - exact) <= 1e-10 * exact


class TestAdaptivePanels:
    def test_plain_interval(self):
        res = adaptive_panels(np.sin, [0.0, math.pi], tol=1e-12)
        assert res.value == pytest.approx(2.0, rel=1e-13)

    def test_edges_split_domain(self):
        res = adaptive_panels(lambda p: np.exp(-p), [0.0, 1.0, 30.0], tol=1e-12)
        assert res.value == pytest.approx(1.0 - math.exp(-30.0), rel=1e-12)

    def test_scalar_integrand_gives_floats(self):
        res = adaptive_panels(np.sin, [0.0, math.pi], tol=1e-12)
        assert type(res.value) is float and type(res.errEst) is float

    def test_vector_components_match_separate_integrals(self):
        # one smooth, one log-singular at an edge, one sharp warm Fermi step
        warm = ThermoState(t=0.01, zeta=1.5)
        parts = [np.sqrt,
                 lambda x: np.log(np.abs(x - 1.5)),
                 lambda x: fermi_occupation(x, warm) * x]
        edges = [1.0, 1.5, 2.5]
        joint = adaptive_panels(lambda x: np.array([g(x) for g in parts]),
                                edges, tol=1e-10)
        assert joint.value.shape == joint.errEst.shape == (3,)
        assert np.all(joint.errEst <= 1e-10)
        for g, value, err in zip(parts, joint.value, joint.errEst):
            alone = adaptive_panels(g, edges, tol=1e-10)
            assert abs(value - alone.value) <= err + alone.errEst


def assert_same_integral(got, alone):
    assert type(got.value) is type(alone.value)
    assert got.panels == alone.panels and got.converged == alone.converged
    np.testing.assert_allclose(got.value, alone.value, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(got.errEst, alone.errEst, rtol=1e-13, atol=0.0)


# per-integral parameters: a log singularity at c (an edge or not) and a warm
# Fermi step at temperature t, so the integrals need very different panel counts
CENTERS = np.array([1.2, 1.5, 1.9, 2.3, 1.05, 1.37])
TEMPS = np.array([0.3, 0.01, 0.002, 0.05, 0.1, 0.02])
EDGES = [[1.0, 1.2, 2.5], [1.0, 1.5, 2.5], [1.9, 1.0, 2.5, 1.9],
         [1.0, 2.3, 2.5], [1.0, 1.05, 2.5], [1.0, 2.5]]


def _rows(x, c, t):
    step = 1.0 / (1.0 + np.exp((x - 1.7) / t))
    return np.array((np.sqrt(x), np.log(np.abs(x - c)) * x, step * x * x))


class TestLockstepPanels:
    def test_scalar_integrals_match_separate_runs(self):
        res = lockstep_panels(
            lambda x, i: np.log(np.abs(x - CENTERS[i])) * np.sqrt(x), EDGES,
            tol=1e-11)
        assert len({r.panels for r in res}) > 1
        for c, edges, got in zip(CENTERS, EDGES, res):
            alone = adaptive_panels(lambda x: np.log(np.abs(x - c)) * np.sqrt(x),
                                    edges, tol=1e-11)
            assert_same_integral(got, alone)

    def test_vector_integrals_match_separate_runs(self):
        res = lockstep_panels(lambda x, i: _rows(x, CENTERS[i], TEMPS[i]), EDGES,
                              tol=1e-10)
        for c, t, edges, got in zip(CENTERS, TEMPS, EDGES, res):
            alone = adaptive_panels(lambda x: _rows(x, c, t), edges, tol=1e-10)
            assert got.value.shape == (3,)
            assert_same_integral(got, alone)

    def test_empty_integral_is_scalar_zero(self):
        res = lockstep_panels(lambda x, i: _rows(x, CENTERS[i], TEMPS[i]),
                              [EDGES[0], [], [2.0, 2.0], EDGES[3]], tol=1e-10)
        for got in res[1:3]:
            assert got == IntegralResult(0.0, 0.0, 0, True)
        assert_same_integral(res[3], adaptive_panels(
            lambda x: _rows(x, CENTERS[3], TEMPS[3]), EDGES[3], tol=1e-10))

    def test_budget_failure_stays_with_its_integral(self):
        # the log singularity at 1.37 is not an edge: it alone needs more
        # than 12 panels, the polynomials need one each
        centers = [1.37, 0.0, 0.0]

        def f(x, i):
            return np.where(i == 0, np.log(np.abs(x - 1.37)), x * x)

        res = lockstep_panels(f, [[1.0, 2.0]] * 3, tol=1e-12, budget=12)
        with pytest.raises(NonConvergence) as alone:
            adaptive_panels(lambda x: np.log(np.abs(x - centers[0])), [1.0, 2.0],
                            tol=1e-12, budget=12)
        assert isinstance(res[0], NonConvergence)
        assert str(res[0]) == str(alone.value)
        assert_same_integral(res[0].result, alone.value.result)
        for got in res[1:]:
            assert got.converged and got.value == pytest.approx(7.0 / 3.0, rel=1e-14)

    def test_one_integrand_call_per_round(self):
        calls = []

        def f(x, i):
            calls.append(np.unique(i).size)
            return np.log(np.abs(x - CENTERS[i])) * np.sqrt(x)

        res = lockstep_panels(f, EDGES, tol=1e-11)
        # a round bisects one panel of every live integral: an integral with
        # n initial panels is done after panels - n rounds
        initial = [len(set(e)) - 1 for e in EDGES]
        assert len(calls) == 1 + max(r.panels - n for r, n in zip(res, initial))
        assert calls[0] == len(EDGES)

    def test_live_trees_are_bounded(self, monkeypatch):
        monkeypatch.setattr(quadrature, "LOCKSTEP_LIVE", 2)
        live = []

        def f(x, i):
            live.append(np.unique(i).size)
            return np.log(np.abs(x - CENTERS[i])) * np.sqrt(x)

        res = lockstep_panels(f, EDGES, tol=1e-11)
        assert max(live) == 2
        for c, edges, got in zip(CENTERS, EDGES, res):
            alone = adaptive_panels(lambda x: np.log(np.abs(x - c)) * np.sqrt(x),
                                    edges, tol=1e-11)
            assert_same_integral(got, alone)


class TestChunkedRounds:
    def test_chunked_round_equals_one_call(self, monkeypatch):
        # three full-kinematics points, 300 panels: wider than one chunk
        kins = [make_kinematics(0.1, q) for q in (0.05, 0.3, 0.9)]
        a = np.array([k.a for k in kins])
        b = np.array([k.b for k in kins])
        edges = np.linspace(1.0, 2.0, 101)
        lo = np.tile(edges[:-1], 3).tolist()
        hi = np.tile(edges[1:], 3).tolist()
        owner = np.repeat([0, 1, 2], 100).tolist()
        calls = []

        def f(x, i):
            calls.append(x.size)
            return _medium_bracket(x, a[i], b[i], COLD2)

        chunked = quadrature._panels(f, lo, hi, owner)
        assert len(calls) == math.ceil(300 / quadrature._CHUNK) > 1
        monkeypatch.setattr(quadrature, "_CHUNK", 10**6)
        whole = quadrature._panels(f, lo, hi, owner)
        assert len(calls) == 4 and chunked[3] == whole[3]
        for got, want in zip(chunked[:3], whole[:3]):
            assert np.array_equal(got, want)


class TestPartitions:
    def test_result_carries_leaf_partition(self):
        def f(x):
            return np.log(np.abs(x - 1.37))

        res = adaptive_panels(f, [1.0, 1.5, 2.0], tol=1e-10)
        assert res.edges.dtype == np.float64
        assert res.edges.size == res.panels + 1 < quadrature._CHUNK
        assert np.all(np.diff(res.edges) > 0.0) and {1.0, 1.5, 2.0} <= set(res.edges)
        # the converged partition meets tol at once: one round, the same bits
        calls = []
        again = lockstep_panels(lambda x, i: calls.append(1) or f(x), [res.edges],
                                tol=1e-10)[0]
        assert len(calls) == 1
        assert (again.value, again.errEst, again.panels) == \
            (res.value, res.errEst, res.panels)

    def test_partition_includes_frozen_panels(self):
        # a log singularity off the edges freezes panels at machine width
        with pytest.raises(NonConvergence) as exc:
            adaptive_panels(lambda x: np.log(np.abs(x - 1.37)), [1.0, 2.0],
                            tol=1e-300, budget=400)
        res = exc.value.result
        assert res.edges.size == res.panels + 1
        assert np.min(np.diff(res.edges)) < 1e-13 * 1.37


class TestMapPartition:
    BASE = [1.0, 1.5, 2.0]
    PART = np.array([1.0, 1.1, 1.3, 1.45, 1.5, 1.52, 1.8, 2.0])

    def test_keeps_new_base_edges_in_order(self):
        # base lists come unsorted and may repeat an edge
        new = [2.0, 1.0, 1.62, 1.62]
        got = map_partition(self.PART, [2.0, 1.5, 1.0], new)
        assert got.dtype == np.float64 and got.size == self.PART.size
        assert set(new) <= set(got.tolist())
        assert got[0] == 1.0 and got[-1] == 2.0 and np.all(np.diff(got) > 0.0)

    def test_same_base_returns_the_partition(self):
        assert np.array_equal(map_partition(self.PART, self.BASE, self.BASE),
                              self.PART)

    def test_grading_moves_with_the_breakpoint(self):
        widths = 10.0 ** -np.arange(3, 13)
        part = np.sort(np.concatenate([self.BASE, 1.5 - widths, 1.5 + widths]))
        got = map_partition(part, self.BASE, [1.0, 1.6, 2.0])
        below = np.sort(1.6 - got[(got > 1.0) & (got < 1.6)])
        above = np.sort(got[(got > 1.6) & (got < 2.0)] - 1.6)
        # each side keeps its widths relative to its own base interval
        np.testing.assert_allclose(below, np.sort(widths) * 0.6 / 0.5, rtol=1e-3)
        np.testing.assert_allclose(above, np.sort(widths) * 0.4 / 0.5, rtol=1e-3)

    def test_breakpoint_count_change_starts_cold(self):
        assert map_partition(self.PART, self.BASE, [1.0, 2.0]) is None
        assert map_partition(self.PART, self.BASE, [1.0, 1.2, 1.7, 2.0]) is None

    @given(zeta=st.floats(1.2, 5.0), t=st.sampled_from([0.0, 0.05]),
           omega=st.floats(0.02, 0.3), u=st.floats(0.01, 1.0),
           step=st.floats(-1.0, 1.0), tol=st.sampled_from([1e-4, 1e-9]))
    @settings(max_examples=30, deadline=None)
    def test_seeded_integral_agrees_with_cold(self, zeta, t, omega, u, step, tol):
        # a neighbour's partition one scan stride away or nearer, as the
        # dispersion scan uses it
        state = ThermoState(t=t, zeta=zeta)
        q_max = 10.0 * omega + 10.0 * math.sqrt(thomas_fermi_mass2(state, tol=tol))
        q0 = max(0.01, u * q_max)
        q1 = q0 + step * SEED_STRIDE * q_max / 512
        assume(q1 >= 0.01 and min(abs(q0 - omega), abs(q1 - omega)) > 1e-3)
        k0, k1 = make_kinematics(omega, q0), make_kinematics(omega, q1)
        base0, base1 = _medium_edges(k0, state, tol), _medium_edges(k1, state, tol)

        def rows(kin):
            return lambda x, owner: _medium_bracket(x, kin.a, kin.b, state)

        first = lockstep_panels(rows(k0), [base0], tol=tol)[0]
        assume(isinstance(first, IntegralResult))
        seeded = map_partition(first.edges, base0, base1)
        assume(seeded is not None)
        warm, cold = lockstep_panels(rows(k1), [seeded, base1], tol=tol)
        assume(isinstance(cold, IntegralResult))
        assert isinstance(warm, IntegralResult) and warm.converged
        assert np.all(np.abs(warm.value - cold.value) <= warm.errEst + cold.errEst)


class TestLocateLogSingularities:
    def test_stationary_case(self):
        # a=0: only the first log family has a root, at sqrt(1+b^2)
        bp = locate_log_singularities(make_kinematics(0.0, 1.0))
        assert len(bp.points) == 1
        assert bp.points[0] == pytest.approx(math.sqrt(1.25), rel=1e-14)

    def test_window_excludes_far_roots(self):
        bp = locate_log_singularities(make_kinematics(10.0, 0.02), x_max=2.0)
        assert bp.points == ()

    def test_light_cone_adjacent(self):
        # a=b: first family positive definite, second has the single root (1+a^2)/2a
        kin = make_kinematics(0.6, 0.6)
        bp = locate_log_singularities(kin)
        assert len(bp.points) == 1
        assert bp.points[0] == pytest.approx((1 + 0.09) / 0.6, rel=1e-14)

    def test_all_roots_are_genuine(self):
        kin = make_kinematics(0.2, 1.2)
        a, b = kin.a, kin.b
        bp = locate_log_singularities(kin)
        assert bp.points == tuple(sorted(bp.points))
        for x in bp.points:
            s = math.sqrt(x * x - 1)
            args = [al * x + be * s + g
                    for g in (a * a - b * b, a * a)
                    for al in (a, -a) for be in (b, -b)]
            assert min(abs(v) for v in args) < 1e-10

    def test_damped_point_has_four_breaks(self):
        # this kinematic point puts four log zeros inside [1, 2]
        bp = locate_log_singularities(make_kinematics(0.2, 1.2), x_max=2.0)
        assert len(bp.points) == 4

    def test_requires_nonzero_wavevector(self):
        with pytest.raises(ValueError):
            locate_log_singularities(make_kinematics(0.5, 0.0))


class TestBreakpoints:
    def test_sorted_invariant(self):
        with pytest.raises(ValueError):
            Breakpoints((2.0, 1.5))

    def test_below_domain_rejected(self):
        with pytest.raises(ValueError):
            Breakpoints((0.5,))
