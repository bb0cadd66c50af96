import math

import numpy as np
import pytest
from scipy.integrate import quad

from relplasma.core import E2_DEFAULT, Regime, ThermoState, make_kinematics
from relplasma.quadrature import NonConvergence
from relplasma.scalar_functions import (
    LightConeSingular,
    _f1_values,
    _f2_values,
    drude_scalars,
    longwave_A,
    longwave_B,
    medium_B_full,
    medium_D_full,
    moment_integrals,
    scalar_triple,
    scalar_triples,
    select_regime,
    sigma_helper,
    stationary_scalars,
    vacuum_C,
    vacuum_C_ratio,
)

E2 = E2_DEFAULT
PI2 = math.pi**2
COLD2 = ThermoState(t=0.0, zeta=2.0)


def spectral_vacuum_C(q2, e2):
    """Once-subtracted dispersion integral over the pair continuum, s >= 4."""
    def density(s):
        return (e2 / (12 * math.pi)) * (1 + 2 / s) * math.sqrt(1 - 4 / s)
    val, err = quad(lambda s: density(s) / (s * (s - q2)), 4.0, np.inf,
                    limit=400, epsabs=1e-15, epsrel=1e-13)
    return (q2 / math.pi) * val


class TestVacuumC:
    def test_zero_at_zero(self):
        assert vacuum_C(0.0, E2) == 0.0

    def test_leading_series_at_small_argument(self):
        got = vacuum_C(1e-3, E2)
        assert got * 60 * PI2 / (E2 * 1e-3) == pytest.approx(1.0, abs=0.01)

    def test_next_order_at_moderate_argument(self):
        lead = E2 * 0.4 / (60 * PI2)
        assert vacuum_C(0.4, E2) == pytest.approx(lead, rel=0.12)

    def test_spacelike_frozen_value(self):
        assert vacuum_C(-1.0, E2) == pytest.approx(-1.4040380221e-4, rel=1e-8)

    def test_spacelike_matches_spectral_oracle(self):
        got = vacuum_C(-1.0, E2)
        assert abs(got - spectral_vacuum_C(-1.0, E2)) < 1e-6 * abs(got)

    def test_spectral_oracle_at_second_point(self):
        got = vacuum_C(-0.3, E2)
        assert abs(got - spectral_vacuum_C(-0.3, E2)) < 1e-6 * abs(got)

    def test_series_and_closed_form_join_smoothly(self):
        below, above = vacuum_C(9.9e-5, E2), vacuum_C(1.1e-4, E2)
        assert below / 9.9e-5 == pytest.approx(above / 1.1e-4, rel=1e-5)

    def test_ratio_finite_through_zero(self):
        assert vacuum_C_ratio(0.0, E2) == pytest.approx(E2 / (60 * PI2), rel=1e-12)
        assert vacuum_C_ratio(-2.0, E2) == pytest.approx(vacuum_C(-2.0, E2) / -2.0, rel=1e-12)

    def test_refuses_pair_threshold(self):
        with pytest.raises(ValueError):
            vacuum_C(4.0, E2)
        with pytest.raises(ValueError):
            vacuum_C(5.0, E2)

    def test_scales_linearly_in_coupling(self):
        assert vacuum_C(-0.5, 2 * E2) == pytest.approx(2 * vacuum_C(-0.5, E2), rel=1e-14)


def f1_at(x, kin):
    x = np.array([x], dtype=float)
    return _f1_values(x, np.sqrt(x * x - 1.0), kin.a, kin.b)[0]


def full_a_star(kin, state, tol):
    return scalar_triple(kin, state, regime=Regime.FullKinematics, tol=tol).aStar


class TestLogKernels:
    def test_f2_vanishes_at_zero_frequency(self):
        kin = make_kinematics(0.0, 1.0)
        x = np.array([1.1, 1.7, 3.0])
        assert np.all(_f2_values(x, np.sqrt(x * x - 1), kin.a, kin.b) == 0.0)

    def test_f1_matches_direct_term_sum(self):
        kin = make_kinematics(2.0, 1.0)  # a=1, b=0.5
        a, b, x = kin.a, kin.b, 2.0
        s = math.sqrt(x * x - 1)
        g = a * a - b * b
        direct = (-math.log(abs(a * x + b * s + g))
                  - math.log(abs(-a * x + b * s + g))
                  + math.log(abs(a * x - b * s + g))
                  + math.log(abs(-a * x - b * s + g)))
        assert f1_at(x, kin) == pytest.approx(direct, rel=1e-14)

    def test_f1_small_wavevector_leading_order(self):
        a, x = 0.3, 1.7
        b = 1e-6
        kin = make_kinematics(2 * a, 2 * b)
        s = math.sqrt(x * x - 1)
        lead = 4 * b * s / (x * x - a * a)
        assert f1_at(x, kin) == pytest.approx(lead, rel=1e-8)


class TestMomentIntegrals:
    def test_empty_sea(self):
        mi = moment_integrals(0.3, ThermoState(t=0.0, zeta=1.0))
        assert (mi.i0, mi.i1, mi.i2) == (0.0, 0.0, 0.0)

    def test_closed_forms_at_zeta_two(self):
        mi = moment_integrals(0.0, COLD2)
        pf = math.sqrt(3.0)
        assert mi.i0 == pytest.approx(0.5 * (2 * pf - math.log(2 + pf)), rel=1e-13)
        assert mi.i1 == pytest.approx(math.acosh(2.0) - pf / 2, rel=1e-13)
        assert mi.i2 == pytest.approx(pf**3 / 24, rel=1e-13)  # 1/(3*sigma_zeta^3)

    def test_frozen_values_with_screening_shift(self):
        mi = moment_integrals(0.01, COLD2)
        assert mi.i1 == pytest.approx(0.453109538851, rel=1e-9)
        assert mi.i2 == pytest.approx(0.218910277334, rel=1e-9)
        mi5 = moment_integrals(0.5, COLD2)
        assert mi5.i1 == pytest.approx(0.603233517980, rel=1e-9)
        assert mi5.i2 == pytest.approx(0.437705439279, rel=1e-9)

    def test_dual_route_agreement(self):
        closed = moment_integrals(0.01, COLD2, method="closed")
        numeric = moment_integrals(0.01, COLD2, method="quadrature")
        for name in ("i0", "i1", "i2"):
            assert getattr(numeric, name) == pytest.approx(getattr(closed, name), rel=1e-8)

    def test_derivative_identity(self):
        h = 1e-4
        i2 = moment_integrals(0.01, COLD2).i2
        fd = (moment_integrals(0.01 + h, COLD2).i1
              - moment_integrals(0.01 - h, COLD2).i1) / (2 * h)
        assert i2 == pytest.approx(fd, rel=1e-5)

    def test_warm_route_runs(self):
        warm = ThermoState(t=0.2, zeta=1.5)
        mi = moment_integrals(0.04, warm)
        assert mi.i0 > 0 and mi.i1 > 0 and mi.i2 > 0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            moment_integrals(1.0, COLD2)
        with pytest.raises(ValueError):
            moment_integrals(-0.1, COLD2)

    def test_sigma_helper(self):
        assert sigma_helper(2.0) == pytest.approx(2 / math.sqrt(3), rel=1e-15)
        assert sigma_helper(0.1) == pytest.approx(0.1 / math.sqrt(0.99), rel=1e-15)


class TestMediumFullKinematics:
    def test_empty_sea_all_zero(self):
        kin = make_kinematics(0.2, 1.2)
        empty = ThermoState(t=0.0, zeta=1.0)
        assert medium_B_full(kin, empty).value == 0.0
        assert medium_D_full(kin, empty).value == 0.0
        assert full_a_star(kin, empty, tol=1e-9) == 0.0

    def test_damped_point_frozen_values(self):
        # four log zeros sit inside the Fermi sea at this point
        kin = make_kinematics(0.2, 1.2)
        assert medium_B_full(kin, COLD2, tol=1e-12).value == pytest.approx(
            1.940494251631e-2, rel=1e-9)
        assert medium_D_full(kin, COLD2, tol=1e-12).value == pytest.approx(
            8.281699349846e-3, rel=1e-9)
        assert full_a_star(kin, COLD2, tol=1e-12) == pytest.approx(
            -6.122326367983e-4, rel=1e-6)

    def test_static_limit_frozen_value(self):
        kin = make_kinematics(0.0, 2e-3)
        got = full_a_star(kin, COLD2, tol=1e-12)
        assert got == pytest.approx(-2.0399053246e-3, rel=1e-7)
        closed = -(E2 / (6 * PI2)) * math.acosh(2.0)
        assert got == pytest.approx(closed, rel=1e-3)

    def test_transverse_matches_longwave_at_small_b(self):
        a, b = 0.1, 1e-4
        kin = make_kinematics(2 * a, 2 * b)
        scaled = medium_B_full(kin, COLD2, tol=1e-12).value * (a * a) / (b * b)
        assert scaled == pytest.approx(longwave_B(a, COLD2), rel=1e-4)

    def test_longitudinal_matches_longwave_at_small_b(self):
        a, b = 0.1, 1e-4
        kin = make_kinematics(2 * a, 2 * b)
        # the longitudinal combination amplifies the transverse error by
        # ~(a/b)^2 here, so the closed-form limit is the sharper oracle
        got = full_a_star(kin, COLD2, tol=1e-12)
        assert got == pytest.approx(longwave_A(a, COLD2), rel=1e-4)

    def test_light_cone_guard(self):
        with pytest.raises(LightConeSingular):
            medium_B_full(make_kinematics(1.0, 1.0), COLD2)

    def test_requires_positive_wavevector(self):
        with pytest.raises(ValueError):
            medium_B_full(make_kinematics(0.4, 0.0), COLD2)


class TestStationary:
    def test_empty_sea(self):
        res = stationary_scalars(0.5, ThermoState(t=0.0, zeta=1.0))
        assert res.aStar == 0.0 and res.bStar == 0.0

    def test_closed_forms_at_zeta_two(self):
        res = stationary_scalars(0.1, COLD2)
        assert res.aStar == pytest.approx(-(E2 / (6 * PI2)) * math.acosh(2.0), rel=1e-13)
        mtf2 = (E2 / (4 * PI2)) * (math.acosh(2.0) + 6 * math.sqrt(3.0))
        assert res.bStar == pytest.approx(mtf2 / 0.01, rel=1e-13)

    def test_quadrature_route_matches_closed(self):
        closed = stationary_scalars(2e-4, COLD2, method="closed")
        numeric = stationary_scalars(2e-4, COLD2, method="quadrature", tol=1e-12)
        assert numeric.aStar == pytest.approx(closed.aStar, abs=1e-10)
        assert numeric.bStar == pytest.approx(closed.bStar, rel=1e-8)

    def test_warm_continuity(self):
        cold = stationary_scalars(0.1, COLD2)
        warm = stationary_scalars(0.1, ThermoState(t=0.01, zeta=2.0))
        assert warm.aStar == pytest.approx(cold.aStar, rel=5e-3)
        assert warm.bStar == pytest.approx(cold.bStar, rel=5e-3)

    def test_requires_positive_wavevector(self):
        with pytest.raises(ValueError):
            stationary_scalars(0.0, COLD2)


class TestLongwave:
    def test_empty_sea(self):
        empty = ThermoState(t=0.0, zeta=1.0)
        assert longwave_B(0.1, empty) == 0.0
        assert longwave_A(0.1, empty) == 0.0

    def test_frozen_values(self):
        assert longwave_B(0.1, COLD2) == pytest.approx(0.2063167957, rel=1e-8)
        assert longwave_A(0.1, COLD2) == pytest.approx(6.3471266626e-3, rel=1e-8)

    def test_composition_from_moment_integrals(self):
        a = 0.1
        mi = moment_integrals(a * a, COLD2)
        w = (E2 / (4 * PI2)) * ((2 / (3 * a * a)) * mi.i0
                                + ((1 + 14 * a * a) / (3 * a * a)) * mi.i1
                                + 4 * a * a * mi.i2)
        assert longwave_B(a, COLD2) == pytest.approx(w, rel=1e-13)
        amp = (3 * E2 / (2 * PI2)) * (mi.i1 + a * a * mi.i2)
        assert longwave_A(a, COLD2) == pytest.approx(amp, rel=1e-13)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                longwave_B(bad, COLD2)


class TestDrude:
    def test_plasma_coefficient_closed_form(self):
        d = drude_scalars(0.01, COLD2)
        assert d.ae2 == pytest.approx((E2 / (12 * PI2)) * 3 * math.sqrt(3.0) / 2, rel=1e-14)
        assert d.am2 == 2.0 * d.ae2

    def test_vanishing_sea(self):
        d = drude_scalars(0.01, ThermoState(t=0.0, zeta=1.0 + 1e-9))
        assert d.ae2 == pytest.approx(0.0, abs=1e-12)

    def test_negative_window_values(self):
        ae = math.sqrt(drude_scalars(0.01, COLD2).ae2)
        d = drude_scalars(0.5 * ae, COLD2)
        assert -3.01 < d.epsDrude < -2.99
        assert -7.01 < d.muInvDrude < -6.99

    def test_g_terms_frozen(self):
        d = drude_scalars(0.01, COLD2)
        assert d.ge == pytest.approx(0.3968059, rel=1e-6)
        assert d.gm == pytest.approx(0.4942338, rel=1e-6)

    def test_rejects_warm_or_empty(self):
        with pytest.raises(ValueError):
            drude_scalars(0.01, ThermoState(t=0.1, zeta=2.0))
        with pytest.raises(ValueError):
            drude_scalars(0.01, ThermoState(t=0.0, zeta=0.9))


class TestRegimeSelection:
    def test_static_routes_stationary(self):
        assert select_regime(make_kinematics(0.0, 0.3), COLD2) is Regime.Stationary

    def test_empty_sea_routes_vacuum(self):
        state = ThermoState(t=0.0, zeta=0.5)
        assert select_regime(make_kinematics(0.5, 0.3), state) is Regime.Vacuum

    def test_small_b_routes_longwave(self):
        assert select_regime(make_kinematics(0.2, 1e-4), COLD2) is Regime.LongWavelength

    def test_generic_routes_full(self):
        assert select_regime(make_kinematics(0.2, 1.2), COLD2) is Regime.FullKinematics

    def test_large_a_stays_full(self):
        assert select_regime(make_kinematics(1.9, 1e-4), COLD2) is Regime.FullKinematics


class TestScalarTriple:
    def test_stationary_point(self):
        tr = scalar_triple(make_kinematics(0.0, 0.1), COLD2)
        assert tr.regime is Regime.Stationary
        assert tr.aStar == pytest.approx(-(E2 / (6 * PI2)) * math.acosh(2.0), rel=1e-12)
        # dStar definition holds: ratio qm2/qmag^2 = -1 at omega = 0
        assert tr.dStar == pytest.approx(tr.aStar - (1 - 1.5) * tr.bStar, rel=1e-12)

    def test_full_point_satisfies_dstar_definition(self):
        kin = make_kinematics(0.2, 1.2)
        tr = scalar_triple(kin, COLD2)
        factor = 1 + 1.5 * kin.qm2 / kin.qmag**2
        assert tr.dStar == pytest.approx(tr.aStar - factor * tr.bStar, rel=1e-10)
        assert tr.regime is Regime.FullKinematics

    def test_longwave_point_stores_rescaled_transverse(self):
        kin = make_kinematics(0.2, 2e-4)
        tr = scalar_triple(kin, COLD2)
        assert tr.regime is Regime.LongWavelength
        assert tr.longwaveW == pytest.approx(longwave_B(0.1, COLD2), rel=1e-13)
        assert tr.bStar == pytest.approx(tr.longwaveW * (1e-4 / 0.1)**2, rel=1e-13)

    def test_vacuum_point(self):
        tr = scalar_triple(make_kinematics(0.5, 0.3), ThermoState(t=0.0, zeta=1.0))
        assert tr.regime is Regime.Vacuum
        assert tr.aStar == tr.bStar == tr.dStar == 0.0
        assert tr.cStar == pytest.approx(vacuum_C(0.16, E2), rel=1e-14)

    def test_light_cone_raises_in_full(self):
        with pytest.raises(LightConeSingular):
            scalar_triple(make_kinematics(1.0, 1.0), COLD2)

    def test_forced_regime_override(self):
        kin = make_kinematics(0.2, 2e-4)
        tr = scalar_triple(kin, COLD2, regime=Regime.FullKinematics, tol=1e-12)
        assert tr.regime is Regime.FullKinematics
        lw = scalar_triple(kin, COLD2)
        assert tr.aStar == pytest.approx(lw.aStar, rel=1e-3)


class TestScalarTriples:
    FIELDS = ("aStar", "bStar", "cStar", "dStar", "errEst", "cStarRatio")

    def test_grid_matches_point_by_point(self):
        # full kinematics at t = 0 and t > 0 on both sides of the light cone,
        # a long-wave point, a light-cone point and one above the pair threshold
        warm = ThermoState(t=0.05, zeta=1.5)
        points = [(0.1, 0.02), (0.1, 0.3), (0.2, 1.2), (0.1, 2e-4), (0.3, 0.3),
                  (2.5, 0.1), (1.0, 0.4), (0.05, 1.9)]
        for state in (COLD2, warm):
            kins = [make_kinematics(w, q) for w, q in points]
            grid = scalar_triples(kins, state)
            assert len(grid) == len(kins)
            for kin, got in zip(kins, grid):
                try:
                    want = scalar_triple(kin, state)
                except ValueError as exc:
                    assert type(got) is type(exc) and str(got) == str(exc)
                    continue
                assert got.regime is want.regime
                for name in self.FIELDS:
                    assert getattr(got, name) == pytest.approx(
                        getattr(want, name), rel=1e-13, abs=0.0), name
            assert isinstance(grid[4], LightConeSingular)
            assert type(grid[5]) is ValueError
            assert grid[3].regime is Regime.LongWavelength

    def test_unseeded_grid_is_bit_identical(self):
        warm = ThermoState(t=0.05, zeta=1.5)
        points = [(0.1, 0.02), (0.1, 0.3), (0.2, 1.2), (0.07, 0.3), (0.3, 0.05)]
        for state in (COLD2, warm):
            kins = [make_kinematics(w, q) for w, q in points]
            for kin, got in zip(kins, scalar_triples(kins, state)):
                want = scalar_triple(kin, state)
                assert got.regime is Regime.FullKinematics
                for name in self.FIELDS:
                    assert getattr(got, name) == getattr(want, name), name

    def test_seeds_hand_back_partitions(self):
        # a warm start from a neighbour 0.01 away in q; the long-wave point
        # and the light-cone point get no partition, the empty seed is cold
        kins = [make_kinematics(0.1, q) for q in (0.3, 0.31, 2e-4, 0.1, 0.5)]
        cold = scalar_triples(kins, COLD2)
        first, parts = scalar_triples(kins[:1], COLD2, seeds=[None])
        assert first[0] == cold[0]
        seeds = [None, parts[0], parts[0], None, None]
        grid, handed = scalar_triples(kins, COLD2, seeds=seeds)
        assert [h is None for h in handed] == [False, False, True, True, False]
        base, edges = handed[1]
        assert set(base) <= set(edges.tolist())
        assert grid[0] == cold[0] and isinstance(grid[3], LightConeSingular)
        warm, ref = grid[1], cold[1]
        assert warm.bStar != ref.bStar
        for name in ("aStar", "bStar", "dStar"):
            assert abs(getattr(warm, name) - getattr(ref, name)) <= \
                warm.errEst + ref.errEst

    def test_nonconvergence_comes_back_in_place(self):
        kins = [make_kinematics(0.2, 1.2), make_kinematics(0.1, 0.3)]
        grid = scalar_triples(kins, COLD2, tol=1e-300)
        for got in grid:
            assert isinstance(got, NonConvergence)
            assert not got.result.converged
