import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relplasma.core import (
    E2_DEFAULT,
    Regime,
    ResponseSet,
    ThermoState,
    make_kinematics,
)
from relplasma.response import (
    assemble_responses,
    constitutive_tensors,
    evaluate_point,
    susceptibilities,
)
from relplasma.scalar_functions import drude_scalars, scalar_triple

E2 = E2_DEFAULT
PI2 = math.pi**2
COLD2 = ThermoState(t=0.0, zeta=2.0)


class TestAssemble:
    def test_vacuum_point_fields(self):
        kin = make_kinematics(0.5, 0.3)
        tr = scalar_triple(kin, ThermoState(t=0.0, zeta=1.0))
        r = assemble_responses(tr, kin)
        c, ratio = tr.cStar, tr.cStarRatio
        assert r.eps == pytest.approx(1 + 2 * c - 0.25 * ratio, rel=1e-13)
        assert r.muInv == pytest.approx(1 + 2 * c + 0.09 * ratio, rel=1e-13)
        assert r.epsPrime == pytest.approx(0.09 * ratio, rel=1e-13)
        assert r.muPrimeInv == -r.epsPrime
        assert r.sigma == r.tau

    def test_static_identities(self):
        kin = make_kinematics(0.0, 0.1)
        tr = scalar_triple(kin, COLD2)
        r = assemble_responses(tr, kin)
        assert r.tau == 0.0
        assert r.eps == pytest.approx(1 + 2 * tr.cStar + tr.aStar + tr.bStar, rel=1e-12)
        assert r.muInv == pytest.approx(
            1 + 2 * tr.cStar + 0.01 * tr.cStarRatio + tr.aStar, rel=1e-12)

    def test_zero_wavevector_finite(self):
        kin = make_kinematics(0.1, 0.0)
        tr = scalar_triple(kin, COLD2)
        r = assemble_responses(tr, kin)
        assert all(map(math.isfinite, (r.eps, r.muInv, r.epsPrime, r.tau)))
        assert r.tau == 0.0

    def test_drude_window_matches_low_frequency_forms(self):
        ae2 = (E2 / (12 * PI2)) * 3 * math.sqrt(3.0) / 2
        a = 0.5 * math.sqrt(ae2)
        kin = make_kinematics(2 * a, 0.0)
        tr = scalar_triple(kin, COLD2)
        assert tr.regime is Regime.LongWavelength
        r = assemble_responses(tr, kin)
        d = drude_scalars(a, COLD2)
        assert r.eps == pytest.approx(d.epsDrude, abs=1e-4)
        assert r.muInv == pytest.approx(d.muInvDrude, abs=1e-4)
        assert r.eps == pytest.approx(-2.998770, abs=5e-5)
        assert r.muInv == pytest.approx(-7.003829, abs=5e-5)

    def test_longwave_and_full_routes_agree(self):
        kin = make_kinematics(0.6, 1.8e-3)
        lw = assemble_responses(scalar_triple(kin, COLD2), kin)
        fu = assemble_responses(
            scalar_triple(kin, COLD2, regime=Regime.FullKinematics, tol=1e-12), kin)
        assert fu.eps == pytest.approx(lw.eps, abs=1e-4)
        assert fu.muInv == pytest.approx(lw.muInv, abs=1e-4)
        assert fu.epsPrime == pytest.approx(lw.epsPrime, abs=1e-4)
        assert fu.tau == pytest.approx(lw.tau, abs=1e-6)

    def test_timelike_generic_point_runs(self):
        kin = make_kinematics(0.2, 1.2)
        r = assemble_responses(scalar_triple(kin, COLD2), kin)
        assert all(map(math.isfinite, (r.eps, r.muInv, r.epsPrime, r.tau)))


class TestSusceptibilities:
    def test_identical_sets_give_zero(self):
        kin = make_kinematics(0.3, 0.2)
        tr = scalar_triple(kin, ThermoState(t=0.0, zeta=1.0))
        r = assemble_responses(tr, kin)
        chi = susceptibilities(r, r)
        assert (chi.chiE, chi.chiEPrime, chi.chiEM) == (0.0, 0.0, 0.0)
        assert (chi.chiM, chi.chiMPrime, chi.chiME) == (0.0, 0.0, 0.0)

    def test_static_matter_content(self):
        kin = make_kinematics(0.0, 0.1)
        tr, full = evaluate_point(kin, COLD2)
        chi = susceptibilities(full, full.vacuum)
        assert chi.chiE == pytest.approx(tr.aStar + tr.bStar, rel=1e-10)
        assert chi.chiEPrime == pytest.approx(-tr.aStar, rel=1e-10)

    def test_sign_conventions(self):
        kin = make_kinematics(0.2, 1.2)
        _, full = evaluate_point(kin, COLD2)
        chi = susceptibilities(full, full.vacuum)
        vac = full.vacuum
        assert chi.chiM == -(full.muInv - vac.muInv)
        assert chi.chiMPrime == -(full.muPrimeInv - vac.muPrimeInv)
        assert chi.chiME == -(full.sigma - vac.sigma)
        assert chi.chiEM == full.tau - vac.tau


class TestEvaluatePoint:
    def test_attaches_vacuum_baseline(self):
        kin = make_kinematics(0.2, 1.2)
        tr, full = evaluate_point(kin, COLD2)
        assert isinstance(full.vacuum, ResponseSet)
        assert full.vacuum.vacuum is None
        # same subtraction term, no matter contribution
        assert full.vacuum.epsPrime == pytest.approx(1.44 * tr.cStarRatio, rel=1e-13)

    def test_regime_forwarding(self):
        kin = make_kinematics(0.2, 2e-4)
        tr, _ = evaluate_point(kin, COLD2, regime=Regime.FullKinematics, tol=1e-11)
        assert tr.regime is Regime.FullKinematics


class TestConstitutiveTensors:
    def test_axis_aligned_structure(self):
        r = ResponseSet(eps=2.0, muInv=3.0, epsPrime=0.5, muPrimeInv=-0.5,
                        tau=0.25, sigma=0.25)
        ct = constitutive_tensors(r, np.array([0.0, 0.0, 2.0]))
        assert np.allclose(ct.qhat, [0, 0, 1])
        assert np.allclose(ct.epsT, np.diag([2.0, 2.0, 2.5]))
        assert np.allclose(ct.muInvT, np.diag([3.0, 3.0, 2.5]))
        expected_tau = 0.25 * np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        assert np.allclose(ct.tauT, expected_tau)
        assert np.allclose(ct.sigmaT, expected_tau)

    def test_general_direction_symmetries(self):
        r = ResponseSet(eps=1.5, muInv=0.8, epsPrime=-0.3, muPrimeInv=0.3,
                        tau=0.1, sigma=0.1)
        ct = constitutive_tensors(r, np.array([1.0, 1.0, 1.0]))
        assert np.allclose(ct.epsT, ct.epsT.T)
        assert np.allclose(ct.tauT, -ct.tauT.T)
        assert np.allclose(ct.epsT @ ct.qhat, (r.eps + r.epsPrime) * ct.qhat)
        assert np.allclose(ct.tauT @ ct.qhat, 0.0)

    def test_rejects_zero_direction(self):
        r = ResponseSet(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            constitutive_tensors(r, np.zeros(3))


class TestLongwaveErrorBudget:
    @given(zeta=st.floats(1.2, 5.0), t=st.sampled_from((0.0, 0.01)),
           log_a=st.floats(math.log10(2.5e-3), math.log10(0.25)),
           log_b=st.floats(-4.0, -3.0, exclude_max=True))
    @settings(max_examples=60, deadline=None)
    def test_auto_route_within_reported_error(self, zeta, t, log_a, log_b):
        # a/b stays below 2500: further out the forced full route loses more
        # digits of aStar to the longitudinal cancellation than it reports
        state = ThermoState(t=t, zeta=zeta)
        kin = make_kinematics(2 * 10**log_a, 2 * 10**log_b)
        auto = scalar_triple(kin, state)
        assert auto.regime is Regime.LongWavelength
        full = scalar_triple(kin, state, regime=Regime.FullKinematics, tol=1e-11)
        got, ref = assemble_responses(auto, kin), assemble_responses(full, kin)
        pairs = {name: (getattr(auto, name), getattr(full, name))
                 for name in ("aStar", "bStar", "dStar")}
        pairs.update(eps=(got.eps, ref.eps), muInv=(got.muInv, ref.muInv))
        for name, (g, r) in pairs.items():
            allowance = auto.errEst + full.errEst + 1e-7 + 1e-7 * abs(r)
            assert abs(g - r) <= allowance, name
