import math

import pytest

from relplasma.core import E2_DEFAULT, ThermoState
from relplasma.limits import (
    NRState,
    RootNotBracketed,
    lindhard_chi_e,
    nr_plasmon_omega2,
    pauli_landau,
    plasmon_frequency,
    thomas_fermi_mass2,
    thomas_fermi_mass2_nr,
)

E2 = E2_DEFAULT
PI2 = math.pi**2
COLD2 = ThermoState(t=0.0, zeta=2.0)


def static_factor(u):
    """Closed degenerate-gas screening shape versus u = qmag / (2 pF)."""
    if u == 1.0:
        return 0.5
    return 0.5 * (1 + ((1 - u * u) / (2 * u)) * math.log(abs((1 + u) / (1 - u))))


class TestNRState:
    def test_derived_fermi_momentum(self):
        nr = NRState(xiPrime=0.005, t=0.0)
        assert nr.pF == pytest.approx(0.1, rel=1e-15)

    def test_warns_outside_nr_window(self):
        with pytest.warns(UserWarning):
            NRState(xiPrime=0.2, t=0.0)
        with pytest.warns(UserWarning):
            NRState(xiPrime=0.005, t=0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            NRState(xiPrime=-0.1, t=0.0)


class TestLindhard:
    NR = NRState(xiPrime=0.005, t=0.0)

    def test_static_frozen_values(self):
        for u, frozen in ((0.4, 1.37203088e-1), (1.0, 1.16171491e-2), (1.6, 1.29404458e-3)):
            got = lindhard_chi_e(0.0, 2 * self.NR.pF * u, self.NR)
            assert got == pytest.approx(frozen, rel=1e-7)

    def test_static_closed_shape(self):
        for u in (0.3, 0.7, 1.0, 1.3, 2.5):
            q = 2 * self.NR.pF * u
            want = (thomas_fermi_mass2_nr(self.NR) / q**2) * static_factor(u)
            assert lindhard_chi_e(0.0, q, self.NR) == pytest.approx(want, rel=1e-7)

    def test_small_q_approaches_screening_mass(self):
        q = 2 * self.NR.pF * 0.005
        want = thomas_fermi_mass2_nr(self.NR) / q**2
        assert lindhard_chi_e(0.0, q, self.NR) == pytest.approx(want, rel=1e-4)

    def test_low_frequency_continuity(self):
        q = 2 * self.NR.pF * 0.7
        static = lindhard_chi_e(0.0, q, self.NR)
        slow = lindhard_chi_e(1e-5 * q, q, self.NR)
        assert slow == pytest.approx(static, rel=1e-2)

    def test_warm_occupation_softens_screening(self):
        warm = NRState(xiPrime=0.005, t=0.002)
        q = 2 * warm.pF * 0.9
        cold_val = lindhard_chi_e(0.0, q, self.NR)
        warm_val = lindhard_chi_e(0.0, q, warm)
        assert abs(warm_val / cold_val - 1) > 1e-3
        assert warm_val == pytest.approx(cold_val, rel=0.5)

    def test_requires_positive_wavevector(self):
        with pytest.raises(ValueError):
            lindhard_chi_e(0.0, 0.0, self.NR)


class TestCharacteristicScales:
    def test_nr_screening_mass(self):
        nr = NRState(xiPrime=0.005, t=0.0)
        assert thomas_fermi_mass2_nr(nr) == pytest.approx((E2 / PI2) * 0.1, rel=1e-14)

    def test_relativistic_screening_mass_frozen(self):
        assert thomas_fermi_mass2(COLD2) == pytest.approx(2.7205650e-2, rel=1e-6)

    def test_screening_masses_join_at_low_density(self):
        pf = 0.05
        rel = thomas_fermi_mass2(ThermoState(t=0.0, zeta=math.sqrt(1 + pf * pf)))
        nr = thomas_fermi_mass2_nr(NRState(xiPrime=0.5 * pf * pf, t=0.0))
        assert rel == pytest.approx(nr, rel=5e-3)

    def test_warm_screening_mass_continuity(self):
        warm = thomas_fermi_mass2(ThermoState(t=0.01, zeta=2.0))
        assert warm == pytest.approx(thomas_fermi_mass2(COLD2), rel=5e-3)

    def test_plasmon_frequencies_join_at_low_density(self):
        pf = 0.05
        nr2 = nr_plasmon_omega2(NRState(xiPrime=0.5 * pf * pf, t=0.0))
        assert nr2 > 0
        state = ThermoState(t=0.0, zeta=math.sqrt(1 + pf * pf))
        omega_e, _ = plasmon_frequency(state)
        assert omega_e**2 == pytest.approx(nr2, rel=5e-3)

    def test_pauli_landau_ratio(self):
        for xi in (5e-5, 1.25e-3, 7.62078938e-3):
            chi_p, chi_l = pauli_landau(NRState(xiPrime=xi, t=0.0))
            assert chi_p == pytest.approx((E2 / (4 * PI2)) * math.sqrt(2 * xi), rel=1e-14)
            assert chi_p / chi_l == -3.0


class TestPlasmonFrequency:
    def test_frozen_values(self):
        omega_e, omega_m = plasmon_frequency(COLD2)
        assert omega_e == pytest.approx(8.9713973346e-2, rel=1e-8)
        assert omega_m == pytest.approx(8.9658684255e-2, rel=1e-8)
        assert omega_e > omega_m

    def test_characteristic_scale_closed_form(self):
        omega_e, _ = plasmon_frequency(COLD2)
        ae2 = (E2 / (12 * PI2)) * 3 * math.sqrt(3.0) / 2
        assert omega_e == pytest.approx(2 * math.sqrt(ae2), rel=1e-12)

    def test_corrected_root_is_genuine(self):
        from relplasma.core import make_kinematics
        from relplasma.response import evaluate_point
        _, omega_root = plasmon_frequency(COLD2)
        _, r = evaluate_point(make_kinematics(omega_root, 0.0), COLD2)
        assert abs(r.eps) < 1e-10

    def test_warm_state_shifts_slightly(self):
        omega_e, _ = plasmon_frequency(ThermoState(t=0.01, zeta=2.0))
        assert omega_e == pytest.approx(8.9713973346e-2, rel=1e-2)

    def test_empty_sea_has_no_root(self):
        with pytest.raises(RootNotBracketed):
            plasmon_frequency(ThermoState(t=0.0, zeta=1.0))

    def test_hot_bracket_stops_below_pair_threshold(self):
        # here 2 omegaE is above the pair threshold omega = 2, where the q = 0
        # responses stop being real; the permittivity zero lies well below it
        from relplasma.core import make_kinematics
        from relplasma.response import evaluate_point
        hot = ThermoState(t=10.0, zeta=0.0)
        omega_e, omega_root = plasmon_frequency(hot)
        assert 2.0 * omega_e > 2.0
        assert 0.5 * omega_e < omega_root < 1.5
        _, r = evaluate_point(make_kinematics(omega_root, 0.0), hot)
        assert abs(r.eps) < 1e-10

    def test_bracket_above_pair_threshold_is_typed(self):
        with pytest.raises(RootNotBracketed):
            plasmon_frequency(ThermoState(t=100.0, zeta=0.0))
