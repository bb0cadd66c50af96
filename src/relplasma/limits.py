"""Nonrelativistic reductions and characteristic scales.

Cross-checks live here: the degenerate-gas density response in its textbook
log form, static screening masses on both sides of the relativistic divide,
the plasma frequency pair, and the spin/orbital magnetic responses whose
ratio is exactly -3.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .core import E2_DEFAULT, Regime, ThermoState, make_kinematics
from .quadrature import DEFAULT_TOL
from .response import assemble_responses
from .roots import brentq
from .scalar_functions import moment_integrals, scalar_triple, stationary_scalars

_PI2 = math.pi**2

# quasiparticle energies p^2/2 only hold well below these scales
NR_WINDOW = 0.1

# the q = 0 responses are real only below the pair threshold omega = 2; the
# permittivity bracket stops this far short of it
OMEGA_Q0_MAX = 2.0 - 1e-6


class RootNotBracketed(RuntimeError):
    """The collective-mode bracket does not contain a sign change."""


@dataclass(frozen=True)
class NRState:
    """Degenerate-gas state in nonrelativistic units.

    xiPrime is the kinetic chemical potential; pF = sqrt(2 xiPrime) follows
    from it.  Construction warns when the state leaves the window where the
    nonrelativistic forms are trustworthy.
    """

    xiPrime: float
    t: float
    e2: float = E2_DEFAULT
    pF: float = field(init=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.xiPrime) and self.xiPrime >= 0.0):
            raise ValueError("xiPrime must be finite and nonnegative")
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise ValueError("t must be finite and nonnegative")
        if self.e2 <= 0.0:
            raise ValueError("e2 must be positive")
        object.__setattr__(self, "pF", math.sqrt(2.0 * self.xiPrime))
        if self.xiPrime > NR_WINDOW or self.t > NR_WINDOW:
            warnings.warn(
                "state sits outside the nonrelativistic window; "
                "reduced forms lose accuracy", UserWarning, stacklevel=2)


def _nr_occupation(p: float, nr: NRState) -> float:
    kin = 0.5 * p * p - nr.xiPrime
    if nr.t == 0.0:
        if kin < 0.0:
            return 1.0
        return 0.5 if kin == 0.0 else 0.0
    u = kin / nr.t
    if u >= 0.0:
        eu = math.exp(-u)
        return eu / (1.0 + eu)
    return 1.0 / (1.0 + math.exp(u))


def lindhard_chi_e(omega: float, qmag: float, nr: NRState) -> float:
    """Electric susceptibility of the nonrelativistic gas in log form.

    Static screening for omega = 0; small real frequencies are allowed since
    the log representation stays integrable.
    """
    # imported here so that importing relplasma does not load scipy
    from scipy.integrate import quad

    if qmag <= 0.0:
        raise ValueError("lindhard_chi_e requires qmag > 0")
    if omega < 0.0:
        raise ValueError("omega must be nonnegative")
    q_plus = 0.5 * qmag + omega / qmag
    q_minus = 0.5 * qmag - omega / qmag

    if nr.t == 0.0:
        upper = nr.pF
    else:
        upper = math.sqrt(2.0 * (nr.xiPrime + 40.0 * nr.t))
    if upper == 0.0:
        return 0.0

    def integrand(p: float) -> float:
        occ = _nr_occupation(p, nr)
        if occ == 0.0:
            return 0.0
        acc = 0.0
        for qx in (q_plus, q_minus):
            acc += math.log(abs((p - qx) / (p + qx)))
        return p * occ * acc

    pts = sorted({abs(q) for q in (q_plus, q_minus) if 0.0 < abs(q) < upper})
    val, _ = quad(integrand, 0.0, upper, points=pts or None,
                  limit=800, epsabs=1e-16, epsrel=1e-12)
    return -(nr.e2 / (2.0 * _PI2 * qmag**3)) * val


def thomas_fermi_mass2(state: ThermoState, tol: float = DEFAULT_TOL) -> float:
    """Static screening mass squared of the relativistic gas.

    The transverse static scalar at qmag = 1 is the mass squared itself.
    """
    return stationary_scalars(1.0, state, tol=tol).bStar


def thomas_fermi_mass2_nr(nr: NRState) -> float:
    """Static screening mass squared in the nonrelativistic limit."""
    return (nr.e2 / _PI2) * nr.pF


def nr_plasmon_omega2(nr: NRState) -> float:
    """Squared collective frequency of the nonrelativistic gas."""
    return (nr.e2 / (3.0 * _PI2)) * nr.pF**3


def pauli_landau(nr: NRState) -> tuple[float, float]:
    """Spin and orbital static magnetic susceptibilities; ratio exactly -3."""
    chi_pauli = nr.e2 * nr.pF / (4.0 * _PI2)
    return chi_pauli, -chi_pauli / 3.0


def plasmon_frequency(state: ThermoState,
                      tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Characteristic collective frequency and its self-consistent correction.

    The first value is the closed-form plasma scale from the occupation
    moments; the second is the zero of the assembled permittivity at qmag = 0,
    found inside the bracket [omegaE / 2, 2 omegaE], cut at OMEGA_Q0_MAX below
    the pair threshold.  Raises RootNotBracketed when the bracket holds no
    sign change (empty sea included) or lies wholly above OMEGA_Q0_MAX.
    """
    mi = moment_integrals(0.0, state, tol=tol)
    ae2 = (state.e2 / (12.0 * _PI2)) * (2.0 * mi.i0 + mi.i1)
    if ae2 <= 0.0:
        raise RootNotBracketed("state has no matter contribution")
    omega_e = 2.0 * math.sqrt(ae2)

    def eps_at(omega: float) -> float:
        # at qmag = 0 the long-wavelength forms are exact for every omega < 2
        kin = make_kinematics(omega, 0.0)
        return assemble_responses(
            scalar_triple(kin, state, regime=Regime.LongWavelength, tol=tol), kin).eps

    lo, hi = 0.5 * omega_e, min(2.0 * omega_e, OMEGA_Q0_MAX)
    if lo >= hi:
        raise RootNotBracketed(
            f"bracket [{lo:.6g}, {2.0 * omega_e:.6g}] lies above the pair threshold")
    f_lo, f_hi = eps_at(lo), eps_at(hi)
    if f_lo == 0.0:
        return omega_e, lo
    if f_hi == 0.0:
        return omega_e, hi
    if f_lo * f_hi > 0.0:
        raise RootNotBracketed(
            f"permittivity does not change sign on [{lo:.6g}, {hi:.6g}]")
    root = brentq(eps_at, lo, hi, xtol=1e-16, rtol=1e-14)
    return omega_e, float(root)
