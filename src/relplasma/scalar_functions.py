"""Scalar building blocks of the gas response.

Everything downstream (response assembly, dispersion solving, the CLI) reduces
to four scalar functions of frequency and wavevector.  This module evaluates
them in each validity regime: the exact finite-momentum quadratures, the
long-wavelength moment expansion, the static limit, the low-frequency Drude
window, and the matter-free subtraction term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Kinematics, Regime, ScalarTriple, ThermoState, fermi_occupation
from .quadrature import (
    DEFAULT_TOL,
    PANEL_BUDGET,
    Breakpoints,
    IntegralResult,
    NonConvergence,
    adaptive_panels,
    fermi_x_cut,
    integrate_semi_infinite,
    lockstep_panels,
    locate_log_singularities,
    map_partition,
    semi_infinite_edges,
)

_PI2 = math.pi**2

# |qm2| below this is treated as sitting on the light cone
LIGHTCONE_GUARD = 1e-8

# series switch for the matter-free term; closed form loses digits to
# cancellation as qm2 -> 0
_SERIES_CUT = 1e-4

# routing thresholds for the automatic regime choice
LONGWAVE_B_MAX = 1e-3
LONGWAVE_A_MAX = 0.9


class LightConeSingular(ValueError):
    """Requested point is too close to omega = |q| for a stable evaluation."""


def vacuum_C_ratio(qm2: float, e2: float) -> float:
    """Matter-free term divided by qm2; finite and smooth through qm2 = 0."""
    if abs(qm2) < _SERIES_CUT:
        return (e2 / (60.0 * _PI2)) * (1.0 + (3.0 / 28.0) * qm2)
    return vacuum_C(qm2, e2) / qm2


def vacuum_C(qm2: float, e2: float) -> float:
    """Renormalized matter-free polarization term.

    Real for qm2 < 4 (below pair creation); timelike and spacelike branches
    share the same analytic function.  Raises ValueError at or above the
    pair threshold where an imaginary part would appear.
    """
    if not math.isfinite(qm2):
        raise ValueError("qm2 must be finite")
    if qm2 >= 4.0:
        raise ValueError(f"qm2 = {qm2:g} is at or above the pair threshold 4")
    if abs(qm2) < _SERIES_CUT:
        return vacuum_C_ratio(qm2, e2) * qm2
    if qm2 > 0.0:
        h = math.sqrt(4.0 / qm2 - 1.0)
        term = h * math.atan(1.0 / h)
    else:
        k = math.sqrt(1.0 - 4.0 / qm2)
        term = 0.5 * k * math.log((k + 1.0) / (k - 1.0))
    return -(e2 / (12.0 * _PI2)) * (1.0 / 3.0 + 2.0 * (1.0 + 2.0 / qm2) * (term - 1.0))


def sigma_helper(y: float) -> float:
    """y / sqrt(|1 - y^2|), the recurring oblateness ratio.  Diverges at y = 1."""
    d = abs(1.0 - y * y)
    if d == 0.0:
        raise ValueError("sigma_helper is singular at y = 1")
    return y / math.sqrt(d)


# ---------------------------------------------------------------------------
# log kernels of the finite-momentum integrands


def _f1_values(x, s, a: float, b: float):
    g = a * a - b * b
    return (-np.log(np.abs(a * x + b * s + g))
            - np.log(np.abs(-a * x + b * s + g))
            + np.log(np.abs(a * x - b * s + g))
            + np.log(np.abs(-a * x - b * s + g)))


def _f2_values(x, s, a: float, b: float):
    g = a * a
    return (np.log(np.abs(a * x + b * s + g))
            + np.log(np.abs(-a * x - b * s + g))
            - np.log(np.abs(a * x - b * s + g))
            - np.log(np.abs(-a * x + b * s + g)))


# ---------------------------------------------------------------------------
# finite-momentum (full kinematics) integrals


def _medium_bracket(x, a, b, state: ThermoState):
    """Integrand rows of the transverse (B) and auxiliary (D) scalars.

    a and b are the halved frequency and wavevector: floats, or arrays giving
    each node its own point.
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.maximum(x * x - 1.0, 0.0))
    occ = fermi_occupation(x, state)
    f1 = _f1_values(x, s, a, b)
    rows = np.empty((2, x.size))
    rows[0] = s + (x * x + a * a - b * b) / (4.0 * b) * f1
    if np.any(a != 0.0):
        rows[0] -= (a * x) / (2.0 * b) * _f2_values(x, s, a, b)
    rows[1] = s + (1.0 + 2.0 * a * a - 2.0 * b * b) / (8.0 * b) * f1
    rows *= occ
    return rows


def _medium_edges(kin: Kinematics, state: ThermoState, tol: float) -> list[float]:
    """Panel edges of the full-kinematics integrals; raises where they fail."""
    if abs(kin.qm2) < LIGHTCONE_GUARD:
        raise LightConeSingular(
            f"qm2 = {kin.qm2:.3e} lies inside the light-cone guard band")
    if kin.qmag <= 0.0:
        raise ValueError("finite-momentum integrals need qmag > 0")
    breaks = locate_log_singularities(kin, x_max=fermi_x_cut(state, tol))
    return semi_infinite_edges(state, breaks, tol)


def _medium_scaled(kin: Kinematics, state: ThermoState,
                   res: IntegralResult) -> IntegralResult:
    pref = -(state.e2 / (4.0 * _PI2)) / (kin.a**2 - kin.b**2)
    # an empty sea has no panel and comes back as a scalar zero
    return IntegralResult(pref * np.broadcast_to(res.value, 2),
                          abs(pref) * np.broadcast_to(res.errEst, 2),
                          res.panels, res.converged)


def _medium_integrals(kin: Kinematics, state: ThermoState, tol: float,
                      budget: int = PANEL_BUDGET) -> IntegralResult:
    """B and D at full kinematics from one quadrature on a shared panel tree."""
    res = adaptive_panels(lambda x: _medium_bracket(x, kin.a, kin.b, state),
                          _medium_edges(kin, state, tol), tol=tol, budget=budget)
    return _medium_scaled(kin, state, res)


def _row(res: IntegralResult, i: int) -> IntegralResult:
    return IntegralResult(float(res.value[i]), float(res.errEst[i]),
                          res.panels, res.converged)


def medium_B_full(kin: Kinematics, state: ThermoState, tol: float = DEFAULT_TOL,
                  budget: int = PANEL_BUDGET) -> IntegralResult:
    """Transverse matter scalar at full kinematics."""
    return _row(_medium_integrals(kin, state, tol, budget), 0)


def medium_D_full(kin: Kinematics, state: ThermoState, tol: float = DEFAULT_TOL,
                  budget: int = PANEL_BUDGET) -> IntegralResult:
    """Auxiliary matter scalar at full kinematics; longitudinal piece follows."""
    return _row(_medium_integrals(kin, state, tol, budget), 1)


# ---------------------------------------------------------------------------
# occupation moments and the long-wavelength expansion


@dataclass(frozen=True)
class MomentIntegrals:
    """Radial occupation moments weighted by 1/(x^2 - a2)^j for j = 0, 1, 2."""

    i0: float
    i1: float
    i2: float
    errEst: float = 0.0


def _atan_defect(v: float) -> float:
    # atan(v) - v/(1 + v^2); direct form cancels badly for small v
    if abs(v) < 0.02:
        v2 = v * v
        acc = 0.0
        for k in range(5, 0, -1):
            acc = acc * v2 + ((-1.0) ** (k + 1)) * (2.0 * k) / (2.0 * k + 1.0)
        return acc * v * v2
    return math.atan(v) - v / (1.0 + v * v)


def _moments_cold(a2: float, zeta: float) -> MomentIntegrals:
    if zeta <= 1.0:
        return MomentIntegrals(0.0, 0.0, 0.0)
    pf = math.sqrt(zeta * zeta - 1.0)
    ach = math.acosh(zeta)
    sz = zeta / pf
    i0 = 0.5 * (zeta * pf - ach)
    if a2 == 0.0:
        i1 = ach - 1.0 / sz
        i2 = 1.0 / (3.0 * sz**3)
    else:
        sa = math.sqrt(a2 / (1.0 - a2))
        v = sa / sz
        i1 = ach - math.atan(v) / sa
        i2 = _atan_defect(v) / (2.0 * sa**3 * (1.0 - a2) ** 2)
    return MomentIntegrals(i0, i1, i2)


def _moments_quadrature(a2: float, state: ThermoState, tol: float) -> MomentIntegrals:
    def weighted(x):
        w = fermi_occupation(x, state) * np.sqrt(np.maximum(x * x - 1.0, 0.0))
        den = x * x - a2
        return np.array((w, w / den, w / (den * den)))

    res = integrate_semi_infinite(weighted, state, Breakpoints(), tol=tol)
    i0, i1, i2 = np.broadcast_to(res.value, 3).tolist()
    return MomentIntegrals(i0, i1, i2, float(np.sum(res.errEst)))


def moment_integrals(a2: float, state: ThermoState, tol: float = DEFAULT_TOL,
                     method: str = "auto") -> MomentIntegrals:
    """Occupation moments; closed forms at t = 0, quadrature otherwise.

    method: "auto" picks by temperature, "closed" and "quadrature" force a
    route (closed is only available at t = 0).
    """
    if not 0.0 <= a2 < 1.0:
        raise ValueError("moment integrals require 0 <= a2 < 1")
    if method not in ("auto", "closed", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method == "closed" and state.t != 0.0:
        raise ValueError("closed moment forms exist only at t = 0")
    if method == "closed" or (method == "auto" and state.t == 0.0):
        return _moments_cold(a2, state.zeta)
    return _moments_quadrature(a2, state, tol)


def _w_from_moments(a: float, mi: MomentIntegrals, e2: float) -> float:
    a2 = a * a
    return (e2 / (4.0 * _PI2)) * ((2.0 / (3.0 * a2)) * mi.i0
                                  + ((1.0 + 14.0 * a2) / (3.0 * a2)) * mi.i1
                                  + 4.0 * a2 * mi.i2)


def _amp_from_moments(a: float, mi: MomentIntegrals, e2: float) -> float:
    return (1.5 * e2 / _PI2) * (mi.i1 + a * a * mi.i2)


def _check_longwave_a(a: float) -> None:
    if not 0.0 < a < 1.0:
        raise ValueError("long-wavelength forms require 0 < a < 1")


def longwave_B(a: float, state: ThermoState, tol: float = DEFAULT_TOL,
               method: str = "auto") -> float:
    """Transverse scalar in the q -> 0 limit, rescaled by (a/b)^2 to stay finite."""
    _check_longwave_a(a)
    return _w_from_moments(a, moment_integrals(a * a, state, tol=tol, method=method),
                           state.e2)


def longwave_A(a: float, state: ThermoState, tol: float = DEFAULT_TOL,
               method: str = "auto") -> float:
    """Longitudinal scalar in the q -> 0 limit."""
    _check_longwave_a(a)
    return _amp_from_moments(a, moment_integrals(a * a, state, tol=tol, method=method),
                             state.e2)


# ---------------------------------------------------------------------------
# static limit


@dataclass(frozen=True)
class StationaryResult:
    aStar: float
    bStar: float
    errEst: float = 0.0


def stationary_scalars(qmag: float, state: ThermoState, tol: float = DEFAULT_TOL,
                       method: str = "auto") -> StationaryResult:
    """Zero-frequency scalars; the transverse one carries the screening mass.

    The transverse scalar equals mass^2 / qmag^2 where mass^2 is the static
    screening scale of the gas, so it grows without bound as qmag -> 0.
    """
    if qmag <= 0.0:
        raise ValueError("stationary evaluation requires qmag > 0")
    if method not in ("auto", "closed", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method == "closed" and state.t != 0.0:
        raise ValueError("closed static forms exist only at t = 0")
    e2 = state.e2
    if method == "closed" or (method == "auto" and state.t == 0.0):
        if state.zeta <= 1.0:
            return StationaryResult(0.0, 0.0)
        ach = math.acosh(state.zeta)
        pf = math.sqrt(state.zeta**2 - 1.0)
        a_star = -(e2 / (6.0 * _PI2)) * ach
        mass2 = (e2 / (4.0 * _PI2)) * (ach + 3.0 * state.zeta * pf)
        return StationaryResult(a_star, mass2 / qmag**2)

    x_top = fermi_x_cut(state, tol)
    if x_top <= 1.0:
        return StationaryResult(0.0, 0.0)
    p_top = math.sqrt(x_top * x_top - 1.0)
    edges = [0.0, p_top]
    if state.t > 0.0 and state.zeta > 1.0:
        surf = math.sqrt(state.zeta**2 - 1.0)
        if surf < p_top:
            edges.insert(1, surf)

    def integrands(p):
        w = np.sqrt(1.0 + p * p)
        occ = fermi_occupation(w, state)
        return np.array((occ / w, occ * (1.0 + 1.5 * p * p) / w))

    res = adaptive_panels(integrands, edges, tol=tol)
    (over_energy, screening), (err_a, err_s) = res.value.tolist(), res.errEst.tolist()
    a_star = -(e2 / (6.0 * _PI2)) * over_energy
    mass2 = (e2 / _PI2) * screening
    err = (e2 / (6.0 * _PI2)) * err_a + (e2 / _PI2) * err_s / qmag**2
    return StationaryResult(a_star, mass2 / qmag**2, err)


# ---------------------------------------------------------------------------
# low-frequency Drude window


@dataclass(frozen=True)
class DrudeResult:
    epsDrude: float
    muInvDrude: float
    ae2: float
    am2: float
    ge: float
    gm: float


def drude_scalars(a: float, state: ThermoState) -> DrudeResult:
    """Low-frequency q = 0 responses of the cold gas.

    Both responses dive through zero like 1/a^2 below the respective plasma
    scale; the magnetic coefficient is exactly twice the electric one.
    """
    if a <= 0.0:
        raise ValueError("drude window needs a > 0")
    if state.t != 0.0 or state.zeta <= 1.0:
        raise ValueError("drude forms hold for the cold degenerate gas only")
    e2, z = state.e2, state.zeta
    pf2 = z * z - 1.0
    ae2 = (e2 / (12.0 * _PI2)) * pf2**1.5 / z
    am2 = 2.0 * ae2
    sz = sigma_helper(z)
    ach = math.acosh(z)
    ge = ach - 1.0 / sz - 1.0 / (12.0 * sz**3)
    gm = ach - 1.0 / sz + 1.0 / (15.0 * sz**3)
    eps = 1.0 - ae2 / a**2 + (e2 / (3.0 * _PI2)) * ge
    mu_inv = 1.0 - am2 / a**2 - (5.0 * e2 / (6.0 * _PI2)) * gm
    return DrudeResult(eps, mu_inv, ae2, am2, ge, gm)


# ---------------------------------------------------------------------------
# regime routing and the combined driver


def select_regime(kin: Kinematics, state: ThermoState) -> Regime:
    """Pick the cheapest valid evaluation route for a point."""
    if kin.omega == 0.0:
        return Regime.Stationary
    if state.t == 0.0 and state.zeta <= 1.0:
        return Regime.Vacuum
    if kin.b < LONGWAVE_B_MAX and kin.a < LONGWAVE_A_MAX:
        return Regime.LongWavelength
    return Regime.FullKinematics


def scalar_triple(kin: Kinematics, state: ThermoState,
                  regime: Regime | str | None = None,
                  tol: float = DEFAULT_TOL) -> ScalarTriple:
    """Evaluate all response scalars at one kinematic point.

    regime None means automatic routing; a Regime (or its string value)
    forces a specific route.  Raises LightConeSingular too close to
    omega = |q| and NonConvergence when the quadrature budget runs out.
    """
    reg = select_regime(kin, state) if regime is None else Regime(regime) \
        if isinstance(regime, str) else regime
    c_ratio = vacuum_C_ratio(kin.qm2, state.e2)
    c_star = c_ratio * kin.qm2

    if reg is Regime.Vacuum:
        return ScalarTriple(0.0, 0.0, c_star, 0.0, errEst=0.0, regime=reg,
                            cStarRatio=c_ratio)

    if reg is Regime.Stationary:
        if kin.omega != 0.0:
            raise ValueError("stationary route requires omega = 0")
        res = stationary_scalars(kin.qmag, state, tol=tol)
        factor = 1.0 + 1.5 * kin.qm2 / kin.qmag**2
        return ScalarTriple(res.aStar, res.bStar, c_star,
                            res.aStar - factor * res.bStar,
                            errEst=res.errEst, regime=reg, cStarRatio=c_ratio)

    if reg is Regime.LongWavelength:
        a, b = kin.a, kin.b
        _check_longwave_a(a)
        mi = moment_integrals(a * a, state, tol=tol)
        w = _w_from_moments(a, mi, state.e2)
        amp = _amp_from_moments(a, mi, state.e2)
        b_star = (b * b) / (a * a) * w
        d_star = amp - b_star - 1.5 * ((a * a - b * b) / (a * a)) * w
        # the expansion drops terms of relative order (b/a^2)^2
        truncation = (b / (a * a)) ** 2 * max(abs(amp), abs(w))
        err = mi.errEst * (state.e2 / _PI2) * (1.0 + 1.0 / (a * a)) + truncation
        return ScalarTriple(amp, b_star, c_star, d_star, errEst=err, regime=reg,
                            cStarRatio=c_ratio, longwaveW=w)

    return _full_triple(kin, c_ratio, _medium_integrals(kin, state, tol))


def _full_triple(kin: Kinematics, c_ratio: float, res: IntegralResult) -> ScalarTriple:
    (b_star, d_star), (err_b, err_d) = res.value.tolist(), res.errEst.tolist()
    factor = 1.0 + 1.5 * kin.qm2 / kin.qmag**2
    return ScalarTriple(d_star + factor * b_star, b_star, c_ratio * kin.qm2, d_star,
                        errEst=err_d + (1.0 + abs(factor)) * err_b,
                        regime=Regime.FullKinematics, cStarRatio=c_ratio)


def scalar_triples(kins: list[Kinematics], state: ThermoState,
                   tol: float = DEFAULT_TOL, seeds: list | None = None):
    """scalar_triple with automatic routing at many points at once.

    Each entry is the point's ScalarTriple, or the typed exception
    scalar_triple raises there (LightConeSingular, NonConvergence, ValueError)
    in its place.  The full-kinematics points are integrated side by side by
    ``lockstep_panels``, one integrand call per refinement round; other
    routes are evaluated point by point.

    Without seeds every quadrature starts from the point's base edges, and
    each entry equals its scalar_triple call bit for bit.  With seeds (one
    entry per point: None, or a partition this function handed back for a
    point at the same tol) a full-kinematics point starts from the seed's
    leaf partition moved onto its own base edges (``map_partition``), or cold
    where the breakpoint counts differ; its value then differs from the cold
    one within both error estimates.  The call then returns (triples,
    partitions): per point its (base edges, leaf partition) pair, or None
    off the full route or without convergence.
    """
    out: list = [None] * len(kins)
    full: list[tuple[int, float, list[float]]] = []
    for i, kin in enumerate(kins):
        try:
            if select_regime(kin, state) is not Regime.FullKinematics:
                out[i] = scalar_triple(kin, state, tol=tol)
                continue
            c_ratio = vacuum_C_ratio(kin.qm2, state.e2)
            full.append((i, c_ratio, _medium_edges(kin, state, tol)))
        except (ValueError, NonConvergence) as exc:
            out[i] = exc
    starts = [edges for _, _, edges in full]
    if seeds is not None:
        for n, (i, _, edges) in enumerate(full):
            if seeds[i] is not None:
                seeded = map_partition(seeds[i][1], seeds[i][0], edges)
                if seeded is not None:
                    starts[n] = seeded
    a = np.array([kins[i].a for i, _, _ in full])
    b = np.array([kins[i].b for i, _, _ in full])
    results = lockstep_panels(
        lambda x, owner: _medium_bracket(x, a[owner], b[owner], state),
        starts, tol=tol)
    partitions: list = [None] * len(kins)
    for (i, c_ratio, edges), res in zip(full, results):
        if isinstance(res, NonConvergence):
            out[i] = res
        else:
            out[i] = _full_triple(kins[i], c_ratio, _medium_scaled(kins[i], state, res))
            if res.edges is not None:
                partitions[i] = (edges, res.edges)
    return out if seeds is None else (out, partitions)
