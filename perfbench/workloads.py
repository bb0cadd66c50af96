"""Seeded inputs, timed operations, references and checks for each workload.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns.  Inputs come only from the seed; the library
sees nothing but the generated values.  Each timed operation goes through
the public functions the CLI calls, looked up on their module at call time so
that the traced run can wrap them at the binding site.

References are computed on a route other than the timed one, at a quadrature
tolerance 100 times tighter than the timed one:

- ``sweep_mixed``: forced full kinematics for q > 0 and omega > 0, the
  stationary quadrature for omega = 0, and the moment quadrature of the
  long-wavelength forms for q = 0;
- ``dispersion_sc``: a solve on a grid twice as dense;
- ``band_cold``: plasma scales and band edges from the moment quadrature in
  place of the closed forms, the upper edge polished by ``brentq`` on a
  scan twice as dense.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from relplasma import cli, dispersion, limits, response, scalar_functions
from relplasma.core import Regime, ScalarTriple, ThermoState, make_kinematics
from relplasma.quadrature import NonConvergence

# timed tolerance: the CLI default, always passed explicitly
TOL = 1e-9
REF_TOL = TOL / 100.0
FALLBACK_REF_TOL = TOL / 10.0

# a sweep value fails when |value - reference| > errEst + reference errEst
# + SWEEP_FLOOR_ABS + SWEEP_FLOOR_REL * |reference|
SWEEP_FLOOR_ABS = 1e-7
SWEEP_FLOOR_REL = 1e-7
SWEEP_FIELDS = ("aStar", "bStar", "cStar", "dStar", "eps", "muInv",
                "epsPrime", "tau", "chiE", "chiM")

# a root fails beyond ROOT_FLOOR * max(q, omega): near the top of the window
# a root runs to q = 0 like sqrt(eps), so quadrature error at TOL moves it by
# about 1e-7 * omega there, against 1e-10 * q elsewhere
ROOT_FLOOR = 1e-6
# frequencies and band edges fail beyond this relative distance
BAND_FLOOR_REL = 1e-8

# the region the long-wavelength router is known to get wrong: b below the
# routing cut with an expansion parameter (b/a^2)^2 of order one
MISROUTE_Q_MAX = 2e-3
MISROUTE_AMP_MIN = 0.1

# sweep_mixed: 12 states, and per state stratified general
# points plus a few omega = 0 and q = 0 points
SWEEP_T = (0.0, 0.01, 0.1)
SWEEP_ZETA = (0.5, 1.5, 2.0, 5.0)
# omega, q <= 0.5 keep omega^2 - q^2 far below the pair threshold 4
SWEEP_Q = (1e-4, 0.5)
SWEEP_OMEGA = (5e-3, 0.5)
SWEEP_GENERAL, SWEEP_STATIC, SWEEP_LONGWAVE0 = 28, 6, 6
# points keep |omega^2 - q^2| above this share of max(omega, q)^2: closer to
# the light cone the full-kinematics reference stalls at its rounding floor
# (errEst about 1.5e-10) and cannot be 100 times tighter than the timed
# tolerance.  This is far wider than the library's own guard band.
LIGHTCONE_REL = 0.1

# dispersion_sc: upper edge of the both-negative window (the permittivity
# zero at q = 0) of each cold state; omega is drawn across [0.3, 1.3] of it
DISP_WINDOW_TOP = {1.5: 0.053709115620666915, 2.0: 0.08965868425462829}
DISP_SPAN = (0.3, 1.3)
DISP_GRID = 512

# band_cold: distinct cold states per seed, each scanned over
# [0.5, 1.5] times its plasma scale
BAND_ZETA = (1.2, 5.0)
BAND_STATES = 16
BAND_POINTS = 31
BAND_SPAN = (0.5, 1.5)


@dataclass(frozen=True)
class Outcome:
    """What one operation returned, reduced to the values that are checked."""

    values: dict
    flagged: bool = False
    route: str = ""


def _loguniform(u, lo: float, hi: float):
    return lo * (hi / lo) ** u


# ---------------------------------------------------------------------------
# sweep_mixed


@dataclass(frozen=True)
class SweepPoint:
    t: float
    zeta: float
    omega: float
    q: float


def sweep_inputs(seed: int, scale: float = 1.0) -> list[SweepPoint]:
    """Seeded sweep points; scale < 1 shrinks every per-state count.

    Within each state, omega and q are drawn log-uniformly inside equal
    strata, and the pairing of omega strata with q strata is fixed per state.
    Every seed therefore has the same mix of routes, of q > omega and of
    cost; the seed moves each point inside its stratum.
    """
    rng = np.random.default_rng(seed)
    n_gen = max(1, round(SWEEP_GENERAL * scale))
    n_static = max(1, round(SWEEP_STATIC * scale))
    n_lw0 = max(1, round(SWEEP_LONGWAVE0 * scale))

    def draw(strata, n, lo, hi):
        return _loguniform((strata + rng.random(len(strata))) / n, lo, hi)

    points = []
    for s, (t, zeta) in enumerate(itertools.product(SWEEP_T, SWEEP_ZETA)):
        pairing = np.random.default_rng(s).permutation(n_gen)
        omegas = draw(np.arange(n_gen), n_gen, *SWEEP_OMEGA)
        qs = draw(pairing, n_gen, *SWEEP_Q)
        for i, (w, q) in enumerate(zip(omegas, qs)):
            while abs(w * w - q * q) <= LIGHTCONE_REL * max(w, q) ** 2:
                w = draw(np.array([i]), n_gen, *SWEEP_OMEGA)[0]
            points.append(SweepPoint(t, zeta, float(w), float(q)))
        for q in draw(np.arange(n_static), n_static, *SWEEP_Q):
            points.append(SweepPoint(t, zeta, 0.0, float(q)))
        for w in draw(np.arange(n_lw0), n_lw0, *SWEEP_OMEGA):
            points.append(SweepPoint(t, zeta, float(w), 0.0))
    order = rng.permutation(len(points))
    return [points[i] for i in order]


def sweep_op(p: SweepPoint) -> Outcome:
    """One `relplasma sweep` grid point: evaluate_point plus susceptibilities."""
    state = ThermoState(t=p.t, zeta=p.zeta)
    triple, resp = response.evaluate_point(make_kinematics(p.omega, p.q), state,
                                           tol=TOL)
    chi = response.susceptibilities(resp, resp.vacuum)
    return Outcome(_sweep_values(triple, resp, chi),
                   flagged=abs(resp.muInv) < cli.POLE_GUARD,
                   route=triple.regime.value)


def _sweep_values(triple, resp, chi) -> dict:
    return {"aStar": triple.aStar, "bStar": triple.bStar, "cStar": triple.cStar,
            "dStar": triple.dStar, "eps": resp.eps, "muInv": resp.muInv,
            "epsPrime": resp.epsPrime, "tau": resp.tau, "chiE": chi.chiE,
            "chiM": chi.chiM, "errEst": triple.errEst}


def _with_vacuum(triple: ScalarTriple, kin):
    full = response.assemble_responses(triple, kin)
    bare = ScalarTriple(0.0, 0.0, triple.cStar, 0.0, regime=Regime.Vacuum,
                        cStarRatio=triple.cStarRatio)
    return replace(full, vacuum=response.assemble_responses(bare, kin))


def _longwave_reference(kin, state: ThermoState) -> tuple[ScalarTriple, object]:
    """q = 0 scalars from the moment quadrature, never the closed forms."""
    a = kin.a
    amp = scalar_functions.longwave_A(a, state, tol=REF_TOL, method="quadrature")
    w = scalar_functions.longwave_B(a, state, tol=REF_TOL, method="quadrature")
    ratio = scalar_functions.vacuum_C_ratio(kin.qm2, state.e2)
    triple = ScalarTriple(amp, 0.0, ratio * kin.qm2, amp - 1.5 * w,
                          regime=Regime.LongWavelength, cStarRatio=ratio,
                          longwaveW=w)
    return triple, _with_vacuum(triple, kin)


def _full_reference(kin, state: ThermoState) -> ScalarTriple:
    """Forced full-kinematics scalars at the tightest tolerance that converges.

    Near omega = q = 0 the integrals cannot reach REF_TOL within the panel
    budget; there the reference falls back to FALLBACK_REF_TOL and its own
    errEst widens the allowance of the comparison.
    """
    try:
        return _full_scalars(kin, state, REF_TOL)
    except NonConvergence:
        return _full_scalars(kin, state, FALLBACK_REF_TOL)


def _full_scalars(kin, state: ThermoState, tol: float) -> ScalarTriple:
    rb = scalar_functions.medium_B_full(kin, state, tol=tol)
    rd = scalar_functions.medium_D_full(kin, state, tol=tol)
    factor = 1.0 + 1.5 * kin.qm2 / kin.qmag ** 2
    ratio = scalar_functions.vacuum_C_ratio(kin.qm2, state.e2)
    return ScalarTriple(rd.value + factor * rb.value, rb.value, ratio * kin.qm2,
                        rd.value, errEst=rd.errEst + (1.0 + abs(factor)) * rb.errEst,
                        regime=Regime.FullKinematics, cStarRatio=ratio)


def sweep_reference(p: SweepPoint) -> dict:
    state = ThermoState(t=p.t, zeta=p.zeta)
    kin = make_kinematics(p.omega, p.q)
    if p.q == 0.0:
        triple, resp = _longwave_reference(kin, state)
    elif p.omega == 0.0:
        st = scalar_functions.stationary_scalars(p.q, state, tol=REF_TOL,
                                                 method="quadrature")
        ratio = scalar_functions.vacuum_C_ratio(kin.qm2, state.e2)
        triple = ScalarTriple(st.aStar, st.bStar, ratio * kin.qm2,
                              st.aStar - (1.0 + 1.5 * kin.qm2 / p.q ** 2) * st.bStar,
                              errEst=st.errEst, regime=Regime.Stationary,
                              cStarRatio=ratio)
        resp = _with_vacuum(triple, kin)
    else:
        triple = _full_reference(kin, state)
        resp = _with_vacuum(triple, kin)
    return _sweep_values(triple, resp, response.susceptibilities(resp, resp.vacuum))


def sweep_misses(got: dict, ref: dict) -> list[str]:
    """Fields where the timed value misses the reference beyond the allowance.

    The allowance is the timed errEst plus the reference's own errEst plus
    the floor.
    """
    err = got["errEst"] + ref["errEst"]
    return [k for k in SWEEP_FIELDS
            if not abs(got[k] - ref[k]) <= err + SWEEP_FLOOR_ABS
            + SWEEP_FLOOR_REL * abs(ref[k])]


def longwave_amplification(p: SweepPoint) -> float:
    """(b/a^2)^2, the long-wavelength expansion's own validity parameter."""
    a, b = 0.5 * p.omega, 0.5 * p.q
    return (b / (a * a)) ** 2 if a > 0.0 else math.inf


def in_misroute_region(p: SweepPoint) -> bool:
    return (0.0 < p.q < MISROUTE_Q_MAX and p.omega > 0.0
            and longwave_amplification(p) > MISROUTE_AMP_MIN)


def longwave_truncation(p: SweepPoint, out: Outcome, ref: dict) -> bool:
    """The known defect: the long-wavelength route used at q > 0.

    Its errEst carries no truncation term, so beyond the floor every such
    point that misses the full-kinematics reference is this one defect; the
    mis-routed region above is where the miss grows to order one.
    """
    return out.route == Regime.LongWavelength.value and p.q > 0.0


def sweep_properties(points: list[SweepPoint]) -> dict:
    n = len(points)
    routes: dict[str, int] = {}
    lw_amp = lw = 0
    for p in points:
        kin = make_kinematics(p.omega, p.q)
        reg = scalar_functions.select_regime(kin, ThermoState(t=p.t, zeta=p.zeta))
        routes[reg.value] = routes.get(reg.value, 0) + 1
        if reg is Regime.LongWavelength:
            lw += 1
            lw_amp += longwave_amplification(p) > MISROUTE_AMP_MIN
    return {
        "points": n,
        "route_mix": {k: routes[k] / n for k in sorted(routes)},
        "q_gt_omega_share": sum(p.q > p.omega for p in points) / n,
        "thermal_share": sum(p.t > 0.0 for p in points) / n,
        "longwave_amp_gt_0.1_share": lw_amp / lw if lw else 0.0,
        "misroute_region_share": sum(map(in_misroute_region, points)) / n,
    }


# ---------------------------------------------------------------------------
# dispersion_sc


@dataclass(frozen=True)
class DispersionInput:
    zeta: float
    omega: float
    n_grid: int


def dispersion_inputs(seed: int, scale: float = 1.0) -> list[DispersionInput]:
    """One frequency per cold state, drawn across and above its window."""
    rng = np.random.default_rng(seed)
    n_grid = max(16, round(DISP_GRID * scale))
    lo, hi = DISP_SPAN
    return [DispersionInput(zeta, float(top * (lo + rng.random() * (hi - lo))),
                            n_grid)
            for zeta, top in sorted(DISP_WINDOW_TOP.items())]


def dispersion_properties(inputs: list[DispersionInput]) -> dict:
    pos = [x.omega / DISP_WINDOW_TOP[x.zeta] for x in inputs]
    return {"omegas": len(pos),
            "inside_window_share": sum(p < 1.0 for p in pos) / len(pos),
            "omega_over_window_top": pos, "grid": inputs[0].n_grid}


def dispersion_op(x: DispersionInput) -> Outcome:
    """One self-consistent solve, as `relplasma dispersion --mode selfconsistent`."""
    sol = dispersion.solve_dispersion(x.omega, ThermoState(t=0.0, zeta=x.zeta),
                                      mode=dispersion.DispersionMode.SelfConsistent,
                                      tol=TOL, n_grid=x.n_grid)
    return Outcome({"qroots": sol.qroots, "residual": sol.residual,
                    "omega": x.omega},
                   flagged=sol.residual > dispersion.POLE_FILTER)


def dispersion_reference(x: DispersionInput) -> dict:
    sol = dispersion.solve_dispersion(x.omega, ThermoState(t=0.0, zeta=x.zeta),
                                      tol=REF_TOL, n_grid=2 * x.n_grid)
    return {"qroots": sol.qroots}


def lost_close_pair(x: DispersionInput, out: Outcome, ref: dict) -> bool:
    """The known defect: the fixed-grid scan loses a pair of nearby roots.

    Two roots closer than one grid step leave no sign change on the grid
    (ROADMAP item 3).  It applies when every timed root matches a reference
    root and the missing ones pair up closer than the timed grid step.
    """
    missing = list(ref["qroots"])
    for q in out.values["qroots"]:
        near = [r for r in missing if abs(q - r) <= ROOT_FLOOR * max(r, x.omega)]
        if not near:
            return False
        missing.remove(near[0])
    state = ThermoState(t=0.0, zeta=x.zeta)
    step = (10.0 * x.omega + 10.0 * math.sqrt(limits.thomas_fermi_mass2(
        state, tol=TOL))) / x.n_grid
    return (len(missing) > 0 and len(missing) % 2 == 0
            and all(b - a < step for a, b in zip(missing[::2], missing[1::2])))


def dispersion_misses(got: dict, ref: dict) -> list[str]:
    q, qr = got["qroots"], ref["qroots"]
    if len(q) != len(qr):
        return ["root count"]
    return [f"root {i}" for i, (a, b) in enumerate(zip(q, qr))
            if not abs(a - b) <= ROOT_FLOOR * max(abs(b), got["omega"])]


# ---------------------------------------------------------------------------
# band_cold


@dataclass(frozen=True)
class BandInput:
    zeta: float


def band_inputs(seed: int, scale: float = 1.0) -> list[BandInput]:
    rng = np.random.default_rng(seed)
    n = max(2, round(BAND_STATES * scale))
    lo, hi = BAND_ZETA
    return [BandInput(float(lo + (i + rng.random()) / n * (hi - lo)))
            for i in range(n)]


def band_properties(inputs: list[BandInput]) -> dict:
    zetas = [x.zeta for x in inputs]
    return {"states": len(zetas), "zeta_min": min(zetas), "zeta_max": max(zetas)}


def band_op(x: BandInput) -> Outcome:
    """Plasma scales plus the negative-index scan across the state's window."""
    state = ThermoState(t=0.0, zeta=x.zeta)
    omega_e, omega_root = limits.plasmon_frequency(state, tol=TOL)
    rep = dispersion.negative_index_scan(state, BAND_SPAN[0] * omega_e,
                                         BAND_SPAN[1] * omega_e, BAND_POINTS,
                                         tol=TOL)
    band = rep.negativeBand
    return Outcome({"omegaE": omega_e, "omegaRoot": omega_root,
                    "bandLo": band[0] if band else math.nan,
                    "bandHi": band[1] if band else math.nan},
                   flagged=band is None)


def band_reference(x: BandInput) -> dict:
    state = ThermoState(t=0.0, zeta=x.zeta)
    mi = scalar_functions.moment_integrals(0.0, state, tol=REF_TOL,
                                           method="quadrature")
    omega_e = 2.0 * math.sqrt(state.e2 / (12.0 * math.pi ** 2)
                              * (2.0 * mi.i0 + mi.i1))

    def at(omega: float):
        resp = _longwave_reference(make_kinematics(omega, 0.0), state)[1]
        return resp.eps, resp.muInv

    root = brentq(lambda w: at(w)[0], 0.5 * omega_e, 2.0 * omega_e,
                  xtol=1e-16, rtol=1e-14)
    grid = np.linspace(BAND_SPAN[0] * omega_e, BAND_SPAN[1] * omega_e,
                       2 * BAND_POINTS - 1)
    worst = [max(at(float(w))) for w in grid]
    neg = [v < 0.0 for v in worst]
    if not neg[0] or all(neg):
        raise AssertionError(f"reference band for zeta={x.zeta} does not end "
                             "inside the scan window")
    last = neg.index(False) - 1
    hi = brentq(lambda w: max(at(w)), float(grid[last]), float(grid[last + 1]),
                xtol=1e-16, rtol=1e-14)
    return {"omegaE": omega_e, "omegaRoot": root, "bandLo": float(grid[0]),
            "bandHi": hi}


def band_misses(got: dict, ref: dict) -> list[str]:
    return [k for k in ("omegaE", "omegaRoot", "bandLo", "bandHi")
            if not abs(got[k] - ref[k]) <= BAND_FLOOR_REL * abs(ref[k])]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object
    properties: object
    op: object
    reference: object
    misses: object
    known_defect: object = None
    defect_region: object = None


WORKLOADS = {
    "sweep_mixed": Workload("sweep_mixed", sweep_inputs, sweep_properties,
                            sweep_op, sweep_reference, sweep_misses,
                            longwave_truncation, in_misroute_region),
    "dispersion_sc": Workload("dispersion_sc", dispersion_inputs,
                              dispersion_properties, dispersion_op,
                              dispersion_reference, dispersion_misses,
                              lost_close_pair),
    "band_cold": Workload("band_cold", band_inputs, band_properties, band_op,
                          band_reference, band_misses),
}
