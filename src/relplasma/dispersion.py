"""Propagating-mode solver and the negative-index band scan.

The mode condition couples the wavevector back into the responses, so the
self-consistent solver scans a wavevector grid, brackets sign changes of the
residual, and polishes each root.  The scan evaluates the whole grid at once:
its full-kinematics quadratures run side by side, one integrand call per
refinement round (``scalar_triples``); the polish evaluates one point at a
time.  A long-wavelength mode solves the same condition with the q = 0
responses, where it reduces to a square root.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .core import ThermoState, make_kinematics
from .limits import thomas_fermi_mass2
from .quadrature import DEFAULT_TOL, NonConvergence
from .response import assemble_responses, evaluate_point
from .scalar_functions import LightConeSingular, scalar_triples

# below this the permeability is effectively singular and the point is skipped
MU_INV_GUARD = 1e-12

# a polished root must reproduce a residual this small; sign changes that fail
# are permeability-pole crossings, where the residual jumps without a zero
POLE_FILTER = 1e-6


class DispersionMode(enum.Enum):
    SelfConsistent = "SelfConsistent"
    LongWavelength = "LongWavelength"


@dataclass(frozen=True)
class DispersionSolution:
    omega: float
    qroots: tuple[float, ...]
    nIndex: tuple[float, ...]
    residual: float
    regime: str


@dataclass(frozen=True)
class BandReport:
    omegaGrid: np.ndarray
    epsVals: np.ndarray
    muInvVals: np.ndarray
    negativeBand: tuple[float, float] | None


def _default_response(state: ThermoState, tol: float):
    def fn(omega: float, qmag: float):
        _, r = evaluate_point(make_kinematics(omega, qmag), state, tol=tol)
        return r.eps, r.muInv, r.tau
    return fn


def _grid_responses(omega: float, qs, state: ThermoState, tol: float) -> list:
    """(eps, muInv, tau) at every q, or the point's typed exception in its place.

    One scalar_triples call serves the whole grid, so the full-kinematics
    points share their quadrature rounds.
    """
    kins = [make_kinematics(omega, float(q)) for q in qs]
    out = []
    for kin, tr in zip(kins, scalar_triples(kins, state, tol=tol)):
        if isinstance(tr, Exception):
            out.append(tr)
        else:
            r = assemble_responses(tr, kin)
            out.append((r.eps, r.muInv, r.tau))
    return out


def _residual(omega: float, q: float, resp) -> float | None:
    """Mode-condition residual, or None where the response is unavailable."""
    if isinstance(resp, Exception):
        return None
    eps, mu_inv, tau = resp
    if not all(map(math.isfinite, (eps, mu_inv, tau))):
        return None
    if abs(mu_inv) < MU_INV_GUARD:
        return None
    mu = 1.0 / mu_inv
    return q * q - mu * eps * omega * omega + 2.0 * mu * tau * omega * q


def solve_dispersion(omega: float, state: ThermoState,
                     mode: DispersionMode | str = DispersionMode.SelfConsistent,
                     response_fn=None, tol: float = DEFAULT_TOL,
                     n_grid: int = 512) -> DispersionSolution:
    """Real wavevector roots of the mode condition at fixed frequency.

    response_fn(omega, qmag) -> (eps, muInv, tau) overrides the internal
    evaluation; grid points where it raises or sits on a permeability pole
    are skipped rather than fatal.  Without it the scan evaluates the whole
    wavevector grid in one ``scalar_triples`` call; either way every grid
    value goes through the same residual.  Each bracketed sign change is
    polished point by point with brentq; those that cannot be polished down
    to POLE_FILTER are pole crossings, not modes, and are dropped.  No root
    is reported as an empty tuple.
    """
    if omega <= 0.0 or not math.isfinite(omega):
        raise ValueError("solve_dispersion requires omega > 0")
    mode = DispersionMode(mode) if not isinstance(mode, DispersionMode) else mode
    fn = response_fn if response_fn is not None else _default_response(state, tol)

    if mode is DispersionMode.LongWavelength:
        eps, mu_inv, _ = fn(omega, 0.0)
        if abs(mu_inv) < MU_INV_GUARD:
            return DispersionSolution(omega, (), (), 0.0, mode.value)
        ratio = eps / mu_inv
        if ratio <= 0.0:
            return DispersionSolution(omega, (), (), 0.0, mode.value)
        n = math.sqrt(ratio)
        q = omega * n
        residual = abs(q * q - ratio * omega * omega)
        return DispersionSolution(omega, (q,), (n,), residual, mode.value)

    def response_at(q: float):
        try:
            return fn(omega, q)
        except (LightConeSingular, NonConvergence, ValueError) as exc:
            return exc

    def residual_fn(q: float) -> float | None:
        return _residual(omega, q, response_at(q))

    def strict_residual(q: float) -> float:
        v = residual_fn(q)
        if v is None:
            raise RuntimeError("response unavailable inside bracket")
        return v

    q_max = 10.0 * omega + 10.0 * math.sqrt(thomas_fermi_mass2(state, tol=tol))
    grid = np.linspace(q_max / n_grid, q_max, n_grid).tolist()
    if response_fn is None:
        responses = _grid_responses(omega, grid, state, tol)
    else:
        responses = [response_at(q) for q in grid]
    vals = [_residual(omega, q, r) for q, r in zip(grid, responses)]

    # (root, |residual| there)
    roots: list[tuple[float, float]] = []
    for i in range(n_grid - 1):
        r1, r2 = vals[i], vals[i + 1]
        if r1 is None or r2 is None:
            continue
        if r1 == 0.0:
            roots.append((grid[i], 0.0))
            continue
        if r1 * r2 < 0.0:
            try:
                root = brentq(strict_residual, grid[i], grid[i + 1],
                              xtol=1e-14, rtol=1e-14)
            except (RuntimeError, ValueError):
                continue
            check = residual_fn(float(root))
            if check is None or abs(check) > POLE_FILTER:
                continue
            roots.append((float(root), abs(check)))
    if vals[-1] == 0.0:
        roots.append((grid[-1], 0.0))

    roots.sort()
    unique: list[tuple[float, float]] = []
    for q, res in roots:
        if not unique or q - unique[-1][0] > 1e-9 * q_max:
            unique.append((q, res))
    qs = tuple(q for q, _ in unique)
    worst = max((res for _, res in unique), default=0.0)
    return DispersionSolution(omega, qs, tuple(q / omega for q in qs), worst,
                              mode.value)


def negative_index_scan(state: ThermoState, omegaMin: float, omegaMax: float,
                        nPoints: int, tol: float = DEFAULT_TOL) -> BandReport:
    """Locate the frequency band where both q = 0 responses turn negative.

    Both-negative means the index is real with reversed phase, so the band
    edges are refined by bisection down to machine-level width.
    """
    if not 0.0 < omegaMin < omegaMax:
        raise ValueError("need 0 < omegaMin < omegaMax")
    if omegaMax >= 1.7:
        raise ValueError("scan window must stay below the pair threshold region")
    if nPoints < 2:
        raise ValueError("need at least two scan points")

    def at(omega: float):
        _, r = evaluate_point(make_kinematics(omega, 0.0), state, tol=tol)
        return r.eps, r.muInv

    grid = np.linspace(omegaMin, omegaMax, nPoints)
    eps_vals = np.empty(nPoints)
    mu_vals = np.empty(nPoints)
    for i, w in enumerate(grid):
        eps_vals[i], mu_vals[i] = at(float(w))
    flags = (eps_vals < 0.0) & (mu_vals < 0.0)

    if not flags.any():
        return BandReport(grid, eps_vals, mu_vals, None)

    first = int(np.argmax(flags))
    last = first
    while last + 1 < nPoints and flags[last + 1]:
        last += 1

    def is_negative(omega: float) -> bool:
        eps, mu_inv = at(omega)
        return eps < 0.0 and mu_inv < 0.0

    def refine(outside: float, inside: float) -> float:
        # keep the invariant: `inside` tests True, `outside` tests False
        for _ in range(64):
            mid = 0.5 * (outside + inside)
            if mid == outside or mid == inside:
                break
            if is_negative(mid):
                inside = mid
            else:
                outside = mid
        return inside

    lo = float(grid[first]) if first == 0 else refine(float(grid[first - 1]),
                                                      float(grid[first]))
    hi = float(grid[last]) if last == nPoints - 1 else refine(float(grid[last + 1]),
                                                             float(grid[last]))
    return BandReport(grid, eps_vals, mu_vals, (lo, hi))
