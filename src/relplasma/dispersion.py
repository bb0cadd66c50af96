"""Propagating-mode solver and the negative-index band scan.

The mode condition couples the wavevector back into the responses, so the
self-consistent solver scans a wavevector grid, brackets sign changes of the
residual, and polishes each root with Brent's method.  Both stages are
batched through ``scalar_triples``, whose full-kinematics quadratures run side
by side, one integrand call per refinement round, and both start most
quadratures warm, from the converged panel partition of a nearby q at the
same tolerance (``map_partition``):

- the scan needs only the sign of the residual at each grid point, so it
  integrates the whole grid at a loose tolerance first: every SEED_STRIDE-th
  point (and the last) cold, then every other point started from the
  nearest of those.  Each point's error estimate is carried through the
  assembly into a first-order bound on its residual; a sign counts as
  certified when the residual exceeds ten times that bound (and muInv twice
  its own), and only the other points are integrated again, cold, at the
  caller's tolerance.  The certificate is as good as the quadrature's own
  error estimate; on audited solves that estimate overstated the true error
  at least fivefold at every grid point;
- the polish advances every bracket together (``lockstep_brentq``), so one
  Brent step of all brackets is one ``scalar_triples`` call at the caller's
  tolerance.  The first step (each bracket's lower end) starts cold; every
  later step starts each abscissa from the nearest one an earlier step of
  the same solve integrated.  The partitions are dropped when the solve
  returns.

A warm start converges to the same tolerance as a cold one, not to the same
bits, so the roots depend on the polish path at about 1e-12 relative; on the
audited solves brackets and root counts are those of a cold scan and a
point-by-point ``brentq`` polish at the caller's tolerance.  The polish
draws only on its own steps, so the roots depend on the brackets alone, not
on how the scan reached them.  A long-wavelength mode solves the same
condition with the q = 0 responses, where it reduces to a square root.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import ThermoState, make_kinematics
from .limits import thomas_fermi_mass2
from .quadrature import DEFAULT_TOL, NonConvergence
from .response import assemble_responses, evaluate_point, response_error_bounds
from .roots import brentq, lockstep_brentq  # noqa: F401  (perfbench wraps brentq)
from .scalar_functions import LightConeSingular, scalar_triples

# below this the permeability is effectively singular and the point is skipped
MU_INV_GUARD = 1e-12

# a polished root must reproduce a residual this small; sign changes that fail
# are permeability-pole crossings, where the residual jumps without a zero
POLE_FILTER = 1e-6

# the sign scan integrates at max(tol, SCAN_TOL) first; this sets speed only
SCAN_TOL = 1e-4

# that loose scan integrates every SEED_STRIDE-th grid point (and the last)
# cold and starts the others from the nearest of them; this sets speed only
SEED_STRIDE = 16

# a loose residual certifies its sign when it exceeds SIGN_MARGIN times its
# error bound, and a loose muInv when it exceeds MU_INV_MARGIN times its bound
SIGN_MARGIN = 10.0
MU_INV_MARGIN = 2.0


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


def _nearest_seeds(qs, pool: dict) -> list:
    """Per q the partition pooled at the nearest q; all None for an empty pool."""
    if not pool:
        return [None] * len(qs)
    known = np.array(sorted(pool))
    nearest = np.abs(np.asarray(qs)[:, None] - known).argmin(axis=1)
    return [pool[q] for q in known[nearest].tolist()]


def _grid_triples(omega: float, qs, state: ThermoState, tol: float,
                  pool: dict | None = None) -> list:
    """(kinematics, ScalarTriple or the point's typed exception) at every q.

    With a pool (q -> partition at tol), each full-kinematics point starts
    from the partition pooled at the nearest q, and the partitions this call
    converges go into the pool.
    """
    kins = [make_kinematics(omega, float(q)) for q in qs]
    if pool is None:
        return list(zip(kins, scalar_triples(kins, state, tol=tol)))
    triples, parts = scalar_triples(kins, state, tol=tol,
                                    seeds=_nearest_seeds(qs, pool))
    pool.update((kin.qmag, part) for kin, part in zip(kins, parts) if part is not None)
    return list(zip(kins, triples))


def _grid_responses(omega: float, qs, state: ThermoState, tol: float,
                    pool: dict | None = None) -> list:
    """(eps, muInv, tau) at every q, or the point's typed exception in its place.

    One scalar_triples call serves the whole grid, so the full-kinematics
    points share their quadrature rounds; pool is that of _grid_triples.
    """
    out = []
    for kin, tr in _grid_triples(omega, qs, state, tol, pool):
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


def _certified_residual(omega: float, kin, tr) -> float | None:
    """The residual at a loose-tolerance point when its sign is certain, else None.

    The triple's errEst is carried through the assembly (response_error_bounds)
    and then, to first order, through the residual.  The sign counts as
    certain when the residual exceeds SIGN_MARGIN times that bound and muInv
    stays clear of both MU_INV_MARGIN times its own bound and the MU_INV_GUARD
    cut; this is only as sound as errEst is a bound on the quadrature error.
    """
    if isinstance(tr, Exception):
        return None
    r = assemble_responses(tr, kin)
    res = _residual(omega, kin.qmag, (r.eps, r.muInv, r.tau))
    if res is None:
        return None
    err_eps, err_mu, err_tau = response_error_bounds(tr, kin)
    if abs(r.muInv) <= MU_INV_GUARD + MU_INV_MARGIN * err_mu:
        return None
    q, mu = kin.qmag, 1.0 / r.muInv
    num = r.eps * omega * omega - 2.0 * r.tau * omega * q
    bound = abs(mu) * (omega * omega * err_eps + 2.0 * omega * q * err_tau) \
        + mu * mu * abs(num) * err_mu
    return res if abs(res) > SIGN_MARGIN * bound else None


def _sign_scan(omega: float, grid: list[float], state: ThermoState,
               tol: float) -> list[float | None]:
    """Grid residuals whose signs stand for the signs of the residuals at tol.

    The whole grid is integrated at max(tol, SCAN_TOL): every SEED_STRIDE-th
    point and the last one cold, then the rest in one more call, each point
    started from the nearest cold point's partition (cold where the
    breakpoint counts differ, as across q = omega).  The points whose sign
    _certified_residual cannot certify are integrated again, cold, at tol, in
    one more call.  The certificate rests on the quadrature's own errEst
    with a 10x margin (2x for muInv), so it holds as far as errEst bounds
    the error, warm start or not; no certified sign differed from the sign
    of a cold scan at tol on the audited seeds.  A point that converges at
    the loose tolerance gets a value here even where tol would raise
    NonConvergence; such a gap is caught by the polish, which evaluates both
    bracket ends again at tol and drops the bracket.  With tol >= SCAN_TOL
    the grid is integrated once, cold, at tol.
    """
    loose = max(tol, SCAN_TOL)
    if loose == tol:
        return [_residual(omega, q, r)
                for q, r in zip(grid, _grid_responses(omega, grid, state, tol))]
    last = len(grid) - 1
    cold = [i for i in range(len(grid)) if i % SEED_STRIDE == 0 or i == last]
    warm = [i for i in range(len(grid)) if i % SEED_STRIDE and i != last]
    pool: dict = {}
    vals: list[float | None] = [None] * len(grid)
    for part in (cold, warm):
        pairs = _grid_triples(omega, [grid[i] for i in part], state, loose, pool)
        for i, (kin, tr) in zip(part, pairs):
            vals[i] = _certified_residual(omega, kin, tr)
    doubt = [i for i, v in enumerate(vals) if v is None]
    redo = _grid_responses(omega, [grid[i] for i in doubt], state, tol)
    for i, resp in zip(doubt, redo):
        vals[i] = _residual(omega, grid[i], resp)
    return vals


def solve_dispersion(omega: float, state: ThermoState,
                     mode: DispersionMode | str = DispersionMode.SelfConsistent,
                     response_fn=None, tol: float = DEFAULT_TOL,
                     n_grid: int = 512) -> DispersionSolution:
    """Real wavevector roots of the mode condition at fixed frequency.

    response_fn(omega, qmag) -> (eps, muInv, tau) overrides the internal
    evaluation; grid points where it raises or sits on a permeability pole
    are skipped rather than fatal.  Without it the grid is scanned in two
    batched passes (see the module docstring); with it every grid point is
    evaluated one at a time.  Every bracketed sign change is polished with
    Brent's method, all brackets in lockstep (without response_fn, warm
    started as the module docstring says); those that cannot be polished
    down to POLE_FILTER are pole crossings, not modes, and are dropped.  No
    root is reported as an empty tuple.  Raises ValueError unless omega > 0
    and n_grid >= 2.
    """
    if omega <= 0.0 or not math.isfinite(omega):
        raise ValueError("solve_dispersion requires omega > 0")
    if n_grid < 2:
        raise ValueError("solve_dispersion requires n_grid >= 2")
    mode = DispersionMode(mode) if not isinstance(mode, DispersionMode) else mode

    if mode is DispersionMode.LongWavelength:
        fn = response_fn if response_fn is not None else _default_response(state, tol)
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

    q_max = 10.0 * omega + 10.0 * math.sqrt(thomas_fermi_mass2(state, tol=tol))
    grid = np.linspace(q_max / n_grid, q_max, n_grid).tolist()
    if response_fn is None:
        polished: dict = {}  # q -> partition at tol, from the polish's own steps

        def responses(qs):
            return _grid_responses(omega, qs, state, tol, polished)
        vals = _sign_scan(omega, grid, state, tol)
    else:
        def responses(qs):
            out = []
            for q in qs:
                try:
                    out.append(response_fn(omega, q))
                except (LightConeSingular, NonConvergence, ValueError) as exc:
                    out.append(exc)
            return out
        vals = [_residual(omega, q, r) for q, r in zip(grid, responses(grid))]

    # (root, |residual| there)
    roots: list[tuple[float, float]] = []
    brackets: list[tuple[float, float]] = []
    for i in range(n_grid - 1):
        r1, r2 = vals[i], vals[i + 1]
        if r1 is None or r2 is None:
            continue
        if r1 == 0.0:
            roots.append((grid[i], 0.0))
        elif r1 * r2 < 0.0:
            brackets.append((grid[i], grid[i + 1]))
    if vals[-1] == 0.0:
        roots.append((grid[-1], 0.0))

    def residuals(qs):
        vs = [_residual(omega, q, r) for q, r in zip(qs, responses(qs))]
        return [RuntimeError("response unavailable inside bracket") if v is None
                else v for v in vs]

    for polished in lockstep_brentq(brackets, residuals, xtol=1e-14, rtol=1e-14):
        if isinstance(polished, Exception) or abs(polished[1]) > POLE_FILTER:
            continue
        roots.append((polished[0], abs(polished[1])))

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
