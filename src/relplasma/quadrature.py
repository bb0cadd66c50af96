"""Adaptive panel quadrature for Fermi-weighted integrands with log singularities.

The integration variable is x = omega_p/m on [1, X_cut].  Panels are refined by
bisecting whichever panel carries the largest error estimate; panel edges are
placed on every known zero of a logarithmic argument so the open Gauss-Kronrod
nodes never touch a singular point.  An integrand may return k rows at once:
all k components then share one panel tree and one evaluation per node.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Kinematics, ThermoState

PANEL_BUDGET = 10_000
DEFAULT_TOL = 1e-9

# 7-point Gauss / 15-point Kronrod pair on [-1, 1]; all nodes strictly interior.
_XK_HALF = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
    0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0,
])
_WK_HALF = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
])
_WG_HALF = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469,
])

_XK = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])
_WK = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
_WG = np.zeros_like(_WK)
_WG[1:-1:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


@dataclass(frozen=True)
class IntegralResult:
    """value and errEst are floats for a scalar integrand, length-k arrays for
    an integrand returning k rows."""

    value: float | np.ndarray
    errEst: float | np.ndarray
    panels: int
    converged: bool


@dataclass(frozen=True)
class Breakpoints:
    """Sorted x-locations >= 1 where an integrand's log argument vanishes."""

    points: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        pts = tuple(float(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if any(p < 1.0 for p in pts):
            raise ValueError("breakpoints must lie in the integration domain x >= 1")
        if any(q <= p for p, q in zip(pts, pts[1:])):
            raise ValueError("breakpoints must be strictly increasing")


class NonConvergence(RuntimeError):
    """Panel budget exhausted; .result holds the best available estimate."""

    def __init__(self, result: IntegralResult, message: str) -> None:
        super().__init__(message)
        self.result = result


def _panel(f, lo: float, hi: float):
    """One Gauss-Kronrod pass: (kronrod value, error estimate) per component."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    fv = np.asarray(f(mid + half * _XK), dtype=float)
    k = half * (fv @ _WK)
    err = abs(k - half * (fv @ _WG))
    finite = np.isfinite(k)
    if not finite.all():
        err = np.where(finite, err, math.inf)
    return k, err


def _totals(heap, frozen, converged: bool) -> IntegralResult:
    value = sum(item[4] for item in heap) + sum(v for v, _ in frozen)
    err = sum(item[5] for item in heap) + sum(e for _, e in frozen)
    if np.ndim(value) == 0:
        value, err = float(value), float(err)
    return IntegralResult(value, err, len(heap) + len(frozen), converged)


def adaptive_panels(f, edges, tol: float = DEFAULT_TOL,
                    budget: int = PANEL_BUDGET) -> IntegralResult:
    """Integrate f over [edges[0], edges[-1]] with initial splits at every edge.

    f must accept a numpy array of n abscissae and return shape (n,), or
    (k, n) for k integrands on one shared panel tree.  The panel whose largest
    component error is biggest is bisected first, until every component's
    summed error estimate is at most tol, so each component meets the
    tolerance it would meet as a separate integral.  With no panel to
    integrate the result is a scalar zero.  Raises NonConvergence when the
    panel budget runs out first.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    edges = sorted(set(float(e) for e in edges))
    # heap items: (-largest component error, serial, lo, hi, value, error)
    heap: list[tuple] = []
    frozen: list[tuple] = []  # (value, error) of panels at machine width
    serial = 0
    live_err = 0.0
    for lo, hi in zip(edges, edges[1:]):
        val, err = _panel(f, lo, hi)
        heapq.heappush(heap, (-err.max(), serial, lo, hi, val, err))
        live_err += err
        serial += 1
    if not heap:
        return IntegralResult(0.0, 0.0, 0, True)

    frozen_err = 0.0
    while heap and (live_err + frozen_err).max() > tol:
        if len(heap) + len(frozen) >= budget:
            res = _totals(heap, frozen, False)
            raise NonConvergence(
                res, f"budget of {budget} panels exhausted, errEst "
                f"{np.max(res.errEst):.3e} > tol {tol:.3e}")
        _, _, lo, hi, val, err = heapq.heappop(heap)
        live_err -= err
        mid = 0.5 * (lo + hi)
        # stop well above machine width: thinner panels would let rounding push
        # open-rule nodes onto a singular edge
        if hi - lo < 1e-13 * max(1.0, abs(lo), abs(hi)):
            frozen.append((val, err))
            frozen_err += err
            continue
        for plo, phi in ((lo, mid), (mid, hi)):
            pval, perr = _panel(f, plo, phi)
            heapq.heappush(heap, (-perr.max(), serial, plo, phi, pval, perr))
            live_err += perr
            serial += 1

    res = _totals(heap, frozen, True)
    if np.max(res.errEst) > tol:
        raise NonConvergence(
            replace(res, converged=False),
            f"all panels at machine width, errEst {np.max(res.errEst):.3e} "
            f"> tol {tol:.3e}")
    return res


def fermi_x_cut(state: ThermoState, tol: float) -> float:
    """Upper integration limit: exact Fermi edge at t = 0, padded tail otherwise."""
    if state.t == 0.0:
        return state.zeta
    pad = max(50.0, math.log(10.0 / tol) + 3.0 * math.log(2.0 + state.zeta + 50.0 * state.t) + 10.0)
    return max(state.zeta, 1.0) + state.t * pad


def integrate_semi_infinite(f, state: ThermoState, breaks: Breakpoints,
                            tol: float = DEFAULT_TOL, budget: int = PANEL_BUDGET
                            ) -> IntegralResult:
    """Integrate an already-Fermi-weighted integrand f over x in [1, infinity).

    The state fixes the effective cutoff X_cut; breaks become panel edges.
    """
    x_cut = fermi_x_cut(state, tol)
    if x_cut <= 1.0:
        return IntegralResult(0.0, 0.0, 0, True)
    edges = [1.0, x_cut]
    edges += [p for p in breaks.points if 1.0 < p < x_cut]
    if state.t > 0.0 and 1.0 < state.zeta < x_cut:
        # seed the Fermi surface so sharp low-t transitions start resolved
        edges.append(state.zeta)
    return adaptive_panels(f, edges, tol=tol, budget=budget)


def locate_log_singularities(kin: Kinematics, x_max: float | None = None) -> Breakpoints:
    """Zeros in x >= 1 of the eight log arguments alpha*x + beta*sqrt(x^2-1) + gamma.

    gamma runs over {a^2 - b^2, a^2}, (alpha, beta) over (+-a, +-b).  Squaring
    gives (b^2 - a^2) x^2 - 2 alpha gamma x - (b^2 + gamma^2) = 0; every
    candidate is verified against the unsquared argument before acceptance.
    Only roots strictly inside (1, x_max] are reported.
    """
    if kin.qmag <= 0.0:
        raise ValueError("locate_log_singularities requires qmag > 0")
    a, b = kin.a, kin.b
    found: list[float] = []
    for gamma in (a * a - b * b, a * a):
        for alpha in (a, -a):
            acoef = b * b - alpha * alpha
            bcoef = -2.0 * alpha * gamma
            ccoef = -(b * b + gamma * gamma)
            roots: list[float] = []
            if acoef == 0.0:
                if bcoef != 0.0:
                    roots.append(-ccoef / bcoef)
            else:
                disc = bcoef * bcoef - 4.0 * acoef * ccoef
                if disc >= 0.0:
                    sq = math.sqrt(disc)
                    qq = -0.5 * (bcoef + math.copysign(sq, bcoef)) if bcoef != 0.0 else 0.5 * sq
                    if qq != 0.0:
                        roots += [qq / acoef, ccoef / qq]
                    else:
                        roots.append(0.0)
            for x in roots:
                if not (x > 1.0 and math.isfinite(x)):
                    continue
                s = math.sqrt(x * x - 1.0)
                for beta in (b, -b):
                    resid = alpha * x + beta * s + gamma
                    scale = max(1.0, abs(alpha) * x + abs(beta) * s + abs(gamma))
                    if abs(resid) <= 1e-12 * scale:
                        found.append(x)
                        break
    found.sort()
    unique: list[float] = []
    for x in found:
        if x_max is not None and x > x_max:
            continue
        if unique and math.isclose(x, unique[-1], rel_tol=1e-12):
            continue
        unique.append(x)
    return Breakpoints(tuple(unique))
