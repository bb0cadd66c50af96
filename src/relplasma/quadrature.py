"""Adaptive panel quadrature for Fermi-weighted integrands with log singularities.

The integration variable is x = omega_p/m on [1, X_cut].  Panels are refined by
bisecting whichever panel carries the largest error estimate; panel edges are
placed on every known zero of a logarithmic argument so the open Gauss-Kronrod
nodes never touch a singular point.  An integrand may return k rows at once:
all k components then share one panel tree and one evaluation per node.

There is one engine, ``lockstep_panels``: it refines many independent
integrals side by side.  Each integral keeps its own panel heap and takes
exactly the steps it would take alone; each round gathers the panels every
live integral needs (its initial panels, or the two halves of its worst
panel) into one integrand call, evaluated in chunks of _CHUNK panels so a
wide round stays small in memory.  ``adaptive_panels`` is its one-integral
case.  The panel sums are elementwise in the panels, so an integral's value,
error estimate and panel count do not depend on what it was batched with.

A converged result carries its leaf partition (``IntegralResult.edges``).
``map_partition`` moves such a partition onto the base edges of a nearby
integrand (same number of breakpoints, slightly moved), and the mapped list
can start another integral: a richer initial edge list, refined under the
same stop rule, budget and frozen-panel rule.  Restarting from a converged
neighbour's mesh is the continuation idea of QUADPACK-style drivers; a
warm start whose mesh already meets tol finishes in one round.
"""
from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field, replace
from operator import add, sub

import numpy as np

from .core import Kinematics, ThermoState

PANEL_BUDGET = 10_000
DEFAULT_TOL = 1e-9
# lockstep_panels keeps at most this many panel trees alive at once; a
# finished integral frees its slot for the next one waiting
LOCKSTEP_LIVE = 32
# _panels hands the integrand at most this many panels per call; results do
# not depend on it because integrands act elementwise
_CHUNK = 128

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
    an integrand returning k rows.  edges is the leaf partition, frozen panels
    included, as a sorted float64 array (None with no panel)."""

    value: float | np.ndarray
    errEst: float | np.ndarray
    panels: int
    converged: bool
    edges: np.ndarray | None = field(default=None, compare=False, repr=False)


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


_EMPTY = IntegralResult(0.0, 0.0, 0, True)


def _panels(f, lo: list, hi: list, owner: list):
    """One Gauss-Kronrod pass over many panels, _CHUNK panels per integrand call.

    Returns per panel its largest component error, its kronrod values and
    its error estimates (arrays of shape (p,), (p, k), (p, k)), and whether f
    returned one row.
    """
    lo, hi = np.array(lo), np.array(hi)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = (mid[:, None] + half[:, None] * _XK).ravel()
    own = np.repeat(owner, _XK.size)
    step = _CHUNK * _XK.size
    fv = None
    for s in range(0, x.size, step):
        part = np.asarray(f(x[s:s + step], own[s:s + step]), dtype=float)
        if fv is None:
            if x.size <= step:
                fv = part
                break
            fv = np.empty(part.shape[:-1] + x.shape)
        fv[..., s:s + step] = part
    scalar = fv.ndim == 1
    fv = fv.reshape(-1, lo.size, _XK.size)
    # einsum reduces each panel's 15 nodes on their own, so a panel's sums do
    # not depend on the other panels of the call
    val = half * np.einsum("kpn,n->kp", fv, _WK)
    err = np.abs(val - half * np.einsum("kpn,n->kp", fv, _WG))
    err[~np.isfinite(val)] = math.inf
    return err.max(axis=0), val.T, err.T, scalar


class _Tree:
    """Panel heap and running error sums of one integral.

    Heap items are (-largest component error, serial, lo, hi); the k
    component values and errors of panel `serial` sit at
    [serial * k, serial * k + k) of two flat float arrays, which keeps a tree
    at a few hundred bytes per panel.
    """

    __slots__ = ("heap", "frozen", "vals", "errs", "k", "serial", "live_err",
                 "frozen_err", "top")

    def __init__(self, keys, lo: list, hi: list, vals, errs) -> None:
        """Take the initial panels: one heapify pops them in the (key, serial)
        order that pushing them one by one gives."""
        n, self.k = errs.shape
        self.heap = list(zip((-keys).tolist(), range(n), lo, hi))
        heapq.heapify(self.heap)
        self.frozen: list[tuple[int, float]] = []  # (serial, lo) at machine width
        self.vals = array("d", vals.tobytes())
        self.errs = array("d", errs.tobytes())
        self.serial = n
        self.top = hi[-1]
        # add.accumulate sums in panel order, as one push at a time would
        self.live_err = np.add.accumulate(errs, axis=0)[-1].tolist()
        self.frozen_err = [0.0] * self.k

    def push(self, key: float, lo: float, hi: float, val: list, err: list) -> None:
        heapq.heappush(self.heap, (-key, self.serial, lo, hi))
        self.serial += 1
        self.vals.extend(val)
        self.errs.extend(err)
        self.live_err = list(map(add, self.live_err, err))

    def totals(self, converged: bool, scalar: bool) -> IntegralResult:
        leaves = [item[1:3] for item in self.heap] + self.frozen
        serials = [serial for serial, _ in leaves]
        # fsum is exactly rounded, so the panel order does not matter
        value, err = ([math.fsum(c) for c in
                       np.frombuffer(a).reshape(-1, self.k)[serials].T.tolist()]
                      for a in (self.vals, self.errs))
        edges = np.array(sorted(lo for _, lo in leaves) + [self.top])
        if scalar:
            return IntegralResult(value[0], err[0], len(leaves), converged, edges)
        return IntegralResult(np.array(value), np.array(err), len(leaves), converged,
                              edges)

    def advance(self, tol: float, budget: int, scalar: bool):
        """Pop panels until one is due for bisection and return its (lo, hi).

        Returns the finished IntegralResult, or a NonConvergence, instead once
        every component's summed error is within tol or the budget runs out.
        """
        heap, frozen, k = self.heap, self.frozen, self.k
        while heap and max(map(add, self.live_err, self.frozen_err)) > tol:
            if len(heap) + len(frozen) >= budget:
                res = self.totals(False, scalar)
                return NonConvergence(
                    res, f"budget of {budget} panels exhausted, errEst "
                    f"{np.max(res.errEst):.3e} > tol {tol:.3e}")
            _, serial, lo, hi = heapq.heappop(heap)
            err = self.errs[serial * k:serial * k + k]
            self.live_err = list(map(sub, self.live_err, err))
            # stop well above machine width: thinner panels would let rounding
            # push open-rule nodes onto a singular edge
            if hi - lo < 1e-13 * max(1.0, abs(lo), abs(hi)):
                frozen.append((serial, lo))
                self.frozen_err = list(map(add, self.frozen_err, err))
                continue
            return lo, hi
        res = self.totals(True, scalar)
        if np.max(res.errEst) > tol:
            return NonConvergence(
                replace(res, converged=False),
                f"all panels at machine width, errEst {np.max(res.errEst):.3e} "
                f"> tol {tol:.3e}")
        return res


def lockstep_panels(f, edge_lists, tol: float = DEFAULT_TOL,
                    budget: int = PANEL_BUDGET) -> list:
    """Integrate many functions side by side, one integrand call per round.

    Integral i runs over [edges[0], edges[-1]] of edge_lists[i], with initial
    splits at every edge.  f(x, owner) receives the concatenated abscissae of
    one round and, per abscissa, the index i of the integral it belongs to; it
    must act elementwise and return shape (n,), or (k, n) for k components on
    one shared panel tree (k the same for every integral).  Each integral is
    refined exactly as ``adaptive_panels`` refines it alone.  At most
    LOCKSTEP_LIVE panel trees are alive at once.

    Returns one entry per integral: its IntegralResult, or the NonConvergence
    it would raise alone, in its place; a failing integral does not disturb
    the others.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    results: list = [None] * len(edge_lists)
    waiting = enumerate(edge_lists)
    trees: dict[int, _Tree] = {}
    scalar = True
    while True:
        lo: list[float] = []
        hi: list[float] = []
        owner: list[int] = []
        for i, tree in list(trees.items()):
            step = tree.advance(tol, budget, scalar)
            if isinstance(step, tuple):
                plo, phi = step
                mid = 0.5 * (plo + phi)
                lo += (plo, mid)
                hi += (mid, phi)
                owner += (i, i)
            else:
                results[i] = step
                del trees[i]
        halves = len(lo)
        admitted: list[tuple[int, int, int]] = []  # (integral, first, stop)
        while len(trees) + len(admitted) < LOCKSTEP_LIVE:
            i, edges = next(waiting, (None, None))
            if i is None:
                break
            edges = sorted(set(np.asarray(edges, dtype=float).tolist()))
            if len(edges) < 2:
                # with no panel to integrate the result is a scalar zero
                results[i] = _EMPTY
                continue
            admitted.append((i, len(lo), len(lo) + len(edges) - 1))
            lo += edges[:-1]
            hi += edges[1:]
            owner += [i] * (len(edges) - 1)
        if not lo:
            return results
        keys, vals, errs, scalar = _panels(f, lo, hi, owner)
        for i, key, plo, phi, val, err in zip(
                owner[:halves], keys[:halves].tolist(), lo, hi,
                vals[:halves].tolist(), errs[:halves].tolist()):
            trees[i].push(key, plo, phi, val, err)
        for i, first, stop in admitted:
            trees[i] = _Tree(keys[first:stop], lo[first:stop], hi[first:stop],
                             vals[first:stop], errs[first:stop])


def adaptive_panels(f, edges, tol: float = DEFAULT_TOL,
                    budget: int = PANEL_BUDGET) -> IntegralResult:
    """Integrate f over [edges[0], edges[-1]] with initial splits at every edge.

    f must accept a numpy array of n abscissae and return shape (n,), or
    (k, n) for k integrands on one shared panel tree.  The panel whose largest
    component error is biggest is bisected first, until every component's
    summed error estimate is at most tol, so each component meets the
    tolerance it would meet as a separate integral.  Both halves of a bisected
    panel, and all initial panels, are evaluated in one call of f.  With no
    panel to integrate the result is a scalar zero.  Raises NonConvergence
    when the panel budget runs out first.  This is the one-integral case of
    ``lockstep_panels``.
    """
    res = lockstep_panels(lambda x, owner: f(x), [edges], tol=tol, budget=budget)[0]
    if isinstance(res, NonConvergence):
        raise res
    return res


def map_partition(edges, base_from, base_to) -> np.ndarray | None:
    """Move a leaf partition made on base_from onto the base edges base_to.

    Base edges are an integral's initial edges (ends, breakpoints, seeds),
    matched in sorted order.  Each interior point moves piecewise-linearly
    with the base interval it lies in, its offset taken from the nearer base
    edge, so a geometric grading towards a breakpoint moves with the
    breakpoint.  Returns the union with base_to as a strictly increasing
    array, or None (start cold) when the two bases differ in size.
    """
    old = sorted(set(map(float, base_from)))
    new = sorted(set(map(float, base_to)))
    if len(old) != len(new) or len(old) < 2:
        return None
    x = np.asarray(edges, dtype=float)
    if old == new:
        return np.union1d(x, new)
    old, new = np.array(old), np.array(new)
    x = x[(x > old[0]) & (x < old[-1])]
    j = np.searchsorted(old, x, side="right") - 1
    o_lo, o_hi, n_lo, n_hi = old[j], old[j + 1], new[j], new[j + 1]
    scale = (n_hi - n_lo) / (o_hi - o_lo)
    below, above = x - o_lo, o_hi - x
    moved = np.where(below <= above, n_lo + below * scale, n_hi - above * scale)
    return np.unique(np.concatenate((np.clip(moved, n_lo, n_hi), new)))


def semi_infinite_edges(state: ThermoState, breaks: Breakpoints,
                        tol: float = DEFAULT_TOL) -> list[float]:
    """Panel edges of an integral over x in [1, infinity): [] for an empty sea.

    The state fixes the effective cutoff X_cut; breaks become panel edges.
    """
    x_cut = fermi_x_cut(state, tol)
    if x_cut <= 1.0:
        return []
    edges = [1.0, x_cut]
    edges += [p for p in breaks.points if 1.0 < p < x_cut]
    if state.t > 0.0 and 1.0 < state.zeta < x_cut:
        # seed the Fermi surface so sharp low-t transitions start resolved
        edges.append(state.zeta)
    return edges


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

    The panel edges come from ``semi_infinite_edges``.
    """
    edges = semi_infinite_edges(state, breaks, tol)
    if not edges:
        return _EMPTY
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
