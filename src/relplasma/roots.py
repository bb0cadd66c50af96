"""Brent's root finder, steppable so that independent brackets share evaluations.

``brentq`` is a step-by-step port of the C routine behind
``scipy.optimize.brentq`` (R. P. Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 4) and returns bit-identical roots.  The method is
written as a generator that yields each abscissa and receives the function
value there, so ``lockstep_brentq`` can advance many brackets together and
evaluate one step of all of them in a single call.
"""

from __future__ import annotations

import math
import sys

# the smallest relative tolerance the method honours (4 machine epsilons)
RTOL_MIN = 4.0 * sys.float_info.epsilon

MAXITER = 100


def _brent(xa: float, xb: float, xtol: float, rtol: float):
    """Yield abscissae, receive values; return (root, f(root)).

    Raises ValueError when f(xa) and f(xb) share a sign or a value is NaN,
    RuntimeError after MAXITER steps without convergence.
    """

    def value(x: float):
        fx = yield x
        fx = float(fx)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = yield from value(xpre)
    fcur = yield from value(xcur)
    if fpre == 0.0:
        return xpre, fpre
    if fcur == 0.0:
        return xcur, fcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(MAXITER):
        if fpre != 0.0 and fcur != 0.0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = yield from value(xcur)
    raise RuntimeError(f"Failed to converge after {MAXITER} iterations.")


def _check_tolerances(xtol: float, rtol: float) -> None:
    if xtol <= 0.0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL_MIN:g})")


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = RTOL_MIN) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign.

    Same steps, result and exceptions as ``scipy.optimize.brentq`` with its
    default maxiter (MAXITER) and without full_output: ValueError for a bracket
    without a sign change or a NaN value, RuntimeError after MAXITER steps;
    exceptions of f propagate.
    """
    _check_tolerances(xtol, rtol)
    steps = _brent(a, b, xtol, rtol)
    x = next(steps)
    while True:
        try:
            x = steps.send(f(x))
        except StopIteration as done:
            return done.value[0]


def lockstep_brentq(brackets, evaluate, xtol: float, rtol: float) -> list:
    """Run ``brentq`` on every (a, b) in brackets together.

    evaluate(xs) receives the abscissae of one step of all unfinished
    brackets and returns one value per abscissa, or an exception instance
    where the function is unavailable; it is called once per step.  Each
    bracket takes exactly the steps a lone ``brentq`` run takes.

    Returns one entry per bracket: (root, f(root)), or the ValueError or
    RuntimeError its lone run would raise, or the exception evaluate gave
    for it, in its place.
    """
    _check_tolerances(xtol, rtol)
    out: list = [None] * len(brackets)
    runs = {i: _brent(a, b, xtol, rtol) for i, (a, b) in enumerate(brackets)}
    pending = {i: next(run) for i, run in runs.items()}
    while pending:
        ids = list(pending)
        for i, fx in zip(ids, evaluate([pending[i] for i in ids])):
            if isinstance(fx, Exception):
                out[i] = fx
            else:
                try:
                    pending[i] = runs[i].send(fx)
                    continue
                except StopIteration as done:
                    out[i] = done.value
                except (ValueError, RuntimeError) as exc:
                    out[i] = exc
            del pending[i]
    return out
