"""Spans around relplasma's layers, recorded from outside the program.

Each public function is wrapped where callers look it up: the module
attribute of the calling module (``from .x import f`` copies the binding, so
``relplasma.dispersion.evaluate_point`` and ``relplasma.response.evaluate_point``
are separate sites).  The integrand handed to ``adaptive_panels`` is wrapped
per call.  Spans live in flat arrays while the run lasts, are written once at
the end, and every wrapped attribute is put back on exit.
"""
from __future__ import annotations

import math
from array import array
from time import perf_counter

import numpy as np

from relplasma import (cli, dispersion, limits, quadrature, response,
                       scalar_functions)
from relplasma.core import Regime

CLI_OP = -2

# span name -> the module attributes that bind it
SITES = {
    "core.fermi_occupation": [(scalar_functions, "fermi_occupation")],
    "quadrature.adaptive_panels": [(quadrature, "adaptive_panels"),
                                   (scalar_functions, "adaptive_panels")],
    "scalar_functions.scalar_triple": [(response, "scalar_triple"),
                                       (limits, "scalar_triple")],
    "response.assemble": [(response, "assemble_responses"),
                          (limits, "assemble_responses")],
    "response.evaluate_point": [(response, "evaluate_point"),
                                (dispersion, "evaluate_point"),
                                (cli, "evaluate_point")],
    "limits.thomas_fermi_mass2": [(limits, "thomas_fermi_mass2"),
                                  (dispersion, "thomas_fermi_mass2"),
                                  (cli, "thomas_fermi_mass2")],
    "limits.plasmon_frequency": [(limits, "plasmon_frequency"),
                                 (cli, "plasmon_frequency")],
    "dispersion.solve_dispersion": [(dispersion, "solve_dispersion"),
                                    (cli, "solve_dispersion")],
    "dispersion.negative_index_scan": [(dispersion, "negative_index_scan"),
                                       (cli, "negative_index_scan")],
    "dispersion.brentq": [(dispersion, "brentq")],
    "cli.main": [(cli, "main")],
}
OP = "op"
INTEGRAND = "quadrature.integrand"
NAMES = [OP, INTEGRAND, *SITES]
CODE = {name: i for i, name in enumerate(NAMES)}

ROUTES = tuple(r.value for r in Regime)


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _route(args, kwargs) -> str:
    kin, state = _arg(args, kwargs, 0, "kin"), _arg(args, kwargs, 1, "state")
    reg = kwargs.get("regime", args[2] if len(args) > 2 else None)
    reg = scalar_functions.select_regime(kin, state) if reg is None else Regime(reg)
    return f"{reg.value}.{'thermal' if state.t > 0.0 else 't0'}"


class Tracer:
    """Context manager that wraps every site in SITES and records spans.

    Per span: name code, start, end, parent span, operation id and one
    number (integrand nodes, leaf panels, muInv or root count).  Spans that
    raised and the route of each scalar_triple span are kept by index.
    """

    def __init__(self) -> None:
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.value = array("d")
        self.raised: set[int] = set()
        self.route: dict[int, str] = {}
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, code: int) -> int:
        idx = len(self.name)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.value.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def call(self, code: int, fn, args=(), kwargs=None):
        kwargs = kwargs or {}
        idx = self._open(code)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self._close(idx)
            self.raised.add(idx)
            raise
        self._close(idx)
        return idx, out

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark operation as a root span."""
        self.op = op_id
        try:
            return self.call(CODE[OP], fn, args)[1]
        finally:
            self.op = -1

    def _wrap(self, name: str, fn):
        code = CODE[name]
        tracer = self

        if name == "quadrature.adaptive_panels":
            integrand_code = CODE[INTEGRAND]

            def wrapper(f, *args, **kwargs):
                def traced_f(x):
                    idx, out = tracer.call(integrand_code, f, (x,))
                    tracer.value[idx] = np.size(x)
                    return out
                idx, out = tracer.call(code, fn, (traced_f, *args), kwargs)
                tracer.value[idx] = out.panels
                return out
        elif name == "scalar_functions.scalar_triple":
            def wrapper(*args, **kwargs):
                idx = len(tracer.name)
                tracer.route[idx] = _route(args, kwargs)
                return tracer.call(code, fn, args, kwargs)[1]
        elif name == "response.evaluate_point":
            def wrapper(*args, **kwargs):
                idx, out = tracer.call(code, fn, args, kwargs)
                tracer.value[idx] = out[1].muInv
                return out
        elif name == "dispersion.solve_dispersion":
            def wrapper(*args, **kwargs):
                idx, out = tracer.call(code, fn, args, kwargs)
                tracer.value[idx] = len(out.qroots)
                return out
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(code, fn, args, kwargs)[1]
        return wrapper

    def __enter__(self) -> "Tracer":
        try:
            for name, sites in SITES.items():
                for module, attr in sites:
                    fn = getattr(module, attr)
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(name, fn))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # -- output ------------------------------------------------------------

    def save(self, path) -> None:
        raised = np.zeros(len(self.name), dtype=bool)
        raised[list(self.raised)] = True
        np.savez_compressed(
            path, names=np.array(NAMES), name=np.frombuffer(self.name, np.int8),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, np.int32),
            op=np.frombuffer(self.op_of, np.int32),
            value=np.frombuffer(self.value), raised=raised)


def unit_of(metric: str) -> str:
    if metric.endswith("ms"):
        return "ms"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith(("_frac", "_per_call", "_per_bracket")):
        return "ratio"
    return "count"


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer numbers from the spans of one traced pass.

    Generic counts and times are per operation; dispersion counters are per
    solve (per omega) or per band scan.  Spans under the CLI call are kept
    apart and give only the cli.* numbers.
    """
    n = len(tr.name)
    names = np.frombuffer(tr.name, np.int8)
    dur = np.frombuffer(tr.end) - np.frombuffer(tr.start)
    parent = np.frombuffer(tr.parent, np.int32)
    op = np.frombuffer(tr.op_of, np.int32)
    value = np.frombuffer(tr.value)

    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child

    # nearest enclosing span of each kind; parents precede children
    kinds = ("scalar_functions.scalar_triple", "dispersion.solve_dispersion",
             "dispersion.brentq", "dispersion.negative_index_scan")
    codes = [CODE[k] for k in kinds]
    name_l, parent_l = names.tolist(), parent.tolist()
    found = [[-1] * n for _ in kinds]
    for i, p in enumerate(parent_l):
        if p >= 0:
            pc = name_l[p]
            for k, code in enumerate(codes):
                found[k][i] = p if pc == code else found[k][p]
    enclosing = {k: np.array(f) for k, f in zip(kinds, found)}

    lib = op >= 0
    n_ops = int(np.count_nonzero(lib & (names == CODE[OP])))

    def sel(name: str) -> np.ndarray:
        return lib & (names == CODE[name])

    def per_op(x: float) -> float:
        return x / n_ops if n_ops else 0.0

    m: dict[str, float] = {}
    fo = sel("core.fermi_occupation")
    m["core.fermi_occupation.calls"] = per_op(fo.sum())
    m["core.fermi_occupation.ms"] = per_op(dur[fo].sum() * 1e3)

    ap, ig = sel("quadrature.adaptive_panels"), sel(INTEGRAND)
    calls = int(ig.sum())
    leaves = value[ap].sum()
    m["quadrature.integrals"] = per_op(ap.sum())
    m["quadrature.integrand_calls"] = per_op(calls)
    m["quadrature.nodes"] = per_op(value[ig].sum())
    m["quadrature.leaf_panels"] = per_op(leaves)
    m["quadrature.leaf_per_call"] = leaves / calls if calls else 0.0
    m["quadrature.integrand_ms"] = per_op(dur[ig].sum() * 1e3)
    m["quadrature.driver_ms"] = per_op(self_t[ap].sum() * 1e3)
    m["quadrature.nonconverged"] = per_op(
        sum(1 for i in tr.raised if ap[i]))

    by_route: dict[str, list[int]] = {}
    for i, key in tr.route.items():
        if lib[i]:
            by_route.setdefault(key, []).append(i)
    st_of = enclosing["scalar_functions.scalar_triple"]
    for route in ROUTES:
        for temp in ("t0", "thermal"):
            key = f"{route}.{temp}"
            idx = np.array(by_route.get(key, []), dtype=np.int64)
            m[f"scalar_functions.{key}.calls"] = per_op(len(idx))
            m[f"scalar_functions.{key}.ms"] = per_op(dur[idx].sum() * 1e3)
            m[f"scalar_functions.{key}.integrand_calls"] = per_op(
                np.count_nonzero(ig & np.isin(st_of, idx)))

    asm, ep = sel("response.assemble"), sel("response.evaluate_point")
    m["response.assemble.calls"] = per_op(asm.sum())
    m["response.assemble.ms"] = per_op(dur[asm].sum() * 1e3)
    m["response.evaluate_point.self_ms"] = per_op(self_t[ep].sum() * 1e3)

    for name in ("limits.thomas_fermi_mass2", "limits.plasmon_frequency"):
        s = sel(name)
        m[f"{name}.calls"] = per_op(s.sum())
        m[f"{name}.ms"] = per_op(dur[s].sum() * 1e3)

    sd, nis, bq = (sel("dispersion.solve_dispersion"),
                   sel("dispersion.negative_index_scan"),
                   sel("dispersion.brentq"))
    solves, scans, brackets = int(sd.sum()), int(nis.sum()), int(bq.sum())
    in_solve = ep & (enclosing["dispersion.solve_dispersion"] >= 0)
    in_polish = in_solve & (enclosing["dispersion.brentq"] >= 0)
    guard = dispersion.MU_INV_GUARD
    skipped = sum(1 for i in np.flatnonzero(in_solve)
                  if i in tr.raised or not math.isfinite(value[i])
                  or abs(value[i]) < guard)
    roots = value[sd].sum()

    def per_solve(x: float) -> float:
        return x / solves if solves else 0.0

    m["dispersion.evals_per_omega"] = per_solve(in_solve.sum())
    m["dispersion.scan_evals"] = per_solve(in_solve.sum() - in_polish.sum())
    m["dispersion.polish_evals"] = per_solve(in_polish.sum())
    m["dispersion.brackets"] = per_solve(brackets)
    m["dispersion.roots"] = per_solve(roots)
    m["dispersion.roots_per_bracket"] = roots / brackets if brackets else 0.0
    m["dispersion.skipped_evals"] = per_solve(skipped)
    in_scan = ep & (enclosing["dispersion.negative_index_scan"] >= 0)
    m["dispersion.band_evals_per_scan"] = in_scan.sum() / scans if scans else 0.0
    m["dispersion.self_ms"] = per_op(self_t[sd | nis | bq].sum() * 1e3)

    cm = (op == CLI_OP) & (names == CODE["cli.main"])
    m["cli.self_ms"] = float(self_t[cm].sum() * 1e3)
    return {k: float(v) for k, v in m.items()}
