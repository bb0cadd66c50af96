import json
import math
from pathlib import Path

import numpy as np
import pytest

from relplasma import dispersion, scalar_functions
from relplasma.core import ThermoState, make_kinematics
from relplasma.dispersion import (
    BandReport,
    DispersionMode,
    _grid_responses,
    _grid_triples,
    _residual,
    _sign_scan,
    negative_index_scan,
    solve_dispersion,
)
from relplasma.limits import plasmon_frequency
from relplasma.quadrature import DEFAULT_TOL
from relplasma.response import assemble_responses, evaluate_point, response_error_bounds
from relplasma.roots import brentq
from relplasma.scalar_functions import LightConeSingular

COLD2 = ThermoState(t=0.0, zeta=2.0)
CEILINGS = json.loads((Path(__file__).parent / "work_ceilings.json").read_text())


def residual_at(omega, q, state):
    _, r = evaluate_point(make_kinematics(omega, q), state)
    mu = 1.0 / r.muInv
    return q * q - mu * r.eps * omega * omega + 2.0 * mu * r.tau * omega * q


class TestLongWavelengthMode:
    def test_single_root_matches_manual_index(self):
        sol = solve_dispersion(0.2, COLD2, mode=DispersionMode.LongWavelength)
        assert sol.regime == "LongWavelength"
        assert len(sol.qroots) == 1
        _, r = evaluate_point(make_kinematics(0.2, 0.0), COLD2)
        want = 0.2 * math.sqrt(r.eps / r.muInv)
        assert sol.qroots[0] == pytest.approx(want, rel=1e-12)
        assert sol.nIndex[0] == pytest.approx(math.sqrt(r.eps / r.muInv), rel=1e-12)
        assert sol.residual < 1e-12

    def test_evanescent_window_has_no_root(self):
        # between the two collective scales one response is negative
        sol = solve_dispersion(0.11, COLD2, mode=DispersionMode.LongWavelength)
        assert sol.qroots == ()
        assert sol.nIndex == ()

    def test_mode_accepts_strings(self):
        sol = solve_dispersion(0.2, COLD2, mode="LongWavelength")
        assert len(sol.qroots) == 1


class TestSelfConsistentMode:
    def test_root_is_genuine_and_near_longwave(self):
        # inside the both-negative band the principal mode is timelike and
        # sits within tens of percent of the q = 0 estimate
        sol = solve_dispersion(0.06, COLD2, mode=DispersionMode.SelfConsistent)
        assert sol.regime == "SelfConsistent"
        assert len(sol.qroots) >= 1
        assert sol.residual <= 1e-9
        assert list(sol.qroots) == sorted(sol.qroots)
        lw = solve_dispersion(0.06, COLD2, mode=DispersionMode.LongWavelength)
        q0 = sol.qroots[0]
        assert 0.0 < q0 < 0.06
        assert q0 == pytest.approx(lw.qroots[0], rel=0.6)
        assert abs(residual_at(0.06, q0, COLD2)) < 1e-8
        assert sol.nIndex[0] == pytest.approx(q0 / 0.06, rel=1e-14)

    def test_pole_crossings_are_not_roots(self):
        # at this frequency the only residual sign change on the grid runs
        # through a permeability pole; the filter must leave nothing behind
        sol = solve_dispersion(0.2, COLD2, mode=DispersionMode.SelfConsistent)
        assert sol.qroots == ()
        assert sol.residual == 0.0

    def test_stub_response_gives_exact_root(self):
        sol = solve_dispersion(0.3, COLD2, mode=DispersionMode.SelfConsistent,
                               response_fn=lambda w, q: (4.0, 1.0, 0.0))
        assert len(sol.qroots) == 1
        assert sol.qroots[0] == pytest.approx(0.6, rel=1e-12)
        assert sol.nIndex[0] == pytest.approx(2.0, rel=1e-12)

    def test_skips_failing_response_regions(self):
        from relplasma.scalar_functions import LightConeSingular

        def patchy(w, q):
            if 0.5 < q < 0.7:
                raise LightConeSingular("stub hole")
            return (4.0, 1.0, 0.0)

        sol = solve_dispersion(0.3, COLD2, mode=DispersionMode.SelfConsistent,
                               response_fn=patchy)
        assert sol.qroots == () or all(not 0.5 < q < 0.7 for q in sol.qroots)

    def test_response_pole_yields_no_roots_not_crash(self):
        sol = solve_dispersion(0.3, COLD2, mode=DispersionMode.SelfConsistent,
                               response_fn=lambda w, q: (4.0, 0.0, 0.0))
        assert sol.qroots == ()

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            solve_dispersion(0.0, COLD2)

    @pytest.mark.parametrize("n_grid", [-1, 0, 1])
    def test_rejects_grid_without_an_interval(self, n_grid):
        stub = lambda w, q: (4.0, 1.0, 0.0)  # noqa: E731
        with pytest.raises(ValueError, match="n_grid"):
            solve_dispersion(0.3, COLD2, response_fn=stub, n_grid=n_grid)


class TestGridScan:
    def test_grid_residuals_match_point_by_point(self):
        omega = 0.1
        # 0.1 sits on the light cone, 0.002 routes to the long-wave forms
        qs = [0.002, 0.02, 0.05, 0.1, 0.15, 0.1752, 0.4, 1.3]
        for state in (COLD2, ThermoState(t=0.05, zeta=2.0)):
            responses = _grid_responses(omega, qs, state, DEFAULT_TOL)
            for q, resp in zip(qs, responses):
                got = _residual(omega, q, resp)
                if q == omega:
                    assert isinstance(resp, LightConeSingular) and got is None
                    continue
                _, r = evaluate_point(make_kinematics(omega, q), state)
                assert resp == pytest.approx((r.eps, r.muInv, r.tau), rel=1e-13,
                                             abs=1e-15)
                assert got == pytest.approx(residual_at(omega, q, state),
                                            rel=1e-13, abs=1e-15)


class TestCertifiedScan:
    """The loose first pass must reproduce the signs of a scan at tol."""

    CASES = [(0.06, COLD2), (0.1, COLD2), (0.2, COLD2),
             (0.1, ThermoState(t=0.05, zeta=2.0)), (0.15, ThermoState(t=0.05, zeta=2.0)),
             (0.04, ThermoState(t=0.0, zeta=1.5))]

    @staticmethod
    def signs(vals):
        return [None if v is None else (v > 0.0) - (v < 0.0) for v in vals]

    @staticmethod
    def single_pass(monkeypatch):
        monkeypatch.setattr(dispersion, "SCAN_TOL", 0.0)

    @pytest.mark.parametrize("omega, state", CASES)
    def test_solution_equals_single_pass_at_tol(self, omega, state, monkeypatch):
        two = solve_dispersion(omega, state, n_grid=128)
        self.single_pass(monkeypatch)
        assert solve_dispersion(omega, state, n_grid=128) == two

    def test_signs_near_a_permeability_pole(self, monkeypatch):
        # at omega = 0.2 the residual changes sign through a muInv pole; grid
        # points crowd in on it from both sides
        omega = 0.2
        grid = np.linspace(0.013, 0.4, 40).tolist()
        for state in (COLD2, ThermoState(t=0.05, zeta=2.0)):
            def mu_inv(q):
                return _grid_responses(omega, [q], state, DEFAULT_TOL)[0][1]

            k = next(i for i in range(len(grid) - 1)
                     if mu_inv(grid[i]) > 0.0 > mu_inv(grid[i + 1]))
            pole = brentq(mu_inv, grid[k], grid[k + 1], xtol=1e-15, rtol=1e-14)
            near = sorted(grid + [pole * (1.0 + s * d) for s in (-1.0, 1.0)
                                  for d in (1e-3, 1e-6, 1e-9, 1e-12)])
            two = _sign_scan(omega, near, state, DEFAULT_TOL)
            with monkeypatch.context() as m:
                self.single_pass(m)
                one = _sign_scan(omega, near, state, DEFAULT_TOL)
            assert self.signs(two) == self.signs(one)

    @staticmethod
    def count_warm_starts(monkeypatch):
        """Count the seeds scalar_triples receives and the cold fallbacks."""
        seen = {"seeded": 0, "cold": 0}
        mapped = scalar_functions.map_partition

        def spy(edges, base_from, base_to):
            out = mapped(edges, base_from, base_to)
            seen["cold" if out is None else "seeded"] += 1
            return out

        monkeypatch.setattr(scalar_functions, "map_partition", spy)
        return seen

    @pytest.mark.parametrize("state", [COLD2, ThermoState(t=0.05, zeta=2.0)])
    def test_warm_scan_signs_near_a_permeability_zero(self, state, monkeypatch):
        # a dense grid across the muInv zero at omega = 0.2: the loose scan
        # starts most points from a neighbour's partition, and every sign it
        # reports must be that of a cold scan at the full tol
        omega = 0.2
        coarse = np.linspace(0.013, 0.4, 40).tolist()

        def mu_inv(q):
            return _grid_responses(omega, [q], state, DEFAULT_TOL)[0][1]

        k = next(i for i in range(len(coarse) - 1)
                 if mu_inv(coarse[i]) > 0.0 > mu_inv(coarse[i + 1]))
        pole = brentq(mu_inv, coarse[k], coarse[k + 1], xtol=1e-15, rtol=1e-14)
        grid = sorted(np.linspace(0.8 * pole, 1.2 * pole, 96).tolist()
                      + [pole * (1.0 + s * d) for s in (-1.0, 1.0)
                         for d in (1e-3, 1e-6, 1e-9, 1e-12)])
        with monkeypatch.context() as m:
            seen = self.count_warm_starts(m)
            warm = _sign_scan(omega, grid, state, DEFAULT_TOL)
        assert seen["seeded"] > 0.8 * len(grid)
        self.single_pass(monkeypatch)
        cold = _sign_scan(omega, grid, state, DEFAULT_TOL)
        assert self.signs(warm) == self.signs(cold)

    @pytest.mark.parametrize("state", [COLD2, ThermoState(t=0.05, zeta=2.0)])
    def test_warm_scan_across_the_light_cone(self, state, monkeypatch):
        # the breakpoint count changes at q = omega, so points seeded from a
        # cold point on the other side must start cold
        omega = 0.1
        grid = [q for q in np.linspace(0.06, 0.14, 64).tolist()
                if abs(q - omega) > 1e-6]
        counts = {len(set(scalar_functions._medium_edges(
            make_kinematics(omega, q), state, dispersion.SCAN_TOL))) for q in grid}
        assert len(counts) > 1
        with monkeypatch.context() as m:
            seen = self.count_warm_starts(m)
            warm = _sign_scan(omega, grid, state, DEFAULT_TOL)
        assert seen["cold"] > 0 and seen["seeded"] > 0
        self.single_pass(monkeypatch)
        assert self.signs(warm) == self.signs(_sign_scan(omega, grid, state, DEFAULT_TOL))

    @pytest.mark.parametrize("omega, state", CASES[1:4])
    def test_grid_signs_equal_single_pass(self, omega, state, monkeypatch):
        grid = np.linspace(0.005, 0.5, 200).tolist()
        two = _sign_scan(omega, grid, state, DEFAULT_TOL)
        self.single_pass(monkeypatch)
        assert self.signs(two) == self.signs(_sign_scan(omega, grid, state, DEFAULT_TOL))

    def test_error_bounds_cover_loose_responses(self):
        # the bound the certification rests on, against a 100x tighter run
        grid = np.linspace(0.005, 0.5, 60).tolist()
        for state in (COLD2, ThermoState(t=0.05, zeta=2.0)):
            loose = _grid_triples(0.1, grid, state, dispersion.SCAN_TOL)
            tight = _grid_responses(0.1, grid, state, DEFAULT_TOL / 100.0)
            for (kin, tr), ref in zip(loose, tight):
                if isinstance(tr, Exception):
                    continue
                r = assemble_responses(tr, kin)
                bounds = response_error_bounds(tr, kin)
                for got, want, bound in zip((r.eps, r.muInv, r.tau), ref, bounds):
                    assert abs(got - want) <= bound


class TestWorkCounters:
    """Deterministic work counts against the ceilings in work_ceilings.json."""

    def test_scan_integrand_work(self, monkeypatch):
        nodes = []
        occupation = scalar_functions.fermi_occupation

        def counted(x, state):
            nodes.append(x.size)
            return occupation(x, state)

        monkeypatch.setattr(scalar_functions, "fermi_occupation", counted)
        sol = solve_dispersion(0.1, COLD2, n_grid=64)
        assert len(sol.qroots) == 2
        assert len(nodes) <= CEILINGS["solve_dispersion.fermi_occupation_calls"]["ceiling"]
        # every panel is one 15-node Gauss-Kronrod pass
        assert sum(nodes) / 15 <= CEILINGS["solve_dispersion.panels"]["ceiling"]

    def test_response_evaluations_per_solve(self):
        # n_grid scan points and the brentq polish; the polish returns the
        # residual at its root, so no point is evaluated twice for it
        calls = []

        def stub(w, q):
            calls.append(q)
            return (4.0, 1.0, 0.0)

        sol = solve_dispersion(0.3, COLD2, response_fn=stub, n_grid=64)
        assert len(sol.qroots) == 1
        assert len(calls) <= CEILINGS["solve_dispersion.stub_response_evals"]["ceiling"]


class TestNegativeIndexScan:
    def test_band_ends_at_permittivity_root(self):
        report = negative_index_scan(COLD2, 0.05, 0.12, 40)
        assert isinstance(report, BandReport)
        assert len(report.omegaGrid) == 40
        assert len(report.epsVals) == 40 and len(report.muInvVals) == 40
        assert report.negativeBand is not None
        lo, hi = report.negativeBand
        assert lo == pytest.approx(0.05, abs=1e-9)
        _, eps_root = plasmon_frequency(COLD2)
        assert hi == pytest.approx(eps_root, rel=1e-5)
        inside = 0.5 * (lo + hi)
        _, r = evaluate_point(make_kinematics(inside, 0.0), COLD2)
        assert r.eps < 0 and r.muInv < 0

    def test_clean_window_reports_no_band(self):
        report = negative_index_scan(COLD2, 0.14, 0.2, 16)
        assert report.negativeBand is None

    def test_grid_values_are_consistent(self):
        report = negative_index_scan(COLD2, 0.05, 0.12, 8)
        _, r = evaluate_point(make_kinematics(report.omegaGrid[0], 0.0), COLD2)
        assert report.epsVals[0] == pytest.approx(r.eps, rel=1e-12)
        assert report.muInvVals[0] == pytest.approx(r.muInv, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            negative_index_scan(COLD2, 0.2, 0.1, 8)
        with pytest.raises(ValueError):
            negative_index_scan(COLD2, 0.05, 0.12, 1)
