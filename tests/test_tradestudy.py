import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrofde.gyro import DriftSpec, GyroErrorModel
from gyrofde.tradestudy import (RequirementTarget, check_requirement, fde95_of,
                                fde_grid, grid_to_csv, solve_K, solve_K_contour)
from gyrofde.units import DEG, NMI_KM

RNP10 = RequirementTarget()  # 10 nmi over 10 h at 900 km/h


def model(N_deg, K_deg=0.0, Tc=1.0):
    drifts = (DriftSpec(K_deg * DEG, Tc),) if K_deg > 0 else ()
    return GyroErrorModel(N_deg * DEG, drifts, turn_on=True)


class TestRequirementTarget:
    def test_defaults(self):
        assert RNP10.fde95 == pytest.approx(18.52)
        assert RNP10.flight.duration == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RequirementTarget(fde95=0.0)


class TestCheckRequirement:
    def test_ideal_gyro_passes_with_full_margin(self):
        res = check_requirement(GyroErrorModel(), RNP10)
        assert res.passed and res.margin_nmi == pytest.approx(RNP10.fde95 / NMI_KM)

    def test_marginal_noise_value(self):
        # N = 0.02 deg/sqrt(h) alone sits within 5% of the 10 nmi ceiling
        res = check_requirement(model(0.02), RNP10)
        assert res.budget.fde95_nmi == pytest.approx(10.0, rel=0.05)

    def test_high_noise_fails(self):
        res = check_requirement(model(0.1), RNP10)
        assert not res.passed and res.margin_nmi < 0


class TestSolveK:
    def test_plateau_value(self):
        # low-noise plateau at Tc = 1 h: K ~ 2.1e-2 deg/h^1.5 within 10%
        k = solve_K(1e-3 * DEG, 1.0, RNP10)
        assert k is not None
        assert k / DEG == pytest.approx(2.1e-2, rel=0.10)

    def test_infeasible_when_noise_alone_exceeds(self):
        assert solve_K(0.05 * DEG, 1.0, RNP10) is None

    def test_monotone_in_target(self):
        targets = [RequirementTarget(fde95=f) for f in (10.0, 18.52, 40.0, 100.0)]
        ks = [solve_K(1e-3 * DEG, 1.0, r) for r in targets]
        assert all(k is not None for k in ks)
        assert np.all(np.diff(ks) > 0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1e-5, max_value=1.5e-2),
           st.floats(min_value=0.05, max_value=20.0))
    def test_residual_bound(self, N_deg, Tc):
        k = solve_K(N_deg * DEG, Tc, RNP10)
        assert k is not None
        achieved = fde95_of(GyroErrorModel(N_deg * DEG,
                                           (DriftSpec(k, Tc),)), RNP10)
        assert abs(achieved - RNP10.fde95) / RNP10.fde95 <= 2e-4

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_K(-1.0, 1.0, RNP10)
        with pytest.raises(ValueError):
            solve_K(0.0, 0.0, RNP10)


class TestSolveTc:
    def test_long_time_constant_requirement(self):
        # Tc = 10 h requirement lands near 3.7e-3 deg/h^1.5
        k10 = solve_K(1e-3 * DEG, 10.0, RNP10)
        assert k10 / DEG == pytest.approx(3.7e-3, rel=0.10)


class TestFdeGrid:
    def test_degenerate_grid_matches_point_evaluation(self):
        N, K = 5e-3 * DEG, 1e-2 * DEG
        grid = fde_grid([N], [K], 1.0, RNP10)
        direct = fde95_of(GyroErrorModel(N, (DriftSpec(K, 1.0),)), RNP10)
        assert grid[0, 0] == direct

    def test_monotone_along_both_axes(self):
        N = np.geomspace(1e-4, 1e-1, 12) * DEG
        K = np.geomspace(1e-3, 1e-1, 12) * DEG
        grid = fde_grid(N, K, 1.0, RNP10)
        assert np.all(np.diff(grid, axis=0) > 0)
        assert np.all(np.diff(grid, axis=1) > 0)

    def test_solver_crossing_brackets_grid_cells(self):
        N = 1e-3 * DEG
        K = np.geomspace(1e-3, 1e-1, 40) * DEG
        row = fde_grid([N], K, 1.0, RNP10)[0]
        k_star = solve_K(N, 1.0, RNP10)
        below = K[row < RNP10.fde95]
        above = K[row > RNP10.fde95]
        assert below[-1] < k_star < above[0]

    def test_rejects_empty_ranges(self):
        with pytest.raises(ValueError):
            fde_grid([], [1e-3], 1.0, RNP10)

    def test_grid_csv(self, tmp_path):
        N = np.array([1e-3, 1e-2]) * DEG
        K = np.array([1e-3, 1e-2]) * DEG
        path = tmp_path / "grid.csv"
        grid_to_csv(path, N, K, fde_grid(N, K, 1.0, RNP10))
        lines = path.read_text().splitlines()
        assert lines[0] == "N_deg_sqrth,K_deg_h32,fde95_nmi"
        assert len(lines) == 5


class TestContour:
    def test_plateau_flat_and_boundary_location(self):
        r = RNP10
        N_grid = np.geomspace(1e-4, 1e-3, 6) * DEG
        cont = solve_K_contour(N_grid, 1.0, r)
        assert np.all(cont.feasible)
        ks = cont.K_values
        assert (ks.max() - ks.min()) / ks.min() < 0.03  # the plateau

        # noise-only feasibility boundary near N = 2e-2 deg/sqrt(h)
        lo, hi = 1e-2 * DEG, 4e-2 * DEG
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if solve_K(mid, 1.0, r) is None:
                hi = mid
            else:
                lo = mid
        boundary = 0.5 * (lo + hi) / DEG
        assert boundary == pytest.approx(2e-2, rel=0.10)

    def test_contour_csv(self, tmp_path):
        cont = solve_K_contour(np.array([1e-3, 5e-2]) * DEG, 1.0, RNP10)
        path = tmp_path / "contour.csv"
        cont.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "N_deg_sqrth,K_deg_h32,feasible"
        assert lines[1].endswith(",1") and lines[2].endswith(",0")


class TestSolveKExact:
    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1e-5, max_value=2e-2),
           st.floats(min_value=0.05, max_value=20.0),
           st.floats(min_value=5.0, max_value=100.0))
    def test_two_sigma_on_target(self, N_deg, Tc, target_km):
        r = RequirementTarget(fde95=target_km)
        k = solve_K(N_deg * DEG, Tc, r)
        noise_only = fde95_of(GyroErrorModel(N_deg * DEG), r)
        assert (k is None) == (noise_only > r.fde95)
        if k is not None:
            achieved = fde95_of(GyroErrorModel(N_deg * DEG,
                                               (DriftSpec(k, Tc),)), r)
            assert abs(achieved - r.fde95) / r.fde95 <= 1e-12

    def test_compliance_verdict_is_a_python_bool(self):
        assert type(check_requirement(model(0.005, 0.01), RNP10).passed) is bool


class TestOneBudgetPerQuestion:
    @pytest.mark.parametrize("Tc", [1.0, 100.0])  # across the series cutover; series side
    @pytest.mark.parametrize("target_km", [7.408, 18.52, 55.56])
    def test_solve_K_array_equals_float_calls(self, Tc, target_km):
        r = RequirementTarget(fde95=target_km)
        N = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 400)]) * DEG
        K = solve_K(N, Tc, r)
        floats = [solve_K(float(n), Tc, r) for n in N]
        assert np.isnan(K).tolist() == [k is None for k in floats]
        assert 0 < np.isnan(K).sum() < len(N)
        assert K[~np.isnan(K)].tolist() == [k for k in floats if k is not None]

    def test_solve_K_array_rejects_what_the_specs_reject(self):
        for bad in ([1e-3, -1e-3], [1e-3, np.nan], [1e-3, np.inf]):
            with pytest.raises(ValueError):
                solve_K(np.array(bad) * DEG, 1.0, RNP10)
        with pytest.raises(ValueError):
            solve_K(np.array([1e-3]) * DEG, 0.0, RNP10)

    def test_contour_is_the_array_solve(self):
        N = np.geomspace(1e-5, 1.0, 50) * DEG
        cont = solve_K_contour(N, 10.0, RNP10)
        K = solve_K(N, 10.0, RNP10)
        assert np.array_equal(cont.K_values, K, equal_nan=True)
        assert cont.feasible.tolist() == (~np.isnan(K)).tolist()
