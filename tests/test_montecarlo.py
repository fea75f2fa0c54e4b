import numpy as np
import pytest

import gyrofde.montecarlo as mc
import oracles
from gyrofde.budget import FlightProfile, fde_sigma
from gyrofde.gyro import GyroErrorModel
from gyrofde.montecarlo import (EnsembleStats, compare_to_analytic,
                                run_ensemble, simulate_flight)
from gyrofde.units import DEG

SEC = 1.0 / 3600.0
SHORT = FlightProfile(duration=0.1, dt=SEC)


def keyed(entropy, *key):
    return np.random.SeedSequence(entropy=entropy, spawn_key=key)


def stat_indices(p, stride):
    """run_ensemble's stat indices: every stride steps, and the last step."""
    idx = np.arange(0, p.n_steps + 1, stride)
    return idx if idx[-1] == p.n_steps else np.append(idx, p.n_steps)


def keyed_normals(model, keys):
    """(flight, axis, draw): each key's generator's normals, axis 0 first."""
    n = mc._normals_per_axis(model)
    return np.array([np.random.default_rng(key).standard_normal((2, n)) for key in keys])


def one_flight(m, p, idx, key):
    """The (axis, stat time) errors of the flight keyed ``key``, sampled alone."""
    model = mc._interval_model(m, p, idx)
    return mc._flight_errors(model, p, keyed_normals(model, [key]))[0]


class TestSimulateFlight:
    def test_ideal_gyro_stays_on_track(self):
        _, atrk, xtrk = simulate_flight(GyroErrorModel(), SHORT, seed=1)
        assert np.all(atrk == 0.0) and np.all(xtrk == 0.0)

    def test_errors_start_at_zero(self):
        m = GyroErrorModel.from_deg(0.01, ((0.05, 0.2),), turn_on=True)
        times, atrk, xtrk = simulate_flight(m, SHORT, seed=2)
        assert atrk[0] == 0.0 and xtrk[0] == 0.0
        assert times[0] == 0.0 and times[-1] == pytest.approx(0.1)

    def test_seed_determinism(self):
        m = GyroErrorModel.from_deg(0.01, ((0.05, 0.2),))
        _, a_atrk, a_xtrk = simulate_flight(m, SHORT, seed=42)
        _, b_atrk, b_xtrk = simulate_flight(m, SHORT, seed=42)
        np.testing.assert_array_equal(a_atrk, b_atrk)
        np.testing.assert_array_equal(a_xtrk, b_xtrk)

    def test_noise_only_variance_matches_closed_form(self):
        # var ATRK(t) = N^2 R^2 t within 5% over 1e4 flights
        N = 0.005 * DEG
        m = GyroErrorModel(N, ())
        vals = np.empty(10_000)
        for i in range(len(vals)):
            _, atrk, _ = simulate_flight(m, SHORT, keyed(202, i))
            vals[i] = atrk[-1]
        expected = N * N * SHORT.R ** 2 * SHORT.duration
        assert vals.var(ddof=1) == pytest.approx(expected, rel=0.05)


class TestRunEnsemble:
    def test_zero_model_zero_stds(self):
        stats = run_ensemble(GyroErrorModel(), SHORT, 2, 1, master_seed=0,
                             stat_stride=100)
        assert np.all(stats.std == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_ensemble(GyroErrorModel(), SHORT, 1, 1, 0)
        with pytest.raises(ValueError):
            run_ensemble(GyroErrorModel(), SHORT, 2, 0, 0)
        # a flight index is one 32-bit word of the key
        with pytest.raises(ValueError):
            run_ensemble(GyroErrorModel(), SHORT, 2 ** 32 + 1, 1, 0)

    def test_seed_inputs_are_checked_as_seedsequence_checks_them(self):
        m = GyroErrorModel.from_deg(0.01, ((0.05, 0.2),))

        def std_bytes(seed):
            stats = run_ensemble(m, SHORT, 3, 2, seed, stat_stride=90)
            return stats.std.tobytes() + stats.pooled_std.tobytes()

        with pytest.raises(ValueError):
            run_ensemble(m, SHORT, 3, 2, -1, stat_stride=90)
        for seed in (1.5, "3"):
            with pytest.raises(TypeError):
                run_ensemble(m, SHORT, 3, 2, seed, stat_stride=90)
        assert std_bytes(True) == std_bytes(1)
        assert std_bytes(np.int64(5)) == std_bytes(5)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_block_size_does_not_change_the_stats(self, block, monkeypatch):
        """A group of 7 flights drawn in blocks of 1, 2 or 3 flights: a
        block's first flight is keyed by its offset in the group, and the
        group's sums add the flights in flight order across blocks."""
        m = GyroErrorModel.from_deg(0.01, ((0.05, 0.2),))
        errors = mc._flight_errors

        def run(block_floats):
            sizes = []
            monkeypatch.setattr(mc, "_flight_errors",
                                lambda *args: sizes.append(len(args[2])) or errors(*args))
            monkeypatch.setattr(mc, "_BLOCK_FLOATS", block_floats)
            stats = run_ensemble(m, SHORT, 7, 2, 17, stat_stride=90)
            return stats.std.tobytes() + stats.pooled_std.tobytes(), sizes

        default, whole = run(mc._BLOCK_FLOATS)
        assert whole == [7, 7]
        # floats per flight: (drift, theta, y) x stat times
        got, sizes = run(block * 3 * len(stat_indices(SHORT, 90)))
        assert sizes == 2 * ([block] * (7 // block) + [7 % block] * (7 % block > 0))
        assert got == default

    def test_stat_stride_keeps_endpoint(self):
        stats = run_ensemble(GyroErrorModel(), SHORT, 2, 1, 0, stat_stride=7)
        assert stats.times[-1] == pytest.approx(SHORT.duration)

    def test_worker_count_does_not_change_results(self):
        m = GyroErrorModel.from_deg(0.01, ((0.05, 0.2),))
        a = run_ensemble(m, SHORT, 5, 4, master_seed=3, stat_stride=60,
                         n_workers=1)
        b = run_ensemble(m, SHORT, 5, 4, master_seed=3, stat_stride=60,
                         n_workers=2)
        np.testing.assert_array_equal(a.std, b.std)
        np.testing.assert_array_equal(a.pooled_std[1], b.pooled_std[1])

    def test_stds_are_numpy_std_of_the_keyed_flights(self):
        """Each group's std is np.std(ddof=1) of its flights (g, i) at the
        stat times, ATRK on axis 0 and groups in order; pooled over all."""
        m = GyroErrorModel.from_deg(0.01, ((0.05, 0.2),))
        stats = run_ensemble(m, SHORT, 4, 3, master_seed=8, stat_stride=90)
        idx = np.arange(0, SHORT.n_steps + 1, 90)
        np.testing.assert_array_equal(stats.times, idx * SHORT.dt)
        # (group, flight, axis, time) -> (axis, group, flight, time)
        errs = np.array([[one_flight(m, SHORT, idx, keyed(8, g, i))
                          for i in range(4)] for g in range(3)])
        errs = errs.transpose(2, 0, 1, 3)
        np.testing.assert_allclose(stats.std, errs.std(axis=2, ddof=1),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(stats.pooled_std,
                                   errs.reshape(2, 12, -1).std(axis=1, ddof=1),
                                   rtol=1e-12, atol=0)

    def test_pool_has_no_more_workers_than_groups(self, tmp_path, monkeypatch):
        """Under fork a pool starts every worker it may use, so it may use
        one per group; a recording fake stands in, so no process starts."""
        import concurrent.futures
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        m = GyroErrorModel.from_deg(0.01, ((0.05, 0.2),))
        paths = [tmp_path / "8.csv", tmp_path / "1.csv"]
        for path, workers in zip(paths, (8, 1)):
            run_ensemble(m, SHORT, 3, 3, master_seed=5, stat_stride=90,
                         n_workers=workers).to_csv(path)
        assert sizes == [3]
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_bytes_reproducible(self, tmp_path):
        m = GyroErrorModel.from_deg(0.01, ((0.05, 0.2),))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_ensemble(m, SHORT, 3, 2, master_seed=5, stat_stride=90).to_csv(p1)
        run_ensemble(m, SHORT, 3, 2, master_seed=5, stat_stride=90).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == "t_h,group,std_atrk_km,std_xtrk_km"

    @pytest.mark.slow
    def test_doubling_flights_shrinks_group_scatter_sqrt2(self):
        m = GyroErrorModel.from_deg(0.005, ((0.02, 0.05),))
        s25 = run_ensemble(m, SHORT, 25, 150, master_seed=9,
                           stat_stride=SHORT.n_steps)
        s50 = run_ensemble(m, SHORT, 50, 150, master_seed=10,
                           stat_stride=SHORT.n_steps)
        for g25, g50 in zip(s25.std, s50.std):
            ratio = np.std(g25[:, -1], ddof=1) / np.std(g50[:, -1], ddof=1)
            assert 1.15 < ratio < 1.70  # ~sqrt(2) up to scatter of the scatter


class TestCompareToAnalytic:
    def test_analytic_against_itself_is_exact(self):
        m = GyroErrorModel.from_deg(0.005, ((0.01, 1.0),))
        p = FlightProfile()
        times = np.array([0.0, 2.5, 5.0, 10.0])
        ana = np.array([[fde_sigma(m, p, t).sigma_atrk for t in times],
                        [fde_sigma(m, p, t).sigma_xtrk for t in times]])
        stats = EnsembleStats(times=times, std=np.tile(ana[:, None], (1, 3, 1)),
                              pooled_std=ana, n_flights=100, model=m, profile=p)
        rep = compare_to_analytic(stats, m, p)
        np.testing.assert_allclose(rep.rel_dev[0], 0.0, atol=1e-15)
        np.testing.assert_allclose(rep.rel_dev[1], 0.0, atol=1e-15)
        assert np.all(rep.coverage[0] == 1.0)

    def test_model_mismatch_rejected(self):
        m = GyroErrorModel.from_deg(0.005, ((0.01, 1.0),))
        stats = run_ensemble(m, SHORT, 2, 1, 0, stat_stride=100)
        other = GyroErrorModel.from_deg(0.004, ((0.01, 1.0),))
        with pytest.raises(ValueError):
            compare_to_analytic(stats, other, SHORT)

    def test_band_width_near_14_percent_for_100_flights(self):
        m = GyroErrorModel.from_deg(0.005, ())
        stats = run_ensemble(m, SHORT, 100, 1, 0, stat_stride=SHORT.n_steps)
        rep = compare_to_analytic(stats, m, SHORT)
        assert rep.band_lo == pytest.approx(0.861, abs=0.005)
        assert rep.band_hi == pytest.approx(1.139, abs=0.005)

    def test_scaled_down_group_protocol(self):
        # 10 groups x 100 flights on a short flight: groups hug the analytic
        # curves, pooled std within a few percent
        m = GyroErrorModel.from_deg(0.005, ((0.04, 0.05),))
        p = FlightProfile(duration=0.25, dt=1 / 1440)  # 2.5 s steps, 360 of them
        stats = run_ensemble(m, p, 100, 10, master_seed=14, stat_stride=90)
        rep = compare_to_analytic(stats, m, p)
        for t, j in ((0.125, 2), (0.25, 4)):  # stat times every 90 steps
            assert rep.times[j] == pytest.approx(t)
            assert np.all(rep.coverage[:, j] >= 0.8)  # ATRK, XTRK
            assert np.all(np.abs(rep.pooled_rel_dev[:, j]) < 0.10)

    def test_report_json(self, tmp_path):
        m = GyroErrorModel.from_deg(0.01, ())
        stats = run_ensemble(m, SHORT, 5, 2, 0, stat_stride=180)
        rep = compare_to_analytic(stats, m, SHORT)
        path = tmp_path / "report.json"
        rep.to_json(path)
        import json
        doc = json.loads(path.read_text())
        assert set(doc) == {"times_h", "band", "atrk", "xtrk"}
        assert len(doc["atrk"]["coverage"]) == len(doc["times_h"])


class TestPhysicalProperties:
    def test_axes_are_independent(self):
        m = GyroErrorModel.from_deg(0.005, ((0.02, 0.05),))
        p = FlightProfile(duration=0.2, dt=SEC)
        n = 1000
        a, x = np.empty(n), np.empty(n)
        for i in range(n):
            _, atrk, xtrk = simulate_flight(m, p, keyed(31, i))
            a[i], x[i] = atrk[-1], xtrk[-1]
        rho = np.corrcoef(a, x)[0, 1]
        assert abs(rho) < 3 / np.sqrt(n)

    @pytest.mark.slow
    def test_turnon_paired_difference_matches_closed_form(self):
        # same substreams with and without the turn-on draw isolate exactly
        # the turn-on contribution; its variance is the turn-on term
        m_on = GyroErrorModel.from_deg(0.0, ((0.01, 1.0),), turn_on=True)
        m_off = GyroErrorModel.from_deg(0.0, ((0.01, 1.0),), turn_on=False)
        p = FlightProfile()
        n = 400
        diffs = np.empty(n)
        for i in range(n):
            key = keyed(77, i)
            _, _, on = simulate_flight(m_on, p, key)
            _, _, off = simulate_flight(m_off, p, key)
            diffs[i] = on[-1] - off[-1]
        expected = fde_sigma(m_on, p, p.duration).xtrk_turnon
        lo, hi = 0.867, 1.145  # 95% chi2 band for a 400-sample variance
        assert lo < diffs.var(ddof=1) / expected < hi

    @pytest.mark.slow
    def test_halving_dt_changes_pooled_std_under_1_percent(self):
        m = GyroErrorModel.from_deg(0.002, ((0.05, 0.1),))
        pooled = {}
        for dt in (1e-3, 5e-4):  # Tc/100 and Tc/200
            p = FlightProfile(v=900, duration=0.5, dt=dt)
            stats = run_ensemble(m, p, 10_000, 1, master_seed=55,
                                 stat_stride=p.n_steps)
            pooled[dt] = tuple(stats.pooled_std[:, -1])
        for ax in (0, 1):
            a, b = pooled[1e-3][ax], pooled[5e-4][ax]
            assert abs(a - b) / b < 0.01


MODELS = [
    GyroErrorModel.from_deg(0.005),
    GyroErrorModel.from_deg(0.005, ((0.01, 1.0),)),
    GyroErrorModel.from_deg(0.005, ((0.01, 1.0),), turn_on=False),
    GyroErrorModel.from_deg(0.005, ((0.01, 1.0), (0.03, 0.02))),
    GyroErrorModel.from_deg(0.005, ((0.01, 1.0), (0.03, 0.02)), turn_on=False),
    GyroErrorModel(),
    GyroErrorModel.from_deg(0.0, ((0.0, 1.0),), turn_on=False),
]
MODEL_IDS = ["noise", "one-drift", "one-drift-cold", "two-drifts", "two-drifts-cold",
             "zero", "zero-drift-cold"]


@pytest.mark.parametrize("m", MODELS, ids=MODEL_IDS)
@pytest.mark.parametrize("stride", [1, 7])
def test_simulate_flight_is_the_ensemble_path_at_every_index(m, stride, monkeypatch):
    """What run_ensemble accumulates for flight (g, i), drawn in a block
    with the other flights of its group, is that flight sampled alone at
    the same stat indices, bit for bit; at a stride of 1 it is
    simulate_flight's errors."""
    seen = []  # each block's errors, kept from the caller's in-place use
    errors = mc._flight_errors
    monkeypatch.setattr(mc, "_flight_errors",
                        lambda *args: seen.append(errors(*args)) or seen[-1].copy())
    p = FlightProfile(duration=0.05, dt=SEC)
    stats = run_ensemble(m, p, 3, 2, 19, stat_stride=stride)
    monkeypatch.undo()
    idx = stat_indices(p, stride)
    np.testing.assert_array_equal(stats.times, idx * p.dt)
    flights = np.concatenate(seen)
    assert flights.shape == (6, 2, len(idx))
    for k, v in enumerate(flights):
        g, i = divmod(k, 3)
        assert one_flight(m, p, idx, keyed(19, g, i)).tobytes() == v.tobytes()
        if stride == 1:
            times, atrk, xtrk = simulate_flight(m, p, keyed(19, g, i))
            assert times.tobytes() == stats.times.tobytes()
            assert np.array([atrk, xtrk]).tobytes() == v.tobytes()


@pytest.mark.parametrize("master", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1, 2 ** 128 + 3])
@pytest.mark.parametrize("g", [0, 7, 2 ** 32 - 1])
def test_bulk_states_are_the_keyed_pcg64_states(master, g):
    """Each flight's state is PCG64(SeedSequence(master, (g, i))).state,
    bit for bit; the pool and output words wrap without a warning."""
    states = mc._pcg64_states(master, g, 0, 257) + mc._pcg64_states(master, g, 2 ** 32 - 1, 1)
    for i, state in zip([*range(257), 2 ** 32 - 1], states):
        assert state == np.random.PCG64(keyed(master, g, i)).state


# Tc from 1e-3 h (3.6 steps of 1 s) to 1e4 h; noise alone, one and three
# drifts.  The maps do not depend on turn-on; the turn-on stds do.
MAP_MODELS = [
    GyroErrorModel.from_deg(0.005),
    GyroErrorModel.from_deg(0.005, ((0.01, 1.0),)),
    GyroErrorModel.from_deg(0.0, ((0.01, 1e-3),), turn_on=False),
    GyroErrorModel.from_deg(0.0, ((0.01, 1e4),)),
    GyroErrorModel.from_deg(0.005, ((0.01, 1e-3), (0.02, 0.3), (0.003, 1e4))),
    GyroErrorModel.from_deg(0.005, ((0.01, 1e-3), (0.02, 0.3), (0.003, 1e4)),
                            turn_on=False),
]
MAP_IDS = ["noise", "one-drift", "Tc-1e-3-cold", "Tc-1e4", "three-drifts",
           "three-drifts-cold"]
HOUR = FlightProfile(duration=1.0, dt=SEC)


@pytest.mark.parametrize("m", MAP_MODELS, ids=MAP_IDS)
@pytest.mark.parametrize("stride", [1, 7, 900, HOUR.n_steps])
def test_interval_maps_are_the_per_step_recursion(m, stride):
    """Each interval's (F^k, L L^T) is k steps of Phi <- F Phi and
    P <- F P F^T + Q, to 1e-12 relative (P scaled by its diagonal); a
    stride of 7 leaves a last interval of 2 steps.  A stride of 1 draws one
    normal per noise source and step."""
    idx = stat_indices(HOUR, stride)
    sd, segments = mc._interval_model(m, HOUR, idx)
    drifts = [d for d in m.drifts if d.K != 0.0]
    np.testing.assert_array_equal(
        sd, [d.K * np.sqrt(d.Tc / 2.0) if m.turn_on else 0.0 for d in drifts])
    lengths = np.diff(idx)
    assert sum(count for count, _, _ in segments) == len(lengths)
    start = 0
    for count, Fk, L in segments:
        assert np.all(lengths[start:start + count] == lengths[start])
        Phi, P = oracles.flight_steps(m, HOUR, int(lengths[start]))
        start += count
        np.testing.assert_allclose(Fk, Phi, rtol=1e-12, atol=1e-300)
        scale = np.sqrt(np.outer(np.diag(P), np.diag(P)))
        assert np.all(np.abs(L @ L.T - P) <= 1e-12 * scale)
    if stride == 1:
        assert segments[0][2].shape[1] == len(drifts) + (m.N > 0)


@pytest.mark.parametrize("m", MAP_MODELS, ids=MAP_IDS)
@pytest.mark.parametrize("stride", [7, 900])
def test_flight_errors_are_the_interval_recursion(m, stride):
    """The sampler's componentwise sums are x_j = F^k x_{j-1} + L z_j, run
    interval by interval on the same draws: per axis the turn-on normals,
    then each segment's (rank, count) block."""
    idx = stat_indices(HOUR, stride)
    model = mc._interval_model(m, HOUR, idx)
    sd, segments = model
    keys = [keyed(23, 0, i) for i in range(3)]
    got = mc._flight_errors(model, HOUR, keyed_normals(model, keys))
    D = len(sd)
    for key, flight in zip(keys, got):
        rng = np.random.default_rng(key)
        for axis in range(2):
            x = np.zeros(D + 2)
            x[:D] = sd * rng.standard_normal(D)
            want = [x.copy()]
            for count, Fk, L in segments:
                z = rng.standard_normal((L.shape[1], count))
                for j in range(count):
                    x = Fk @ x + L @ z[:, j]
                    want.append(x.copy())
            want = np.array(want)
            err = HOUR.R * want[:, D] if axis == 0 else want[:, D + 1]
            np.testing.assert_allclose(flight[axis], err, rtol=1e-12,
                                       atol=1e-12 * np.abs(err).max())
