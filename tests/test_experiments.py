import math

import pytest

from gonality import (
    CSV_HEADER,
    ExperimentConfig,
    GonalityError,
    convergence_report,
    c_of,
    mix_trial_seed,
    read_records_csv,
    run_experiment,
    run_trial,
    summarize,
    write_records_csv,
)


class TestSeedMixing:
    def test_frozen_goldens(self):
        # frozen from the documented SplitMix64 chain; a change here means
        # every published experiment stops being reproducible
        assert mix_trial_seed(42, 6, 0) == 16355693856109300904
        assert mix_trial_seed(42, 6, 1) == 17913718870381654283
        assert mix_trial_seed(42, 12, 0) == 5286772449821159249
        assert mix_trial_seed(0, 1, 0) == 4964578127960768432

    def test_distinct_across_axes(self):
        seeds = {
            mix_trial_seed(master, n, trial)
            for master in (0, 1, 42)
            for n in (4, 5, 6)
            for trial in range(10)
        }
        assert len(seeds) == 90

    def test_order_independent(self):
        a = [mix_trial_seed(7, 9, t) for t in range(5)]
        b = [mix_trial_seed(7, 9, t) for t in reversed(range(5))]
        assert a == list(reversed(b))


class TestCSpec:
    def test_families(self):
        assert c_of("sqrt", 9) == 3.0
        assert c_of("log", 8) == math.log(8)
        assert c_of("4", 100) == 4.0
        assert c_of("p:0.9", 10) == 9.0

    def test_bad_specs(self):
        with pytest.raises(GonalityError):
            c_of("cube", 8)
        with pytest.raises(GonalityError):
            c_of("-1", 8)
        with pytest.raises(GonalityError):
            c_of("p:1.5", 8)


class TestConfig:
    def test_exact_mode_size_guard(self):
        with pytest.raises(GonalityError):
            ExperimentConfig(n_list=(20,), c_spec="sqrt", trials=1, seed=1, mode="exact")
        ExperimentConfig(n_list=(20,), c_spec="sqrt", trials=1, seed=1, mode="sandwich")

    def test_p_range_guard(self):
        with pytest.raises(GonalityError):
            ExperimentConfig(n_list=(4,), c_spec="8", trials=1, seed=1)

    def test_bad_mode(self):
        with pytest.raises(GonalityError):
            ExperimentConfig(n_list=(6,), c_spec="2", trials=1, seed=1, mode="fast")


class TestRunTrial:
    def test_complete_graph_row(self):
        row = run_trial(7, 1.0, 5, "exact")
        assert row.connected
        assert row.gon_exact == 6
        assert row.alpha == 1 and row.gon_ub == 6
        assert row.tw_exact == 6

    def test_empty_graph_row(self):
        row = run_trial(6, 0.0, 5, "exact")
        assert not row.connected
        assert row.alpha == 6
        assert row.gon_ub == 0
        assert row.gon_exact == 0
        assert row.genus == 0

    def test_sandwich_invariant_holds(self):
        for seed in range(10):
            row = run_trial(8, 0.5, seed, "exact", c=4.0)
            assert row.gon_lb <= row.gon_exact <= row.gon_ub
            assert row.tw_exact <= row.gon_exact

    def test_sandwich_mode_skips_exact_gonality(self):
        row = run_trial(8, 0.5, 3, "sandwich")
        assert row.gon_exact is None
        assert row.tw_exact is not None

    def test_treewidth_past_its_size_limit_is_blank(self):
        row = run_trial(17, 0.2, 1, "sandwich")
        assert row.tw_exact is None
        assert row.gon_lb == row.tw_lb

    def test_budget_caps_both_searches(self):
        for seed in range(3):
            row = run_trial(10, 0.5, seed, "exact", budget=1)
            assert not row.alpha_exact
            assert row.gon_exact is None
            assert run_trial(10, 0.5, seed, "exact").gon_exact is not None

    def test_deterministic(self):
        a = run_trial(9, 0.4, 77, "exact")
        b = run_trial(9, 0.4, 77, "exact")
        assert a == b


def small_config(**overrides):
    base = dict(n_list=(5, 6), c_spec="2.5", trials=4, seed=11, mode="exact")
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_zero_trials_header_only(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        summary, records = run_experiment(small_config(trials=0), path)
        assert records == []
        assert summary.rows == ()
        assert open(path).read() == CSV_HEADER + "\n"

    def test_csv_bytes_deterministic(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_experiment(small_config(), p1)
        run_experiment(small_config(), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_parallel_equals_sequential(self, tmp_path):
        p1, p2 = str(tmp_path / "seq.csv"), str(tmp_path / "par.csv")
        run_experiment(small_config(), p1)
        run_experiment(small_config(workers=2), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_summary_recomputable_from_csv(self, tmp_path):
        path = str(tmp_path / "run.csv")
        summary, records = run_experiment(small_config(), path)
        back = read_records_csv(path)
        assert back == records
        assert summarize(back) == summary

    def test_rows_sorted_and_complete(self, tmp_path):
        path = str(tmp_path / "run.csv")
        _, records = run_experiment(small_config(), path)
        keys = [(r.n, r.trial) for r in records]
        assert keys == sorted(keys)
        assert len(records) == 8

    def test_timings_off_by_default_on_request(self, tmp_path):
        _, records = run_experiment(small_config())
        assert all(r.ms_alpha is None and r.ms_tw is None and r.ms_gon is None for r in records)
        _, records = run_experiment(small_config(record_timings=True))
        assert all(r.ms_alpha is not None for r in records)

    def test_csv_roundtrip_with_timings(self, tmp_path):
        path = str(tmp_path / "timed.csv")
        _, records = run_experiment(small_config(record_timings=True), path)
        back = read_records_csv(path)
        # timings are rounded to microseconds in the file, so compare the rest
        assert [
            (r.n, r.trial, r.seed, r.gon_exact, r.alpha) for r in back
        ] == [(r.n, r.trial, r.seed, r.gon_exact, r.alpha) for r in records]


class TestSummaries:
    def test_genus_mean_matches_binomial_expectation(self):
        # 5% tolerance around c*n/2 after putting the component term back
        n, c, trials = 100, 5.0, 200
        from gonality import GnpParams, connected_components, genus, sample_gnp

        total_genus = 0
        total_comps = 0
        total_edges = 0
        for t in range(trials):
            g = sample_gnp(GnpParams.from_p(n, c / n, mix_trial_seed(3, n, t)))
            total_genus += genus(g)
            total_comps += len(connected_components(g))
            total_edges += g.m
        assert total_genus + n * trials - total_comps == total_edges
        corrected = (total_genus + n * trials - total_comps) / trials
        assert abs(corrected - 250.0) <= 0.05 * 250.0

    def test_complete_graph_control_series(self):
        config = ExperimentConfig(
            n_list=(4, 5, 6), c_spec="p:1", trials=2, seed=1, mode="exact"
        )
        summary, _ = run_experiment(config)
        ratios = [row.mean_gon_ratio for row in summary.rows]
        assert ratios == [(n - 1) / n for n in (4, 5, 6)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_convergence_report_needs_two_points(self):
        config = small_config(n_list=(6,))
        summary, _ = run_experiment(config)
        with pytest.raises(GonalityError):
            convergence_report(summary)

    def test_convergence_report_flags_consistency(self):
        summary, _ = run_experiment(small_config())
        report = convergence_report(summary)
        lines = report.strip().splitlines()
        assert lines[0].startswith("n,c,trials,")
        assert all(line.endswith(",1") for line in lines[1:])

    def test_frieze_column_empty_below_domain(self):
        summary, _ = run_experiment(small_config())  # c = 2.5 < e
        assert all(row.frieze_ub_ratio is None for row in summary.rows)
        config = ExperimentConfig(n_list=(8, 10), c_spec="4", trials=2, seed=2)
        summary, _ = run_experiment(config)
        expected = 1.0 - 0.5 * (math.log(4) - math.log(math.log(4)) - math.log(2) + 1)
        assert all(row.frieze_ub_ratio == expected for row in summary.rows)


def test_header_is_exactly_the_contract():
    assert CSV_HEADER == (
        "n,c,p,trial,seed,connected,genus,alpha,alpha_exact,tw_lb,tw_exact,"
        "gon_lb,gon_ub,gon_exact,mode,ms_alpha,ms_tw,ms_gon"
    )


def test_write_read_empty(tmp_path):
    path = str(tmp_path / "none.csv")
    write_records_csv([], path)
    assert read_records_csv(path) == []


@pytest.mark.parametrize("row", ["1,2", ",".join(["x"] * 18)], ids=["short", "non-numeric"])
def test_malformed_row_names_path_and_line(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\n" + row + "\n")
    with pytest.raises(GonalityError, match=rf"{path}, line 2: "):
        read_records_csv(str(path))
