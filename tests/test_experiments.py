import dataclasses
import math
import os
import pickle

import pytest

from gonality import (
    CSV_HEADER,
    ExperimentConfig,
    GonalityError,
    TrialRecord,
    convergence_report,
    c_of,
    mix_trial_seed,
    read_records_csv,
    run_experiment,
    run_trial,
    summarize,
    write_records_csv,
)
from gonality.experiments import MODES


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

    @pytest.mark.parametrize("spec", ["nan", "inf", "-inf", "p:nan", "p:inf"])
    def test_non_finite_specs(self, spec):
        with pytest.raises(GonalityError):
            c_of(spec, 8)

    @pytest.mark.parametrize("spec", [None, 5, 2.5, b"sqrt"], ids=repr)
    def test_spec_that_is_not_a_string(self, spec):
        with pytest.raises(GonalityError, match="c spec must be a string"):
            c_of(spec, 10)
        with pytest.raises(GonalityError, match="c spec must be a string"):
            ExperimentConfig(n_list=(6,), c_spec=spec, trials=1, seed=1)


class TestConfig:
    def test_exact_mode_size_guard(self):
        with pytest.raises(GonalityError):
            ExperimentConfig(n_list=(20,), c_spec="sqrt", trials=1, seed=1, mode="exact")
        ExperimentConfig(n_list=(20,), c_spec="sqrt", trials=1, seed=1, mode="sandwich")

    def test_p_range_guard(self):
        with pytest.raises(GonalityError):
            ExperimentConfig(n_list=(4,), c_spec="8", trials=1, seed=1)

    def test_n_past_what_parse_graph_reads(self):
        # c_of's math.sqrt overflowed on the first
        for n in (10**400, 10_001):
            with pytest.raises(GonalityError, match="vertex count <= 10000"):
                ExperimentConfig(n_list=(n,), c_spec="sqrt", trials=1, seed=1, mode="sandwich")

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
        # one node settles alpha only where the root's cliques already prove
        # the greedy set maximum, as they do at seed 2
        for seed, settled in [(0, False), (1, False), (2, True)]:
            row = run_trial(10, 0.5, seed, "exact", budget=1)
            full = run_trial(10, 0.5, seed, "exact")
            assert row.alpha_exact == settled
            assert row.alpha <= full.alpha
            assert row.gon_exact is None
            assert full.gon_exact is not None
            if settled:
                assert row.alpha == full.alpha

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

    def test_read_rows_share_the_mode_string(self, tmp_path):
        path = str(tmp_path / "run.csv")
        run_experiment(small_config(), path)
        back = read_records_csv(path)
        assert back and all(r.mode is MODES[0] for r in back)

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


class _SerialPool:
    """Stands in for the process pool: records the size asked for and maps
    in this process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("workers, n_list, trials, cpus, size", [
    (100000, (5,), 2, 64, 2),      # two tasks: two workers at most
    (100000, (5, 6), 4, 3, 3),     # eight tasks on three cores
    (2, (5, 6), 4, 64, 2),
    (100000, (5, 6), 4, 1, None),  # one core: no pool
    (100000, (5, 6), 4, None, None),
    (1, (5, 6), 4, 64, None),
    (100000, (5,), 1, 64, None),   # one task: no pool
])
def test_pool_size_is_capped_by_tasks_and_cores(tmp_path, monkeypatch, workers, n_list, trials, cpus, size):
    monkeypatch.setattr("gonality.experiments.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    serial, pooled = str(tmp_path / "serial.csv"), str(tmp_path / "pooled.csv")
    run_experiment(small_config(n_list=n_list, trials=trials), serial)
    assert _SerialPool.sizes == []
    run_experiment(small_config(n_list=n_list, trials=trials, workers=workers), pooled)
    assert _SerialPool.sizes == ([] if size is None else [size])
    assert open(serial, "rb").read() == open(pooled, "rb").read()


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


def test_header_follows_the_record_fields():
    assert CSV_HEADER.split(",") == [f.name for f in dataclasses.fields(TrialRecord)]


def test_record_is_slotted_and_pickles():
    # the process pool sends records back to the parent by pickle
    record = run_trial(8, 0.5, 3, "exact", trial=1, record_timings=True)
    assert not hasattr(record, "__dict__")
    assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.alpha = 0


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


GOOD_ROW = "6,2.5,0.5,0,7,1,2,3,1,2,2,2,3,3,exact,,,"


@pytest.mark.parametrize(
    "column,cell", [(5, "yes"), (8, "maybe"), (14, "banana"), (5, ""), (14, "Exact")]
)
def test_flag_and_mode_cells_are_checked(tmp_path, column, cell):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\n" + GOOD_ROW + "\n")
    (record,) = read_records_csv(str(path))
    assert record.connected and record.alpha_exact and record.mode == "exact"
    fields = GOOD_ROW.split(",")
    fields[column] = cell
    path.write_text(CSV_HEADER + "\n" + GOOD_ROW + "\n" + ",".join(fields) + "\n")
    with pytest.raises(GonalityError, match=rf"{path}, line 3: '{cell}' is not one of"):
        read_records_csv(str(path))


@pytest.mark.parametrize(
    "column,cell",
    [(0, "1_0"), (0, " 6"), (0, "6 "), (0, "+6"), (0, "06"), (0, "-0"), (0, "6.0"), (0, "٦"),
     (4, "7e0"), (13, "3_"), (10, " 2"),
     (1, "nan"), (1, "inf"), (1, "-Infinity"), (1, "2_5"), (2, " 0.5"), (2, "0.5\t"),
     (15, "NaN"), (15, "1_0.000")],
)
def test_numeric_cells_are_strict(tmp_path, column, cell):
    fields = GOOD_ROW.split(",")
    fields[column] = cell
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\n" + GOOD_ROW + "\n" + ",".join(fields) + "\n")
    with pytest.raises(GonalityError, match=rf"{path}, line 3: "):
        read_records_csv(str(path))


def test_written_numeric_cells_read_back(tmp_path):
    fields = GOOD_ROW.split(",")
    fields[1], fields[15], fields[16], fields[17] = "1e-07", "0.125", "12.000", "-0.000"
    path = tmp_path / "good.csv"
    path.write_text(CSV_HEADER + "\n" + ",".join(fields) + "\n")
    (record,) = read_records_csv(str(path))
    assert (record.n, record.c, record.ms_alpha, record.ms_gon) == (6, 1e-07, 0.125, -0.0)
