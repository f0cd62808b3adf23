"""Sweep harness: determinism, violation logging, and table plumbing."""

import math

import pytest

from cliffsde import (
    SuiteConfig,
    SweepTable,
    Violation,
    grid_refinement_study,
    run_inequality_suite,
    run_solver_suite,
    run_suites,
    trial_seed,
)

_SMALL = SuiteConfig(trials=12, n_grid=(4,), pair_n_grid=(3,), master_seed=7)


# -- determinism -----------------------------------------------------------------


def test_same_config_reproduces_csv_bytes():
    a = run_inequality_suite(_SMALL)
    b = run_inequality_suite(_SMALL)
    assert a.to_csv() == b.to_csv()
    assert a.violations_to_csv() == b.violations_to_csv()
    assert a.passed and b.passed


def test_worker_count_does_not_change_results():
    threaded = run_inequality_suite(
        SuiteConfig(trials=12, n_grid=(4,), pair_n_grid=(3,), master_seed=7,
                    max_workers=3))
    assert threaded.to_csv() == run_inequality_suite(_SMALL).to_csv()


def test_master_seed_changes_results():
    other = run_inequality_suite(
        SuiteConfig(trials=12, n_grid=(4,), pair_n_grid=(3,), master_seed=8))
    assert other.to_csv() != run_inequality_suite(_SMALL).to_csv()


def test_trial_seed_is_stable_and_spread():
    s = trial_seed(1729, "bg_ratio", 0, 0)
    assert s == trial_seed(1729, "bg_ratio", 0, 0)
    others = {trial_seed(1729, "bg_ratio", 0, t) for t in range(50)}
    assert len(others) == 50
    assert trial_seed(1729, "norm_exchange", 0, 0) != s


# -- violation logging -----------------------------------------------------------


def test_impossible_tolerance_fills_the_violation_log():
    table = run_suites(SuiteConfig(trials=4, n_grid=(4,), ratio_tol=-0.5),
                       ["norm_exchange"])
    assert not table.passed
    assert not table.suite_passed("norm_exchange")
    assert len(table.violations) > 0
    v = table.violations[0]
    assert v.suite == "norm_exchange"
    assert v.cell.startswith("q=")
    assert v.seed != 0
    text = table.violations_to_csv()
    assert text.startswith("suite,cell,trial,seed,message\n")
    assert len(text.splitlines()) == 1 + len(table.violations)


def test_violation_row_is_csv_safe():
    v = Violation("s", "cell", 3, 99, "a,b\nc")
    assert v.csv_row() == "s,cell,3,99,a;b c"


def test_unknown_suite_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(_SMALL, ["telepathy"])


def test_empty_grids_yield_empty_tables():
    cfg = SuiteConfig(trials=4, p_grid=(), qp_pairs=(), n_grid=(4,))
    table = run_suites(cfg, ["bg_ratio", "norm_exchange"])
    assert table.passed
    assert table.to_csv() == SweepTable.CSV_HEADER + "\n"


def test_bg_ratio_suite_keeps_the_exponent_check():
    with pytest.raises(ValueError, match="p >= 2"):
        run_suites(SuiteConfig(trials=2, p_grid=(1.5,), n_grid=(4,)),
                   ["bg_ratio"])


def test_wall_times_are_recorded_outside_the_rows():
    names = ["car_identity", "parity_lemma"]
    table = run_suites(_SMALL, names)
    assert sorted(table.wall_s) == sorted(names)
    assert all(t >= 0.0 for t in table.wall_s.values())
    assert not any("wall" in row[2] for row in table.rows)
    again = run_suites(_SMALL, names)
    assert again.to_csv() == table.to_csv()
    merged = SweepTable()
    merged.merge(table)
    assert merged.wall_s == table.wall_s


# -- SweepTable plumbing -----------------------------------------------------------


def test_table_rejects_nan_and_duplicates():
    t = SweepTable()
    t.add("s", "c", "x", 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        t.add("s", "c", "x", 2.0)
    with pytest.raises(ValueError, match="NaN"):
        t.add("s", "c", "y", float("nan"))


def test_table_merge_rejects_duplicates():
    a, b = SweepTable(), SweepTable()
    a.add("s", "c", "x", 1.0)
    b.add("s", "c", "x", 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        a.merge(b)


def test_table_rows_sorted_and_worst():
    t = SweepTable()
    t.add("s", "c2", "ratio_max", 0.5)
    t.add("s", "c1", "ratio_max", 0.9)
    t.add("s", "c1", "other", 7.0)
    assert [c for (_, c, _, _) in t.rows] == ["c1", "c1", "c2"]
    assert t.worst("s", "ratio") == 0.9
    assert math.isnan(t.worst("s", "missing"))
    assert math.isnan(t.worst("absent"))
    assert t.suites() == ["s"]
    # without a substring: the suite's summary statistic, aggregated the
    # suite's way (the smallest margin is the worst)
    t.add("gronwall", "c1", "margin_min", 0.5)
    t.add("gronwall", "c2", "margin_min", 0.25)
    t.add("gronwall", "c2", "rate", 9.0)
    assert t.worst("gronwall") == 0.25


# -- refinement study ---------------------------------------------------------------


def test_refinement_compounds_toward_the_exponential():
    table = grid_refinement_study("linear_drift", n_values=(1, 2, 4))
    assert table.passed
    finals = [v for (_, c, st, v) in table.rows if st == "norm@t=1"]
    assert abs(finals[0] - 2.0) < 1e-12          # cells sort by n: 1, 2, 4
    assert finals == sorted(finals)
    assert all(v < math.e for v in finals)


def test_refinement_of_the_constant_solution():
    table = grid_refinement_study("zero", n_values=(1, 2))
    assert table.passed
    norms = [v for (_, _, st, v) in table.rows if st.startswith("norm@")]
    assert norms == [1.0] * len(norms)


# -- solver-side suites at reduced size ----------------------------------------------


def test_solver_suites_pass():
    table = run_solver_suite(SuiteConfig(trials=8))
    assert table.passed
    assert set(table.suites()) == {"picard", "uniqueness", "gronwall",
                                   "coeff_stability", "selfadjoint"}
    assert table.worst("picard", "euler_gap") <= 1e-10
