"""Sweep harness: determinism, violation logging, and table plumbing."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsde import (
    ConfigurationError,
    Driver,
    SuiteConfig,
    SweepTable,
    Violation,
    grid_refinement_study,
    run_inequality_suite,
    run_solver_suite,
    run_suites,
    make_space,
    trial_seed,
)
from cliffsde import TimeGrid, experiments, integrals
from cliffsde.grid import is_count
from cliffsde.integrals import (_bg_norms, _generator, _norm_exchange_sides,
                                _seed_states, _spawn_entropy, _trial_chunks)
from cliffsde.process import _random_stack

_SMALL = SuiteConfig(trials=12, n=4, master_seed=7)


def _space(n, layout="fermion"):
    return make_space(TimeGrid.uniform(0.0, 1.0, n), layout=layout)


# -- determinism -----------------------------------------------------------------


def test_same_config_reproduces_csv_bytes():
    a = run_inequality_suite(_SMALL)
    b = run_inequality_suite(_SMALL)
    assert a.to_csv() == b.to_csv()
    assert a.violations_to_csv() == b.violations_to_csv()
    assert a.passed and b.passed


def test_seeded_inequality_suites_match_the_committed_bytes():
    # stats and violations of every inequality suite at the default sizes;
    # the chunked draws and kernels must reproduce the per-trial bytes
    fixture = Path(__file__).parent / "data" / "verify_seed1729_trials200.csv"
    table = run_inequality_suite(SuiteConfig(master_seed=1729, trials=200))
    assert (table.to_csv() + table.violations_to_csv()).encode() == \
        fixture.read_bytes()


@pytest.mark.parametrize("key,value", [
    ("trials", 0), ("trials", -2), ("max_workers", 0), ("max_workers", -2),
    ("n", 0), ("n", 15), ("n", 30), ("n", -1), ("n", 8.0), ("n", (8,)),
    ("n", True), ("n", np.True_), ("trials", 2.5), ("trials", True),
    ("master_seed", -1),
    ("master_seed", 1.5), ("master_seed", True), ("master_seed", False),
    ("master_seed", "7"),
    # worker counts that passed a bare ">= 1" or escaped it as a TypeError
    ("max_workers", True), ("max_workers", np.True_), ("max_workers", 1.5),
    ("max_workers", 2.0), ("max_workers", math.inf), ("max_workers", "2"),
    ("max_workers", None),
])
def test_out_of_range_sizes_are_rejected_naming_the_field(key, value):
    with pytest.raises(ConfigurationError, match=f"^{key} out of range") as exc:
        SuiteConfig(**{key: value})
    assert exc.value.key == key


def test_the_largest_sizes_are_accepted():
    assert SuiteConfig(trials=1, max_workers=1, n=1).n == 1
    assert SuiteConfig(n=np.int64(14)).n == 14
    assert SuiteConfig(trials=1, max_workers=np.int64(2)).max_workers == 2


def test_a_numpy_integer_seed_is_accepted():
    assert SuiteConfig(master_seed=np.uint64(2 ** 63)).master_seed == 2 ** 63
    assert SuiteConfig(master_seed=0).master_seed == 0


@pytest.mark.parametrize("value", [0, 1, 7, -1, 1.5, 2.0, True, False, "7", None,
                                   np.int32(-1), np.int64(3), np.uint64(2 ** 63),
                                   np.bool_(True), 14, 15, np.int64(14),
                                   np.int64(15), 14.0])
def test_seeds_and_trial_counts_are_the_counts_of_is_count(value):
    """SuiteConfig inlines grid.is_count; both accept the same values, and
    an increment count is also at most the generator budget."""
    for key, least, most in (("master_seed", 0, math.inf),
                             ("trials", 1, math.inf), ("n", 1, 14)):
        try:
            SuiteConfig(**{key: value})
        except ConfigurationError:
            accepted = False
        else:
            accepted = True
        assert accepted == (is_count(value, least) and value <= most), key


def test_worker_count_does_not_change_results():
    threaded = run_inequality_suite(
        SuiteConfig(trials=12, n=4, master_seed=7, max_workers=3))
    assert threaded.to_csv() == run_inequality_suite(_SMALL).to_csv()


def test_worker_threads_over_several_chunks_do_not_change_results():
    # two full chunks at n = 8 and one more trial make three chunks
    chunk = len(_trial_chunks(_space(8), 10 ** 6)[0])
    config = SuiteConfig(trials=2 * chunk + 1, n=8, master_seed=5)
    assert len(_trial_chunks(_space(8), config.trials)) == 3
    names = ["bg_ratio", "norm_exchange"]
    threaded = run_suites(SuiteConfig(**{**vars(config), "max_workers": 2}),
                          names)
    single = run_suites(config, names)
    assert threaded.to_csv() == single.to_csv()
    assert threaded.violations_to_csv() == single.violations_to_csv()


def test_one_trial_chunks_write_the_same_bytes(monkeypatch):
    # chunk size is a memory knob only: each trial draws from its own seed
    # and every stacked reduction gives each trial the bits it gives alone,
    # from one trial per chunk to one chunk per cell
    config = SuiteConfig(trials=25, n=8, master_seed=11)
    names = ["bg_ratio", "norm_exchange"]
    assert len(_trial_chunks(_space(8), config.trials)) > 1
    assert len(_trial_chunks(_space(4, "pair"), config.trials)) == 1
    chunked = run_suites(config, names)
    for budget, chunks in ((1, config.trials), (2 ** 40, 1)):
        monkeypatch.setattr(integrals, "_CHUNK_BYTES", budget)
        assert len(_trial_chunks(_space(8), config.trials)) == chunks
        other = run_suites(config, names)
        assert other.to_csv() == chunked.to_csv()
        assert other.violations_to_csv() == chunked.violations_to_csv()


def test_a_default_chunk_holds_21_trials_in_its_budget():
    sp = _space(8)
    chunk = _trial_chunks(sp, 10 ** 6)[0]
    assert len(chunk) == 21
    assert len(_trial_chunks(_space(4, "pair"), 10 ** 6)[0]) == 27
    rngs = [np.random.default_rng(t) for t in chunk]
    tracemalloc.start()
    try:
        nodes = _random_stack(sp, rngs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(m.nbytes for m in nodes) <= held <= peak <= integrals._CHUNK_BYTES


def _chunk_peak(run) -> int:
    """The tracemalloc peak of a second ``run()``: the space's level spaces
    and gathers are cached by a first call, as the suite's first chunk
    caches them for the rest."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n,driver", [
    (8, Driver.fermion_field()), (4, Driver.annihilation()),
    (4, Driver.linear_combination(0.75 + 0.25j, -1.5j))])
@pytest.mark.parametrize("p", experiments.P_GRID)
def test_a_default_chunks_bg_norms_call_peaks_within_its_budget(n, driver, p):
    # a bg_ratio chunk's whole work: the draw, the four running sums and
    # their norms
    sp = _space(n, driver.required_layout)
    chunk = _trial_chunks(sp, 10 ** 6)[0]

    def run():
        rngs = [np.random.default_rng(t) for t in chunk]
        return _bg_norms(sp, 0, len(rngs), _random_stack(sp, rngs), driver,
                         p, ("left", "right"), ("hp", "l2lp"))

    assert len(chunk) >= 21
    assert _chunk_peak(run) <= integrals._CHUNK_BYTES


@pytest.mark.parametrize("q,p", experiments.QP_PAIRS
                         + tuple((p, p) for p in experiments.P_GRID))
def test_a_default_chunks_norm_exchange_call_peaks_within_its_budget(q, p):
    # a norm_exchange chunk's whole work: the draw, the Gram products and
    # their eigh powers beside the growing sum, and both sides' norms
    sp = _space(8)
    chunk = _trial_chunks(sp, 10 ** 6)[0]

    def run():
        rngs = [np.random.default_rng(t) for t in chunk]
        return _norm_exchange_sides(sp, 0, len(rngs),
                                    _random_stack(sp, rngs), q, p)

    assert _chunk_peak(run) <= integrals._CHUNK_BYTES


@pytest.mark.parametrize("n,layout", [(n, "fermion") for n in range(1, 9)]
                         + [(n, "pair") for n in range(1, 5)])
def test_a_default_chunk_peaks_within_its_budget_with_its_generators(n, layout):
    # a chunk's generators count against its budget: below n = 8 they are a
    # large share of a trial's bytes (without them a chunk peaked at 1.42x
    # the budget at n = 4 and 2.58x at n = 1)
    sp = _space(n, layout)
    chunk = _trial_chunks(sp, 10 ** 6)[0]
    states = _seed_states(_spawn_entropy(1729, (0, 0)),
                          np.arange(len(chunk), dtype=np.uint64), 4)
    if layout == "fermion":
        driver = Driver.fermion_field()
        exchanges = experiments.QP_PAIRS + ((4.0, 4.0),)
    else:
        driver, exchanges = Driver.annihilation(), ()

    def bg(p):
        rngs = [_generator(words) for words in states]
        return _bg_norms(sp, 0, len(rngs), _random_stack(sp, rngs), driver,
                         p, ("left", "right"), ("hp", "l2lp"))

    def exchange(q, p):
        rngs = [_generator(words) for words in states]
        return _norm_exchange_sides(sp, 0, len(rngs), _random_stack(sp, rngs),
                                    q, p)

    for p in experiments.P_GRID:
        assert _chunk_peak(lambda: bg(p)) <= integrals._CHUNK_BYTES
    for q, p in exchanges:
        assert _chunk_peak(lambda: exchange(q, p)) <= integrals._CHUNK_BYTES


def test_one_space_per_n_and_layout_per_run(monkeypatch):
    built = []

    def counted(grid, layout="fermion", **kw):
        built.append((grid.n, layout))
        return make_space(grid, layout=layout, **kw)

    monkeypatch.setattr(experiments, "make_space", counted)
    table = run_inequality_suite(_SMALL)
    assert table.passed
    assert sorted(built) == [(4, "fermion"), (4, "pair")]
    built.clear()
    run_inequality_suite(_SMALL)  # a new run builds its own
    assert sorted(built) == [(4, "fermion"), (4, "pair")]


def test_master_seed_changes_results():
    other = run_inequality_suite(
        SuiteConfig(trials=12, n=4, master_seed=8))
    assert other.to_csv() != run_inequality_suite(_SMALL).to_csv()


def test_trial_seed_is_stable_and_spread():
    s = trial_seed(1729, "bg_ratio", 0, 0)
    assert s == trial_seed(1729, "bg_ratio", 0, 0)
    others = {trial_seed(1729, "bg_ratio", 0, t) for t in range(50)}
    assert len(others) == 50
    assert trial_seed(1729, "norm_exchange", 0, 0) != s


def test_trial_seed_is_pinned():
    # numpy's SeedSequence(1729, spawn_key=(0, 0, 0)).generate_state(1,
    # np.uint64): a numpy change to SeedSequence fails here first
    assert trial_seed(1729, "bg_ratio", 0, 0) == 7880385311592721941


#: 0, one word, two words, three words (past 2**64) and past the pool
_MASTER_SEEDS = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 128, 2 ** 160 + 7)


def _assert_same_stream(ours, ref) -> None:
    """ours and ref are in the same state and draw the same numbers"""
    assert ours.bit_generator.state == ref.bit_generator.state
    assert ours.standard_normal(5).tobytes() == ref.standard_normal(5).tobytes()
    assert ours.integers(0, 2 ** 62, 3).tolist() == \
        ref.integers(0, 2 ** 62, 3).tolist()
    assert ours.bit_generator.state == ref.bit_generator.state


@settings(max_examples=80, deadline=None)
@given(master=st.sampled_from(_MASTER_SEEDS) | st.integers(0, 2 ** 200),
       suite=st.sampled_from(experiments.SUITE_NAMES),
       cell=st.integers(0, 40) | st.just(2 ** 40),
       trials=st.lists(st.integers(0, 500) | st.integers(2 ** 32 - 2, 2 ** 33),
                       min_size=1, max_size=4),
       one_word=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=3))
def test_the_seed_kernel_is_numpys_seed_sequence(master, suite, cell, trials,
                                                 one_word):
    # the oracle is numpy's SeedSequence and default_rng: trial seeds, the
    # generators made from them (also of seeds below 2**32, which are one
    # word of entropy), and measure_bg_constant's spawn_key=(t,) form
    key = (experiments.SUITE_NAMES.index(suite), cell)
    seeds = [trial_seed(master, suite, cell, t) for t in trials]
    assert seeds == [int(np.random.SeedSequence(
        master, spawn_key=key + (t,)).generate_state(1, np.uint64)[0])
        for t in trials]
    assert experiments._trial_seeds(master, suite, cell,
                                    trials).tolist() == seeds
    for seed, words in zip(seeds + one_word,
                           _seed_states([], seeds + one_word, 4)):
        _assert_same_stream(_generator(words), np.random.default_rng(seed))
    for t, words in zip(trials,
                        _seed_states(_spawn_entropy(master), trials, 4)):
        ss = np.random.SeedSequence(master, spawn_key=(t,))
        assert words.tolist() == ss.generate_state(4, np.uint64).tolist()
        _assert_same_stream(_generator(words), np.random.default_rng(ss))


def test_import_leaves_numpy_random_unloaded():
    # the trial generators' seed-sequence class is made on first use
    code = "import sys, cliffsde; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(experiments.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out == "False\n"


@pytest.mark.parametrize("master", _MASTER_SEEDS)
def test_run_trials_hands_each_trial_default_rng_of_its_seed(master):
    config = SuiteConfig(master_seed=master, trials=30, n=8)
    out = experiments._run_trials(
        config, "norm_exchange", 3, config.trials, _space(8),
        lambda rngs: [(r.bit_generator.state, r.standard_normal(4).tobytes())
                      for r in rngs])
    key = (experiments.SUITE_NAMES.index("norm_exchange"), 3)
    for t, (seed, (state, draw)) in enumerate(out):
        assert seed == int(np.random.SeedSequence(
            master, spawn_key=key + (t,)).generate_state(1, np.uint64)[0])
        ref = np.random.default_rng(seed)
        assert state == ref.bit_generator.state
        assert draw == ref.standard_normal(4).tobytes()


# -- violation logging -----------------------------------------------------------


def test_impossible_tolerance_fills_the_violation_log(monkeypatch):
    # no slack at all: the q = p ratios are 1 only up to rounding
    monkeypatch.setattr(experiments, "RATIO_TOL", 0.0)
    table = run_suites(SuiteConfig(trials=4, n=4), ["norm_exchange"])
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


def test_every_suite_name_is_checked_before_the_first_suite_runs(monkeypatch):
    # an unknown name after a known one raised only once the known suite
    # had run (0.89 s for bg_ratio at 200 trials)
    def never(*args):
        raise AssertionError("a suite ran before the names were checked")

    monkeypatch.setitem(experiments._SUITE_RUNNERS, "bg_ratio", never)
    with pytest.raises(ValueError, match="unknown suite 'telepathy'"):
        run_suites(_SMALL, iter(["bg_ratio", "telepathy"]))


@pytest.mark.parametrize("key, value", [("trials", True), ("n", True)])
def test_gate_values_out_of_range_are_rejected_before_any_suite_runs(
        key, value, monkeypatch):
    # a bool size passes integer tests and ran as 1, its cells named True:
    # the build rejects a bool trial count and a bool increment count
    ran = []
    monkeypatch.setitem(experiments._SUITE_RUNNERS, "car_identity",
                        lambda *args: ran.append(args))
    with pytest.raises(ConfigurationError, match=key) as exc:
        run_suites(SuiteConfig(**{"trials": 4, "n": 4, key: value}),
                   ["car_identity", "norm_exchange"])
    assert exc.value.key == key
    assert ran == []


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
    # the fixture pins every solver-suite row, then the refinement study's
    fixture = Path(__file__).parent / "data" / "verify_solver_trials8.csv"
    assert (table.to_csv() + table.violations_to_csv()
            + grid_refinement_study().to_csv()).encode() == fixture.read_bytes()
    assert table.passed
    assert set(table.suites()) == {"picard", "uniqueness", "gronwall",
                                   "coeff_stability", "selfadjoint"}
    assert table.worst("picard", "euler_gap") <= 1e-10


def test_picard_suite_counts_the_inner_steps_of_the_nonlocal_solves():
    # every run ends with the sweep that holds every node, whose count is
    # 0; the total over the sweeps still describes the inner solve
    table = run_solver_suite(SuiteConfig(trials=8), ["picard"])
    totals = {cell: v for (_, cell, st, v) in table.rows
              if st == "inner_iterations_total"}
    assert set(totals) == {"problem=nonlocal_linear",
                           "problem=nonlocal_conditional"}
    assert all(v > 0 for v in totals.values())
