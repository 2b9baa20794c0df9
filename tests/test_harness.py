import csv
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterniche import (
    ExperimentMatrix,
    detect_stagnation,
    make,
    run,
    run_matrix,
)
from counterniche import cli, harness
from counterniche.engines import GenRecord, RunTrace, default_config
from counterniche.harness import (
    TRACE_FIELDS,
    cell_dir,
    collect_final_errors,
    default_burn_in,
    discover_cells,
    diversity_profile,
    load_matrix_config,
    read_trace_csv,
    write_trace_csv,
)
from counterniche.stats import summarize


def read_summary_row(path) -> dict:
    """The one row of a cell's summary.csv, by column."""
    with open(path, newline="") as fh:
        (row,) = csv.DictReader(fh)
    return row


def _trace_from_series(series, diversity=None, mean=None):
    records = []
    for g, b in enumerate(series):
        records.append(
            GenRecord(
                generation=g,
                best_fitness=float(b),
                mean_fitness=float(mean[g]) if mean else float(b) + 1.0,
                diversity=float(diversity[g]) if diversity else 0.5,
            )
        )
    return RunTrace(records, None)


def brute_force_stagnation(series, window):
    for g in range(1, len(series)):
        if g < window:
            continue
        if all(series[k] >= series[k - 1] for k in range(g - window + 1, g + 1)):
            return g
    return None


def test_detect_stagnation_reference_case():
    # strict improvement at generation 100, flat afterwards, window 500
    series = [10.0] * 100 + [5.0] * 900
    assert detect_stagnation(series, 500) == 600


def test_detect_stagnation_no_stall():
    series = list(range(100, 0, -1))
    assert detect_stagnation(series, 50) is None


def test_detect_stagnation_flat_from_start():
    series = [3.0] * 20
    # no improvement ever: the window is measured from generation 0
    assert detect_stagnation(series, 5) == 5


def test_detect_stagnation_accepts_traces():
    trace = _trace_from_series([4.0, 3.0, 3.0, 3.0, 3.0])
    assert detect_stagnation(trace, 3) == 4
    with pytest.raises(ValueError):
        detect_stagnation([], 3)
    with pytest.raises(ValueError):
        detect_stagnation(trace, 0)


@settings(max_examples=200)
@given(
    st.lists(st.integers(0, 5), min_size=2, max_size=60),
    st.integers(1, 20),
    st.integers(0, 2**32 - 1),
)
def test_detect_stagnation_matches_brute_force(steps, window, seed):
    # random non-increasing-ish series with plateaus
    rng = np.random.Generator(np.random.PCG64(seed))
    value = 100.0
    series = [value]
    for s in steps:
        if s == 0 and rng.random() < 0.8:
            value -= float(rng.random())
        series.append(value)
    assert detect_stagnation(series, window) == brute_force_stagnation(series, window)


@pytest.mark.parametrize("algo", ["cnea", "sea", "socea", "cea", "dgea"])
def test_run_stop_rule_stops_and_labels(algo):
    fn = make("ellipsoid", 2)
    cfg = default_config(algo, dim=2, seed=0, N=10, generations=5000)
    plain = run(dataclasses.replace(cfg, generations=600), fn)
    stall = detect_stagnation(plain, 20)
    assert stall is not None
    trace = run(dataclasses.replace(cfg, stagnation_window=20), fn)
    assert trace.stopped_by == "stagnation"
    assert detect_stagnation(trace, 20) == trace.generations == stall < 5000
    # the stall stop moves no draw: the run is the plain run, cut at its stall
    assert _same_records(trace, dataclasses.replace(plain, records=plain.records[: stall + 1]))
    series = trace.best_fitness_series()
    # the full 20-step window ending at the stagnation point is improvement-free
    assert all(series[k] >= series[k - 1] for k in range(len(series) - 20, len(series)))


def test_run_stop_rule_stops_at_generations():
    # a stall window the run never reaches stops it at cfg.generations
    fn = make("rastrigin", 2)
    cfg = default_config("sea", dim=2, seed=0, N=10, generations=30)
    trace = run(dataclasses.replace(cfg, stagnation_window=10_000), fn)
    assert trace.stopped_by == "budget"
    assert trace.records[-1].generation == 30
    # the stall window moves no draw: the plain budget run is the same run
    budget = run(cfg, fn)
    for a, b in zip(trace.records, budget.records, strict=True):
        assert dataclasses.replace(a, wall_ms=0.0) == dataclasses.replace(b, wall_ms=0.0)


def _same_records(a, b):
    """Whether two traces hold the same records, wall_ms aside."""
    return [dataclasses.replace(r, wall_ms=0.0) for r in a.records] == [
        dataclasses.replace(r, wall_ms=0.0) for r in b.records
    ]


@pytest.mark.parametrize("algo", ["cnea", "sea", "socea", "cea", "dgea"])
def test_run_stops_at_the_first_generation_whose_evaluations_reach_the_budget(algo):
    fn = make("rastrigin", 4)
    cfg = default_config(algo, dim=4, seed=3, N=16, generations=60)
    plain = run(cfg, fn)
    budget = plain.records[24].evaluations + 1
    stop = next(r.generation for r in plain.records if r.evaluations >= budget)
    trace = run(dataclasses.replace(cfg, max_evaluations=budget), fn)
    assert trace.stopped_by == "evaluations" and trace.generations == stop
    counts = [r.evaluations for r in trace.records]
    assert counts[-2] < budget <= counts[-1]
    # the budget moves no draw: the run is the plain run, cut at its stop
    assert _same_records(trace, dataclasses.replace(plain, records=plain.records[: stop + 1]))


def test_run_evaluation_budget_edges():
    fn = make("ellipsoid", 2)
    cfg = default_config("sea", dim=2, seed=0, N=10, generations=30)
    plain = run(cfg, fn)
    # a budget the run never reaches: it ends at generations, as the plain run
    never = run(dataclasses.replace(cfg, max_evaluations=plain.records[-1].evaluations + 1), fn)
    assert never.stopped_by == "budget" and _same_records(never, plain)
    # a budget reached at the last generation names the budget
    last = run(dataclasses.replace(cfg, max_evaluations=plain.records[-1].evaluations), fn)
    assert last.stopped_by == "evaluations" and last.generations == 30
    # the initial population alone reaches a budget of N or less
    first = run(dataclasses.replace(cfg, max_evaluations=1), fn)
    assert first.stopped_by == "evaluations" and first.generations == 0
    # a stall and the budget at one generation: the stall is named
    stalled = run(dataclasses.replace(cfg, stagnation_window=3), fn)
    stall = stalled.generations
    assert stalled.stopped_by == "stagnation" and plain.records[stall - 1].evaluations < plain.records[stall].evaluations
    both = run(dataclasses.replace(cfg, stagnation_window=3, max_evaluations=plain.records[stall].evaluations), fn)
    assert both.stopped_by == "stagnation" and both.generations == stall


class Untouchable:
    """An objective that fails a run that calls it."""

    space = make("ellipsoid", 2).space

    def evaluate_batch(self, x):
        raise AssertionError("evaluated")


@pytest.mark.parametrize("budget", [0, -5])
def test_run_refuses_an_evaluation_budget_below_one_before_any_evaluation(budget):
    cfg = default_config("cnea", dim=2, seed=0, N=10, generations=3)
    # the config refuses it when built, so the run never starts
    with pytest.raises(ValueError, match=re.escape(f"max_evaluations must be >= 1, got {budget}")):
        run(dataclasses.replace(cfg, max_evaluations=budget), Untouchable())


def test_default_burn_in():
    assert default_burn_in(500) == 25
    assert default_burn_in(19) == 0


def test_diversity_profile_counts_improving_generations():
    mean = [10.0, 9.0, 9.0, 8.0, 8.5]
    div = [0.9, 0.8, 0.7, 0.6, 0.5]
    trace = _trace_from_series([0.0] * 5, diversity=div, mean=mean)
    profile = diversity_profile(trace, burn_in=0)
    # improving generations are 1 and 3
    assert profile.generations_counted == 2
    assert profile.average_diversity == pytest.approx((0.8 + 0.6) / 2)


def test_diversity_profile_burn_in_excludes_early():
    mean = [10.0, 9.0, 8.0, 7.0]
    trace = _trace_from_series([0.0] * 4, diversity=[0.4] * 4, mean=mean)
    profile = diversity_profile(trace, burn_in=2)
    assert profile.generations_counted == 1  # only generation 3 counts


def test_diversity_profile_refuses_negative_burn_in():
    trace = _trace_from_series([0.0] * 4, diversity=[0.4] * 4, mean=[10.0, 9.0, 8.0, 7.0])
    with pytest.raises(ValueError, match="burn-in must be nonnegative, got -3"):
        diversity_profile(trace, -3)


def test_diversity_profile_no_signal():
    trace = _trace_from_series([1.0, 1.0, 1.0], mean=[5.0, 5.0, 5.0])
    profile = diversity_profile(trace, burn_in=0)
    assert profile.average_diversity is None
    assert profile.generations_counted == 0


def test_cell_result_mean_wall_ms(tmp_path):
    # measured in memory even though the summary file writes 0 without timing
    (cell,) = run_matrix(_tiny_matrix(tmp_path))
    assert read_trace_csv(cell.trace_paths[0]).generations == 5
    assert cell.mean_wall_ms > 0.0


def test_timed_mean_wall_ms_is_the_mean_of_each_runs_summed_wall_ms(tmp_path):
    # one timer: a run's time is what its trace's wall_ms column adds up to
    (cell,) = run_matrix(_tiny_matrix(tmp_path, timing=True))
    walls = [sum(r.wall_ms for r in read_trace_csv(path).records) for path in cell.trace_paths]
    assert all(wall > 0.0 for wall in walls)
    mean = sum(walls) / len(walls)
    assert cell.mean_wall_ms == mean and float(read_summary_row(cell.summary_path)["mean_wall_ms"]) == mean


def test_trace_csv_roundtrip(tmp_path):
    fn = make("ellipsoid", 2)
    cfg = default_config("cnea", dim=2, seed=1, N=30, generations=8)
    from counterniche import run

    trace = run(cfg, fn)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    again = read_trace_csv(path)
    assert len(again.records) == len(trace.records)
    for a, b in zip(trace.records, again.records):
        assert a.generation == b.generation
        assert a.best_fitness == b.best_fitness  # .17g round-trips doubles
        assert a.mean_fitness == b.mean_fitness
        assert a.diversity == b.diversity
        assert a.victims == b.victims
        assert b.wall_ms == 0.0  # timing off by default


def test_trace_csv_roundtrips_fallbacks(tmp_path):
    records = [
        GenRecord(0, 5.0, 6.0, 0.5),
        GenRecord(1, 4.0, 5.5, 0.25, victims=3, replacements=1, fallbacks=2, evaluations=40),
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(RunTrace(records, None), path)
    assert path.read_text().splitlines()[0].endswith("victims,replacements,fallbacks,evaluations,wall_ms")
    again = read_trace_csv(path).records
    assert [(r.victims, r.replacements, r.fallbacks, r.evaluations) for r in again] == [(0, 0, 0, 0), (3, 1, 2, 40)]


def test_trace_csv_timing_flag(tmp_path):
    fn = make("ackley", 2)
    cfg = default_config("sea", dim=2, seed=0, N=10, generations=3)
    from counterniche import run

    trace = run(cfg, fn)
    timed = tmp_path / "timed.csv"
    write_trace_csv(trace, timed, include_timing=True)
    assert any(r.wall_ms > 0.0 for r in read_trace_csv(timed).records)


@pytest.mark.parametrize("algo,function,dim,knobs,shown", [
    ("cnea", "schwefel12", 10, {}, lambda records: sum(r.victims for r in records) > 0),
    ("dgea", "rastrigin", 4, {"d_low": 0.05}, lambda records: {r.mode for r in records} == {"exploit", "explore"}),
], ids=["cnea-victims", "dgea-mode"])
def test_timed_trace_csv_reads_back_every_record(tmp_path, algo, function, dim, knobs, shown):
    # every field round-trips, wall_ms included: floats are written with 17 significant digits
    trace = run(default_config(algo, dim=dim, seed=0, N=30, generations=30, **knobs), make(function, dim))
    assert shown(trace.records)
    path = tmp_path / "timed.csv"
    write_trace_csv(trace, path, include_timing=True)
    assert read_trace_csv(path).records == trace.records


def _trace_file(path, header):
    """A two-generation trace with the given columns, each value its field's."""
    values = {"generation": "{g}", "best_fitness": "4", "mean_fitness": "5.5", "diversity": "0.25",
              "mode": "exploit", "victims": "3", "replacements": "1", "fallbacks": "2", "evaluations": "40",
              "wall_ms": "0"}
    rows = [",".join(values[name] for name in header).format(g=g) for g in range(2)]
    path.write_text("\n".join([",".join(header), *rows]) + "\n")
    return path


@pytest.mark.parametrize("missing", ["fallbacks", "mode", "evaluations"])
def test_read_trace_csv_refuses_a_header_without_a_defaulted_field(tmp_path, missing):
    # a field with a default in GenRecord is still a required column: filling it in would
    # report a false value (0 evaluations, 0 fallbacks, an empty mode) at every generation
    header = [name for name in TRACE_FIELDS if name != missing]
    with pytest.raises(ValueError, match="does not look like a trace file"):
        read_trace_csv(_trace_file(tmp_path / "old.csv", header))


@pytest.mark.parametrize("row,column,reason", [
    ("1,abc,5.5,0.25,exploit,3,1,2,40,0", "best_fitness", "could not convert string to float: 'abc'"),
    ("1,4,5.5,0.25,exploit,three,1,2,40,0", "victims", "invalid literal for int() with base 10: 'three'"),
    ("1,4,5.5", "diversity", "float() argument must be a string or a real number, not 'NoneType'"),
], ids=["float", "int", "short-row"])
def test_read_trace_csv_names_the_file_line_and_column_of_a_value_that_does_not_parse(
    row, column, reason, tmp_path, capsys
):
    cell = tmp_path / "sea" / "ellipsoid" / "2d"
    cell.mkdir(parents=True)
    path = _trace_file(cell / "run0.csv", TRACE_FIELDS)
    path.write_text(path.read_text().splitlines()[0] + "\n0,4,5.5,0.25,exploit,3,1,2,40,0\n" + row + "\n")
    message = f"{path}:3: {column}: {reason}"
    with pytest.raises(ValueError) as raised:
        read_trace_csv(path)
    assert str(raised.value) == message
    for command in ("summarize", "diversity-report"):
        assert cli.main([command, "--in", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_read_trace_csv_refuses_a_missing_required_field_or_another_order(tmp_path):
    # a header without a field that has a default is refused too: a trace without `evaluations`
    # would read back as 0 evaluations at every generation
    without = [[name for name in TRACE_FIELDS if name != missing] for missing in ("best_fitness", "evaluations")]
    reordered = ["best_fitness", "generation", *TRACE_FIELDS[2:]]
    refused = f"does not look like a trace file: its header is not {','.join(TRACE_FIELDS)}"
    for header in (*without, reordered):
        with pytest.raises(ValueError, match=refused):
            read_trace_csv(_trace_file(tmp_path / "bad.csv", header))
    assert read_trace_csv(_trace_file(tmp_path / "good.csv", TRACE_FIELDS)).records[1] == GenRecord(
        1, 4.0, 5.5, 0.25, mode="exploit", victims=3, replacements=1, fallbacks=2, evaluations=40
    )


def test_read_trace_csv_rejects_foreign_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_trace_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(TRACE_FIELDS) + "\n")
    with pytest.raises(ValueError):
        read_trace_csv(empty)


def test_summary_csv_roundtrip(tmp_path):
    # under a fixed budget of 20 generations seeds 0 and 2 stall for 5 generations, at 11 and 13; seed 1 does not
    matrix = _tiny_matrix(tmp_path, runs_per_cell=3, stagnation_window=5, generations=20)
    (cell,) = run_matrix(matrix)
    row = read_summary_row(cell.summary_path)
    assert tuple(row.keys()) == (
        "algo", "function", "dim", "runs", "best", "p23", "median", "p73", "worst", "mean", "std",
        "mean_wall_ms", "stagnation_gen_mean", "stalled_runs",
    )
    assert (row["algo"], row["function"], row["dim"], row["runs"]) == ("sea", "ellipsoid", "2", "3")
    errors = collect_final_errors(map(read_trace_csv, cell.trace_paths), "ellipsoid", 2)
    assert float(row["best"]) == min(errors)
    assert cell.stagnation_gens == [11, 13]
    assert float(row["stagnation_gen_mean"]) == 12.0 and row["stalled_runs"] == "2"
    # no run stalls for 500 generations within 5: the column is empty
    (short,) = run_matrix(_tiny_matrix(tmp_path, output_dir=str(tmp_path / "short")))
    row = read_summary_row(short.summary_path)
    assert (row["stagnation_gen_mean"], row["stalled_runs"]) == ("", "0")


def test_cell_dir_layout():
    assert str(cell_dir("out", "cnea", "ackley", 20)).endswith("out/cnea/ackley/20d")


def _tiny_matrix(tmp_path, **kw):
    defaults = dict(
        algos=("sea",),
        functions=("ellipsoid",),
        dims=(2,),
        runs_per_cell=2,
        generations=5,
        output_dir=str(tmp_path / "results"),
        engine_overrides={"N": 10},
    )
    defaults.update(kw)
    return ExperimentMatrix(**defaults)


def test_run_matrix_writes_expected_layout(tmp_path):
    matrix = _tiny_matrix(tmp_path)
    results = run_matrix(matrix)
    assert len(results) == 1
    cell = results[0]
    assert cell.error is None
    assert cell.summary is not None
    base = tmp_path / "results" / "sea" / "ellipsoid" / "2d"
    assert (base / "run0.csv").exists()
    assert (base / "run1.csv").exists()
    assert (base / "summary.csv").exists()
    row = read_summary_row(base / "summary.csv")
    assert row["runs"] == "2"
    assert float(row["mean_wall_ms"]) == 0.0  # timing off


def test_summary_counts_stalled_runs_beside_all_runs(tmp_path, capsys):
    # seed 0 stalls at generation 11, seed 1 runs to the cap of 20
    matrix = _tiny_matrix(tmp_path, budget="stagnation", stagnation_window=5, generations=20)
    run_matrix(matrix)
    cell = tmp_path / "results" / "sea" / "ellipsoid" / "2d"
    assert [read_trace_csv(cell / f"run{r}.csv").records[-1].generation for r in range(2)] == [11, 20]
    row = read_summary_row(cell / "summary.csv")
    assert (row["runs"], row["stalled_runs"]) == ("2", "1")
    assert float(row["stagnation_gen_mean"]) == 11.0  # the stalled run's generation alone
    assert cli.main(["summarize", "--in", matrix.output_dir, "--json"]) == 0
    (summary,) = json.loads(capsys.readouterr().out)
    assert (summary["runs"], summary["stalled_runs"]) == (2, 1)


def test_read_trace_csv_does_not_claim_a_stalled_run_ran_its_budget(tmp_path):
    # seed 0 stalls at generation 11 of 20; its trace file does not say so
    matrix = _tiny_matrix(tmp_path, runs_per_cell=1, budget="stagnation", stagnation_window=5, generations=20)
    (cell,) = run_matrix(matrix)
    assert cell.stagnation_gens == [11]
    trace = read_trace_csv(cell.trace_paths[0])
    assert trace.records[-1].generation == 11
    assert trace.stopped_by is None


def test_run_matrix_seed_pairing(tmp_path):
    # same seed_base: run r always uses seed seed_base + r, whatever the cell
    m1 = _tiny_matrix(tmp_path, output_dir=str(tmp_path / "a"))
    m2 = _tiny_matrix(tmp_path, output_dir=str(tmp_path / "b"))
    run_matrix(m1)
    run_matrix(m2)
    a = (tmp_path / "a" / "sea" / "ellipsoid" / "2d" / "run0.csv").read_bytes()
    b = (tmp_path / "b" / "sea" / "ellipsoid" / "2d" / "run0.csv").read_bytes()
    assert a == b


def test_run_matrix_isolates_cell_failures(tmp_path, monkeypatch):
    # a run that raises in the dim-12 cell, as a failure load cannot see would
    real_run = harness.run

    def failing_run(cfg, fn, *args, **kwargs):
        if fn.space.dim == 12:
            raise RuntimeError("run failed")
        return real_run(cfg, fn, *args, **kwargs)

    monkeypatch.setattr(harness, "run", failing_run)
    matrix = _tiny_matrix(tmp_path, algos=("cnea",), dims=(12, 4))
    results = run_matrix(matrix)
    by_dim = {r.dim: r for r in results}
    assert by_dim[12].error == "RuntimeError: run failed"
    assert by_dim[4].error is None and by_dim[4].summary is not None


def test_matrix_rejects_a_function_that_cannot_take_a_dim(tmp_path):
    with pytest.raises(ValueError, match="even dimension"):  # odd dim is invalid
        _tiny_matrix(tmp_path, functions=("rot_rastrigin", "ellipsoid"), dims=(3,))


def test_matrix_rejects_a_key_too_long_for_a_cell_dim(tmp_path):
    # cnea keys dim 40 on all 40 dims: 4 ** 40 cell codes do not fit int64; dim 4 alone would load
    with pytest.raises(ValueError, match="too many cells"):
        _tiny_matrix(tmp_path, algos=("cnea",), dims=(4, 40), engine_overrides={"key_dim_limit": 40})
    _tiny_matrix(tmp_path, algos=("cnea",), dims=(4,), engine_overrides={"key_dim_limit": 40})


def test_run_matrix_stagnation_budget(tmp_path):
    matrix = _tiny_matrix(
        tmp_path,
        budget="stagnation",
        stagnation_window=10,
        generations=2000,
    )
    results = run_matrix(matrix)
    assert results[0].error is None
    assert len(results[0].stagnation_gens) == 2


def test_evaluation_budget_sweep_stops_every_run_within_one_generation(tmp_path):
    matrix = _tiny_matrix(
        tmp_path, algos=("cnea", "sea"), max_evaluations=300, generations=1000
    )
    for cell in run_matrix(matrix):
        assert cell.error is None
        for path in cell.trace_paths:
            counts = [r.evaluations for r in read_trace_csv(path).records]
            assert counts[-2] < 300 <= counts[-1]


def test_evaluation_budget_sweep_refuses_a_cell_whose_runs_end_before_the_budget(tmp_path):
    # N=10 for 5 generations scores at most 60 rows: no run reaches 1000
    (cell,) = run_matrix(_tiny_matrix(tmp_path, max_evaluations=1000))
    assert cell.summary is None and cell.trace_paths == []
    assert re.fullmatch(
        r"ValueError: run 0 ended at generation 5 after \d+ of max_evaluations = 1000 evaluations; raise generations",
        cell.error,
    )


def test_stagnation_sweep_with_an_evaluation_budget_fails_only_a_run_cut_by_generations(tmp_path):
    # seed 0 stalls at generation 11 of 20, seed 1 runs to the cap of 20; neither reaches 10**6 evaluations
    stops = dict(budget="stagnation", stagnation_window=5, generations=20, max_evaluations=10**6)
    (stalled,) = run_matrix(_tiny_matrix(tmp_path, runs_per_cell=1, output_dir=str(tmp_path / "a"), **stops))
    assert stalled.error is None and stalled.stagnation_gens == [11]
    assert read_trace_csv(stalled.trace_paths[0]).records[-1].generation == 11
    (capped,) = run_matrix(_tiny_matrix(tmp_path, output_dir=str(tmp_path / "b"), **stops))
    assert capped.summary is None
    assert re.fullmatch(
        r"ValueError: run 1 ended at generation 20 after \d+ of max_evaluations = 1000000 evaluations; raise generations",
        capped.error,
    )


@pytest.mark.parametrize("name,value", [("algos", "sea"), ("functions", "ellipsoid"), ("dims", 2)])
def test_experiment_matrix_refuses_a_bare_name_or_dim(name, value, tmp_path):
    # a bare string would be read letter by letter, and a bare int not at all
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a sequence, got {value!r}")):
        _tiny_matrix(tmp_path, **{name: value})


@pytest.mark.parametrize("budget,max_evaluations,message", [
    ("evaluations", None, "budget must be fixed or stagnation, got 'evaluations'"),
    ("fixed", 0, "max_evaluations must be >= 1, got 0"),
])
def test_experiment_matrix_refuses_an_evaluation_budget_it_cannot_use(budget, max_evaluations, message, tmp_path):
    with pytest.raises(ValueError, match=re.escape(message)):
        _tiny_matrix(tmp_path, budget=budget, max_evaluations=max_evaluations)


def test_stagnation_sweep_caps_its_runs_at_generations(tmp_path):
    # no run stalls for 1000 generations by 20, so every run stops at generations = 20
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "algos = sea, cnea\nfunctions = ellipsoid\ndims = 2\nruns = 2\nbudget = stagnation\n"
        f"stagnation_window = 1000\ngenerations = 20\npop_size = 10\noutput_dir = {tmp_path / 'r'}\n"
    )
    results = run_matrix(load_matrix_config(cfg))
    for cell in results:
        assert cell.error is None and cell.stagnation_gens == []
        assert [read_trace_csv(path).generations for path in cell.trace_paths] == [20, 20]


@pytest.mark.parametrize("line", ["hard_cap = 5", "cea_rows = 20", "cea_cols = 20", "projected_dims = 10"])
def test_deleted_keys_fail_at_their_line(line, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"algos = sea\nfunctions = ellipsoid\ndims = 2\noutput_dir = {tmp_path / 'r'}\n{line}\n")
    key = line.split(" =")[0]
    assert cli.main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:5: unknown config key {key!r}\n"
    assert not (tmp_path / "r").exists()


def test_discover_cells_and_collect_errors(tmp_path):
    matrix = _tiny_matrix(tmp_path)
    run_matrix(matrix)
    cells = discover_cells(tmp_path / "results")
    assert len(cells) == 1
    ((algo, function, dim), traces), = cells.items()
    assert (algo, function, dim) == ("sea", "ellipsoid", 2)
    assert [p.name for p in traces] == ["run0.csv", "run1.csv"]
    errors = collect_final_errors(map(read_trace_csv, traces), function, dim)
    assert len(errors) == 2
    assert all(e >= 0.0 for e in errors)


def test_discover_cells_skips_junk(tmp_path):
    junk = tmp_path / "x" / "y" / "zd"
    junk.mkdir(parents=True)
    (junk / "runfoo.csv").write_text("nope")
    assert discover_cells(tmp_path) == {}


def test_experiment_matrix_validation():
    with pytest.raises(ValueError):
        ExperimentMatrix(algos=(), functions=("ackley",), dims=(2,))
    with pytest.raises(ValueError):
        ExperimentMatrix(algos=("sea",), functions=("ackley",), dims=(2,), runs_per_cell=0)
    with pytest.raises(ValueError):
        ExperimentMatrix(algos=("sea",), functions=("ackley",), dims=(2,), budget="forever")
    with pytest.raises(ValueError):
        ExperimentMatrix(algos=("sea",), functions=("ackley",), dims=(2,), workers=0)


@pytest.mark.parametrize("key", ["seed", "generations", "algo", "pop_size"])
def test_experiment_matrix_refuses_an_override_that_is_no_engine_knob(key):
    # `seed` would be dropped for seed_base + r, `generations` and `algo` clash with the matrix's,
    # and `pop_size` is the sweep key of the knob field `N`
    matrix = {"algos": ("sea",), "functions": ("ackley",), "dims": (2,)}
    with pytest.raises(ValueError, match=re.escape(f"engine_overrides: {key!r} is not an engine knob")):
        ExperimentMatrix(**matrix, engine_overrides={key: 7})
    assert ExperimentMatrix(**matrix, engine_overrides={"N": 10}).engine_config("sea", 2).N == 10


@pytest.mark.parametrize("field,values", [
    ("algos", {"algos": ("sea", "sea")}),
    ("functions", {"functions": ("ackley", "rastrigin", "ackley")}),
    ("dims", {"dims": (2, 3, 2)}),
    ("algos", {"algos": ["sea", "sea"]}),  # a list is read as a tuple, and refused the same
])
def test_experiment_matrix_refuses_a_repeated_value(field, values):
    # the same check as a sweep file's: the repeated cells would write the same files
    matrix = {"algos": ("sea",), "functions": ("ackley",), "dims": (2,), **values}
    repeated = values[field][0]
    with pytest.raises(ValueError, match=re.escape(f"{field}: {repeated!r} is listed more than once")):
        ExperimentMatrix(**matrix)


def test_experiment_matrix_reads_list_fields_as_tuples():
    matrix = ExperimentMatrix(algos=["sea"], functions=["ackley"], dims=[2])
    assert (matrix.algos, matrix.functions, matrix.dims) == (("sea",), ("ackley",), (2,))
    with pytest.raises(ValueError, match="^dims must be >= 1, got 0$"):
        ExperimentMatrix(algos=["sea"], functions=["ackley"], dims=[2, 0])


def test_load_matrix_config(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# comparison sweep\n"
        "algos = cnea, sea\n"
        "functions = ackley, rastrigin\n"
        "dims = 2, 5\n"
        "runs = 3\n"
        "seed_base = 7\n"
        "budget = stagnation\n"
        "stagnation_window = 100\n"
        "output_dir = out\n"
        "timing = on\n"
        "pop_size = 50   # engine override\n"
        "sea_variance = annealed\n"
    )
    matrix = load_matrix_config(cfg)
    assert matrix.algos == ("cnea", "sea")
    assert matrix.functions == ("ackley", "rastrigin")
    assert matrix.dims == (2, 5)
    assert matrix.runs_per_cell == 3
    assert matrix.seed_base == 7
    assert matrix.budget == "stagnation"
    assert matrix.stagnation_window == 100
    assert matrix.timing is True
    assert matrix.engine_overrides == {"N": 50, "sea_variance_mode": "annealed"}


@pytest.mark.parametrize("line,key,value", [
    pytest.param("output_dir = runs#2", "output_dir", "runs#2", id="hash-inside-a-value"),
    pytest.param("output_dir = runs #2", "output_dir", "runs", id="hash-after-a-space"),
    pytest.param("algos = sea  # note", "algos", ("sea",), id="comment-after-spaces"),
    pytest.param("algos = sea\t# note", "algos", ("sea",), id="comment-after-a-tab"),
])
def test_load_matrix_config_starts_a_comment_only_at_a_hash_after_whitespace(line, key, value, tmp_path):
    lines = {"algos": "algos = cnea", "functions": "functions = ackley", "dims": "dims = 2", key: line}
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("# a sweep\n" + "\n".join(lines.values()) + "\n")
    assert getattr(load_matrix_config(cfg), key) == value


def test_load_matrix_config_errors(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("algos = sea\nfunctions = ackley\ndims = 2\nbogus_key = 1\n")
    with pytest.raises(ValueError, match="bogus_key"):
        load_matrix_config(cfg)
    cfg.write_text("algos = sea\nfunctions = ackley\n")
    with pytest.raises(ValueError, match="dims"):
        load_matrix_config(cfg)
    cfg.write_text("algos = sea\nfunctions = ackley\ndims = 2\njust a line\n")
    with pytest.raises(ValueError, match="key = value"):
        load_matrix_config(cfg)
    cfg.write_text("algos = sea\nfunctions = ackley\ndims = 2\ntiming = maybe\n")
    with pytest.raises(ValueError, match="timing"):
        load_matrix_config(cfg)
    cfg.write_text("algos = sea\nfunctions = ackley\ndims = 2\nalgos = cnea\n")
    with pytest.raises(ValueError, match=re.escape(f"{cfg}:4: algos: given twice (first on line 1)")):
        load_matrix_config(cfg)
