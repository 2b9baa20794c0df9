import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterniche import (
    ExperimentMatrix,
    StagnationRule,
    detect_stagnation,
    make,
    run,
    run_matrix,
)
from counterniche import cli, harness
from counterniche.engines import GenRecord, RunTrace, default_config
from counterniche.harness import (
    SUMMARY_FIELDS,
    TRACE_FIELDS,
    cell_dir,
    collect_final_errors,
    default_burn_in,
    discover_cells,
    diversity_profile,
    load_matrix_config,
    read_summary_csv,
    read_trace_csv,
    write_summary_csv,
    write_trace_csv,
)
from counterniche.stats import summarize


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
    assert detect_stagnation(series, StagnationRule(500)) == 600


def test_detect_stagnation_no_stall():
    series = list(range(100, 0, -1))
    assert detect_stagnation(series, StagnationRule(50)) is None


def test_detect_stagnation_flat_from_start():
    series = [3.0] * 20
    # no improvement ever: the window is measured from generation 0
    assert detect_stagnation(series, StagnationRule(5)) == 5


def test_detect_stagnation_accepts_traces():
    trace = _trace_from_series([4.0, 3.0, 3.0, 3.0, 3.0])
    assert detect_stagnation(trace, StagnationRule(3)) == 4
    with pytest.raises(ValueError):
        detect_stagnation([], StagnationRule(3))
    with pytest.raises(ValueError):
        StagnationRule(0)


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
    rule = StagnationRule(window)
    assert detect_stagnation(series, rule) == brute_force_stagnation(series, window)


def test_run_stop_rule_stops_and_labels():
    fn = make("ellipsoid", 2)
    cfg = default_config("sea", dim=2, seed=0, N=10, generations=5000)
    rule = StagnationRule(20)
    trace = run(cfg, fn, stop=rule)
    assert trace.stopped_by == "stagnation"
    assert detect_stagnation(trace, rule) == trace.generations < 5000
    series = trace.best_fitness_series()
    # the full 20-step window ending at the stagnation point is improvement-free
    assert all(series[k] >= series[k - 1] for k in range(len(series) - 20, len(series)))


def test_run_stop_rule_stops_at_generations():
    # a stall rule with a window the run never reaches stops at cfg.generations
    fn = make("rastrigin", 2)
    cfg = default_config("sea", dim=2, seed=0, N=10, generations=30)
    trace = run(cfg, fn, stop=StagnationRule(10_000))
    assert trace.stopped_by == "budget"
    assert trace.records[-1].generation == 30
    # the stop rule moves no draw: the plain budget run is the same run
    budget = run(cfg, fn)
    for a, b in zip(trace.records, budget.records, strict=True):
        assert dataclasses.replace(a, wall_ms=0.0) == dataclasses.replace(b, wall_ms=0.0)


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
    assert profile.burn_in == 0


def test_diversity_profile_burn_in_excludes_early():
    mean = [10.0, 9.0, 8.0, 7.0]
    trace = _trace_from_series([0.0] * 4, diversity=[0.4] * 4, mean=mean)
    profile = diversity_profile(trace, burn_in=2)
    assert profile.generations_counted == 1  # only generation 3 counts


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


def test_trace_csv_roundtrips_fallbacks_and_reads_the_old_header(tmp_path):
    records = [
        GenRecord(0, 5.0, 6.0, 0.5),
        GenRecord(1, 4.0, 5.5, 0.25, victims=3, replacements=1, fallbacks=2),
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(RunTrace(records, None), path)
    assert path.read_text().splitlines()[0].endswith("victims,replacements,fallbacks,wall_ms")
    again = read_trace_csv(path).records
    assert [(r.victims, r.replacements, r.fallbacks) for r in again] == [(0, 0, 0), (3, 1, 2)]

    # a trace written before the fallbacks column: 8 columns, read as 0
    old = tmp_path / "old.csv"
    old.write_text(
        "generation,best_fitness,mean_fitness,diversity,mode,victims,replacements,wall_ms\n"
        "0,5,6,0.5,,0,0,0\n1,4,5.5,0.25,,3,1,0\n"
    )
    again = read_trace_csv(old).records
    assert [(r.generation, r.best_fitness, r.victims, r.replacements, r.fallbacks) for r in again] == [
        (0, 5.0, 0, 0, 0), (1, 4.0, 3, 1, 0)
    ]


def test_trace_csv_timing_flag(tmp_path):
    fn = make("ackley", 2)
    cfg = default_config("sea", dim=2, seed=0, N=10, generations=3)
    from counterniche import run

    trace = run(cfg, fn)
    timed = tmp_path / "timed.csv"
    write_trace_csv(trace, timed, include_timing=True)
    assert any(r.wall_ms > 0.0 for r in read_trace_csv(timed).records)


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
    path = tmp_path / "summary.csv"
    summary = summarize([0.5, 0.1, 0.9])
    write_summary_csv(path, "sea", "ackley", 5, summary, 12.5, [100, 200])
    row = read_summary_csv(path)
    assert tuple(row.keys()) == SUMMARY_FIELDS
    assert row["algo"] == "sea"
    assert int(row["dim"]) == 5
    assert float(row["best"]) == 0.1
    assert float(row["stagnation_gen_mean"]) == 150.0
    # no stagnation values leaves the column empty
    write_summary_csv(path, "sea", "ackley", 5, summary, 12.5, [])
    assert read_summary_csv(path)["stagnation_gen_mean"] == ""


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
    row = read_summary_csv(base / "summary.csv")
    assert row["runs"] == "2"
    assert float(row["mean_wall_ms"]) == 0.0  # timing off


def test_summary_counts_stalled_runs_beside_all_runs(tmp_path, capsys):
    # seed 0 stalls at generation 11, seed 1 runs to the cap of 20
    matrix = _tiny_matrix(tmp_path, budget="stagnation", stagnation_window=5, generations=20)
    run_matrix(matrix)
    cell = tmp_path / "results" / "sea" / "ellipsoid" / "2d"
    assert [read_trace_csv(cell / f"run{r}.csv").records[-1].generation for r in range(2)] == [11, 20]
    row = read_summary_csv(cell / "summary.csv")
    assert (row["runs"], row["stalled_runs"]) == ("2", "1")
    assert float(row["stagnation_gen_mean"]) == 11.0  # the stalled run's generation alone
    assert cli.main(["summarize", "--in", matrix.output_dir, "--json"]) == 0
    (summary,) = json.loads(capsys.readouterr().out)
    assert (summary["runs"], summary["stalled_runs"]) == (2, 1)


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
    algo, function, dim, traces = cells[0]
    assert (algo, function, dim) == ("sea", "ellipsoid", 2)
    assert [p.name for p in traces] == ["run0.csv", "run1.csv"]
    errors = collect_final_errors(traces, function, dim)
    assert len(errors) == 2
    assert all(e >= 0.0 for e in errors)


def test_discover_cells_skips_junk(tmp_path):
    junk = tmp_path / "x" / "y" / "zd"
    junk.mkdir(parents=True)
    (junk / "runfoo.csv").write_text("nope")
    assert discover_cells(tmp_path) == []


def test_experiment_matrix_validation():
    with pytest.raises(ValueError):
        ExperimentMatrix(algos=(), functions=("ackley",), dims=(2,))
    with pytest.raises(ValueError):
        ExperimentMatrix(algos=("sea",), functions=("ackley",), dims=(2,), runs_per_cell=0)
    with pytest.raises(ValueError):
        ExperimentMatrix(algos=("sea",), functions=("ackley",), dims=(2,), budget="forever")
    with pytest.raises(ValueError):
        ExperimentMatrix(algos=("sea",), functions=("ackley",), dims=(2,), workers=0)


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
