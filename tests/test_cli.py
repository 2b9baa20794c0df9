import csv
import json

import pytest

from counterniche import benchmarks, harness
from counterniche.cli import OUTPUT_DIR_ENV, main
from counterniche.engines import ALGORITHMS
from counterniche.harness import read_trace_csv


def test_list_text_output(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "functions:" in out
    assert "rastrigin" in out
    assert "algorithms:" in out
    assert "cnea" in out


def test_list_prints_each_table_under_its_name_and_its_rows_keys(capsys):
    assert main(["list"]) == 0
    functions, algorithms = capsys.readouterr().out.split("\n\n")
    functions, algorithms = functions.splitlines(), algorithms.splitlines()
    assert functions[0] == "functions:"
    assert functions[1].split() == ["name", "lower", "upper", "optimum_value", "optimum_point", "note"]
    assert [line.split()[0] for line in functions[2:]] == list(benchmarks.FUNCTION_NAMES)
    assert algorithms[0] == "algorithms:"
    assert algorithms[1].split() == ["name", "population", "notes", "defaults"]
    assert [line.split()[0] for line in algorithms[2:]] == list(ALGORITHMS)


def test_list_json_output(capsys):
    assert main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {f["name"] for f in payload["functions"]} >= {"ackley", "schwefel12"}
    assert len(payload["algorithms"]) == 5


def test_list_json_rows_of_a_table_have_the_same_keys(capsys):
    assert main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for rows in payload.values():
        assert all(row.keys() == rows[0].keys() for row in rows)
    notes = {f["name"]: f["note"] for f in payload["functions"]}
    assert notes["rot_rastrigin"] == "even dimension required" and notes["ackley"] == ""


def test_list_single_function(capsys):
    assert main(["list", "--function", "griewank"]) == 0
    out = capsys.readouterr().out
    assert "griewank" in out
    assert "algorithms:" not in out
    assert main(["list", "--function", "nope"]) == 2  # a usage error, as for `run --function nope`


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["run"]) == 2
    assert main(["run", "--algo", "sea", "--function", "ackley", "--dim", "0"]) == 2
    assert main(["run", "--algo", "bogus", "--function", "ackley", "--dim", "2"]) == 2
    assert main(["ttest", "--in", "x", "--a", "not-a-cell", "--b", "sea:ackley:2"]) == 2
    capsys.readouterr()


def test_run_writes_trace_and_reports(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(
        [
            "run",
            "--algo",
            "sea",
            "--function",
            "ellipsoid",
            "--dim",
            "2",
            "--generations",
            "5",
            "--pop-size",
            "10",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "final_error=" in printed
    assert str(out) in printed
    trace = read_trace_csv(out)
    assert trace.generations == 5


def test_run_determinism_byte_identical(tmp_path):
    args = [
        "run",
        "--algo",
        "cnea",
        "--function",
        "rastrigin",
        "--dim",
        "2",
        "--generations",
        "6",
        "--pop-size",
        "20",
        "--seed",
        "9",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_default_out_respects_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    code = main(
        ["run", "--algo", "sea", "--function", "ackley", "--dim", "2",
         "--generations", "3", "--pop-size", "10", "--seed", "4"]
    )
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "trace_sea_ackley_2d_seed4.csv").exists()


def test_run_regions_dump(tmp_path, capsys):
    dump = tmp_path / "regions.jsonl"
    code = main(
        ["run", "--algo", "cnea", "--function", "ellipsoid", "--dim", "2",
         "--generations", "10", "--pop-size", "40",
         "--out", str(tmp_path / "t.csv"), "--regions-dump", str(dump)]
    )
    assert code == 0
    capsys.readouterr()
    lines = dump.read_text().splitlines()
    assert lines  # an easy bowl at N=40 forms dense cells quickly
    rec = json.loads(lines[0])
    assert set(rec) == {"generation", "cell_key", "density", "fitness_mean", "fitness_std"}
    assert rec["density"] >= 2


def test_run_regions_dump_needs_cnea(tmp_path, capsys):
    # only cnea has dense regions: any other engine is a usage error before any file opens
    dump, trace = tmp_path / "regions.jsonl", tmp_path / "t.csv"
    code = main(
        ["run", "--algo", "sea", "--function", "ellipsoid", "--dim", "2", "--generations", "2",
         "--pop-size", "10", "--out", str(trace), "--regions-dump", str(dump)]
    )
    assert code == 2
    assert "--regions-dump needs --algo cnea" in capsys.readouterr().err
    assert not dump.exists() and not trace.exists()


def test_run_regions_dump_creates_its_directory_after_the_cnea_check(tmp_path, capsys):
    # as --out does; with any engine but cnea no file or directory is made
    argv = ["run", "--function", "ellipsoid", "--dim", "2", "--generations", "2", "--pop-size", "10",
            "--out", str(tmp_path / "t.csv")]
    refused = tmp_path / "sea" / "d" / "r.jsonl"
    assert main([*argv, "--algo", "sea", "--regions-dump", str(refused)]) == 2
    assert not (tmp_path / "sea").exists()
    dump = tmp_path / "cnea" / "d" / "r.jsonl"
    assert main([*argv, "--algo", "cnea", "--regions-dump", str(dump)]) == 0
    assert dump.is_file()


def test_schwefel_lower_is_neither_a_run_flag_nor_a_sweep_key(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    code = main(
        ["run", "--algo", "sea", "--function", "schwefel12", "--dim", "4", "--generations", "2",
         "--pop-size", "10", "--schwefel-lower", "-10", "--out", str(trace)]
    )
    assert code == 2
    assert "--schwefel-lower" in capsys.readouterr().err
    assert not trace.exists()

    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "algos = sea\nfunctions = schwefel12\ndims = 4\nruns = 1\ngenerations = 2\n"
        f"pop_size = 10\nschwefel_lower = -10\noutput_dir = {tmp_path / 'r'}\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:7: unknown config key 'schwefel_lower'\n"
    assert not (tmp_path / "r").exists()


def test_run_rejects_invalid_engine_combo(tmp_path, capsys):
    # more elites than members; the engine config raises, a usage error
    code = main(
        ["run", "--algo", "sea", "--function", "ackley", "--dim", "2",
         "--generations", "2", "--pop-size", "10", "--elitism", "11",
         "--out", str(tmp_path / "t.csv")]
    )
    assert code == 2
    assert "elitism_count 11 exceeds N 10" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--cea-rows", "--cea-cols", "--projected-dims"])
def test_run_has_no_flag_for_a_derived_value(flag, tmp_path, capsys):
    # cea's torus comes from --pop-size, cnea's projection from --key-dim-limit
    code = main(
        ["run", "--algo", "cea", "--function", "ackley", "--dim", "2",
         "--generations", "2", "--out", str(tmp_path / "t.csv"), flag, "5"]
    )
    assert code == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_run_rejects_bad_function_dim_before_any_output(tmp_path, capsys):
    # rot_rastrigin needs an even dim; make() raises, a usage error
    dump = tmp_path / "regions.jsonl"
    code = main(
        ["run", "--algo", "cnea", "--function", "rot_rastrigin", "--dim", "3",
         "--generations", "2", "--out", str(tmp_path / "t.csv"), "--regions-dump", str(dump)]
    )
    assert code == 2
    assert "even dimension" in capsys.readouterr().err
    assert not dump.exists() and not (tmp_path / "t.csv").exists()


def _write_sweep_config(path, out_dir):
    path.write_text(
        "algos = sea\n"
        "functions = ellipsoid\n"
        "dims = 2\n"
        "runs = 2\n"
        "generations = 4\n"
        "pop_size = 10\n"
        f"output_dir = {out_dir}\n"
    )


def test_sweep_runs_matrix(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    out_dir = tmp_path / "results"
    _write_sweep_config(cfg, out_dir)
    assert main(["sweep", "--config", str(cfg)]) == 0
    printed = capsys.readouterr().out
    assert "sea:ellipsoid:2  ok" in printed
    assert (out_dir / "sea" / "ellipsoid" / "2d" / "summary.csv").exists()


def test_sweep_env_overrides_output_dir(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "sweep.cfg"
    _write_sweep_config(cfg, tmp_path / "ignored")
    env_dir = tmp_path / "env_results"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
    assert main(["sweep", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert env_dir.exists()
    assert not (tmp_path / "ignored").exists()


def test_sweep_refuses_a_config_that_is_the_sweep_file_it_would_write(tmp_path, monkeypatch, capsys):
    # a sweep writes its matrix to output_dir/sweep.cfg, which here is the config itself
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    cfg = tmp_path / "sweep.cfg"
    text = "# kept beside its results\nalgos = sea\nfunctions = ellipsoid\ndims = 2\nruns = 1\ngenerations = 2\n"
    cfg.write_text(text + "output_dir = .\n")
    assert main(["sweep", "--config", "sweep.cfg"]) == 2
    assert capsys.readouterr().err.startswith("error: sweep.cfg is the sweep.cfg the sweep writes")
    assert cfg.read_text() == text + "output_dir = .\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.cfg"]
    # so is an output_dir that COUNTERNICHE_OUT sets
    cfg.write_text(text + "output_dir = results\n")
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    assert main(["sweep", "--config", str(cfg)]) == 2
    capsys.readouterr()
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.cfg"]
    # elsewhere, the config is read and a copy of the matrix written
    monkeypatch.delenv(OUTPUT_DIR_ENV)
    assert main(["sweep", "--config", "sweep.cfg"]) == 0
    capsys.readouterr()
    assert (tmp_path / "results" / "sweep.cfg").read_text() != cfg.read_text()


def test_sweep_reports_cell_failures(tmp_path, capsys, monkeypatch):
    # a run that raises in the dim-12 cell, as a failure load cannot see would
    real_run = harness.run

    def failing_run(cfg, fn, *args, **kwargs):
        if fn.space.dim == 12:
            raise RuntimeError("run failed")
        return real_run(cfg, fn, *args, **kwargs)

    monkeypatch.setattr(harness, "run", failing_run)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "algos = cnea\nfunctions = ellipsoid\ndims = 12, 4\nruns = 1\n"
        f"generations = 2\npop_size = 10\noutput_dir = {tmp_path / 'r'}\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "cnea:ellipsoid:12  ERROR  RuntimeError: run failed" in captured.out
    assert "cnea:ellipsoid:4  ok" in captured.out
    assert "1 of 2 cells failed" in captured.err


def test_sweep_rejects_bad_function_dim_before_any_output(tmp_path, capsys):
    # rot_rastrigin needs an even dim: the matrix fails at load, not in its cell
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "algos = sea\nfunctions = ellipsoid, rot_rastrigin\ndims = 2, 3\nruns = 1\n"
        f"generations = 2\npop_size = 10\noutput_dir = {tmp_path / 'r'}\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "even dimension" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("line,message", [
    ("algos = sea, sea", "algos: 'sea' is listed more than once"),
    ("functions = ellipsoid, rastrigin, ellipsoid", "functions: 'ellipsoid' is listed more than once"),
    ("dims = 4, 04", "dims: 4 is listed more than once"),
])
def test_sweep_refuses_a_value_listed_twice_before_any_output(line, message, tmp_path, capsys):
    # a repeated value would run its cells twice, with two workers writing the same files;
    # each key is given once, the repeating one on line 5
    stock = {"algos": "sea", "functions": "ellipsoid", "dims": "4", "runs": "1"}
    lines = [f"{key} = {value}" for key, value in stock.items() if not line.startswith(key)]
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("\n".join([*lines, f"output_dir = {tmp_path / 'r'}", line]) + "\n")
    assert main(["sweep", "--config", str(cfg), "--workers", "2"]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:5: {message}\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("line,message", [
    ("algos = cnea", "algos: given twice (first on line 1)"),
    ("pop_size = 20", "pop_size: given twice (first on line 3)"),
])
def test_sweep_refuses_a_key_given_twice_before_any_output(line, message, tmp_path, capsys):
    # the later line would silently win over the first
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"algos = sea\nfunctions = ellipsoid\npop_size = 10\noutput_dir = {tmp_path / 'r'}\n"
                   f"dims = 4\n# a comment, not a key\n{line}\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:7: {message}\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--dim", "0", "dim must be positive, got 0"),
    ("--dim", "-3", "dim must be positive, got -3"),
    ("--generations", "-1", "generations must be >= 0, got -1"),
])
def test_run_bad_dim_or_generations_exit_2_before_any_output(flag, value, message, tmp_path, capsys):
    # the library refuses these values; the flags only parse an int
    argv = {"--algo": "sea", "--function": "ellipsoid", "--dim": "2", "--generations": "2",
            "--out": str(tmp_path / "t.csv"), flag: value}
    assert main(["run", *(part for pair in argv.items() for part in pair)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_sweep_workers_flag_is_checked_by_the_matrix(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"algos = sea\nfunctions = ellipsoid\ndims = 2\noutput_dir = {tmp_path / 'r'}\n")
    assert main(["sweep", "--config", str(cfg), "--workers", "0"]) == 2
    assert "workers must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def _seed_results(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    out_dir = tmp_path / "results"
    cfg.write_text(
        "algos = sea, socea\n"
        "functions = ellipsoid\n"
        "dims = 2\n"
        "runs = 3\n"
        "generations = 4\n"
        "pop_size = 10\n"
        f"output_dir = {out_dir}\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    capsys.readouterr()
    return out_dir


def test_summarize_text_and_json(tmp_path, capsys):
    out_dir = _seed_results(tmp_path, capsys)
    assert main(["summarize", "--in", str(out_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert main(["summarize", "--in", str(out_dir), "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert {r["algo"] for r in rows} == {"sea", "socea"}
    assert all(r["best"] <= r["worst"] for r in rows)
    # the text is the same rows: its header is their keys in row order (--json sorts them)
    header = lines[0].split()
    assert header == ["algo", "function", "dim", "runs", "best", "p23", "median", "p73", "worst", "mean", "std",
                      "stalled_runs"]
    assert sorted(header) == list(rows[0])
    assert [line.split()[:4] for line in lines[1:]] == [[r["algo"], r["function"], "2", "3"] for r in rows]
    assert [line.split()[-1] for line in lines[1:]] == [str(r["stalled_runs"]) for r in rows]


# every engine, four runs each, several of which stall for 9 generations within 50
STALL_SWEEP = (
    "algos = cnea, sea, socea, cea, dgea\nfunctions = ellipsoid\ndims = 2\nruns = 4\ngenerations = 50\n"
    "pop_size = 10\nstagnation_window = 9\n"
)


@pytest.mark.parametrize("max_evaluations", [None, 240])
@pytest.mark.parametrize("budget", ["fixed", "stagnation"])
def test_summarize_counts_the_stalled_runs_summary_csv_counts(budget, max_evaluations, tmp_path, capsys):
    out_dir = tmp_path / "results"
    cfg = tmp_path / "stall.cfg"
    budget_line = "" if max_evaluations is None else f"max_evaluations = {max_evaluations}\n"
    cfg.write_text(STALL_SWEEP + f"budget = {budget}\n{budget_line}output_dir = {out_dir}\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["summarize", "--in", str(out_dir), "--json"]) == 0
    printed = capsys.readouterr().out
    summaries = sorted(out_dir.glob("*/*/*d/summary.csv"))
    # every column the two share: the run count, the rank picks, mean and std, and the stalled runs
    shared = {"runs": int, **dict.fromkeys(("best", "p23", "median", "p73", "worst", "mean", "std"), float),
              "stalled_runs": int}
    stored = {}
    for path in summaries:
        with open(path, newline="") as fh:
            (row,) = csv.DictReader(fh)
        stored[row["algo"]] = {name: kind(row[name]) for name, kind in shared.items()}
    assert len(stored) == 5
    assert {row["algo"]: {name: row[name] for name in shared} for row in json.loads(printed)} == stored
    # the count comes from the traces and sweep.cfg, not from summary.csv
    for path in summaries:
        path.unlink()
    assert main(["summarize", "--in", str(out_dir), "--json"]) == 0
    assert capsys.readouterr().out == printed


def test_read_commands_read_only_the_cells_and_runs_of_the_last_sweep(tmp_path, capsys):
    # a second sweep into the same output_dir, with fewer algos and runs, leaves the first one's traces there
    out_dir = tmp_path / "results"
    cfg = tmp_path / "s.cfg"
    for algos, runs in [("cnea, sea", 4), ("cnea", 2)]:
        cfg.write_text(f"algos = {algos}\nfunctions = ellipsoid\ndims = 2\nruns = {runs}\ngenerations = 5\n"
                       f"pop_size = 10\noutput_dir = {out_dir}\n")
        assert main(["sweep", "--config", str(cfg)]) == 0
    assert (out_dir / "sea" / "ellipsoid" / "2d" / "run3.csv").exists()
    capsys.readouterr()
    assert main(["summarize", "--in", str(out_dir), "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    with open(out_dir / "cnea" / "ellipsoid" / "2d" / "summary.csv", newline="") as fh:
        (stored,) = csv.DictReader(fh)
    shared = stored.keys() & row.keys()
    assert row["runs"] == 2 and {"best", "mean", "stalled_runs"} <= shared
    assert {name: type(row[name])(stored[name]) for name in shared} == {name: row[name] for name in shared}
    assert main(["ttest", "--in", str(out_dir), "--a", "cnea:ellipsoid:2"]) == 1
    assert capsys.readouterr().err == f"error: no other algo's ellipsoid:2 cell under {out_dir}\n"


def test_summarize_without_a_sweep_file_prints_null_stalled_runs(tmp_path, capsys):
    # a cell of traces alone, as `run --out` writes it: no stall window to count with
    trace = tmp_path / "sea" / "ellipsoid" / "2d" / "run0.csv"
    argv = ["run", "--algo", "sea", "--function", "ellipsoid", "--dim", "2", "--generations", "3",
            "--pop-size", "10", "--out", str(trace)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["summarize", "--in", str(tmp_path), "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert (row["runs"], row["stalled_runs"]) == (1, None)
    assert main(["summarize", "--in", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[-1] == "n/a"


@pytest.mark.parametrize("argv", [
    pytest.param(["summarize"], id="summarize"),
    pytest.param(["ttest", "--a", "sea:ellipsoid:2"], id="ttest"),
    pytest.param(["diversity-report"], id="diversity-report"),
    pytest.param(["diversity-report", "--burn-in", "0"], id="diversity-report-burn-in"),
])
def test_summarize_empty_dir(argv, tmp_path, capsys):
    assert main([*argv, "--in", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: no cell outputs under {tmp_path}\n"


def test_ttest_between_cells(tmp_path, capsys):
    out_dir = _seed_results(tmp_path, capsys)
    csv_out = tmp_path / "tt.csv"
    code = main(
        ["ttest", "--in", str(out_dir),
         "--a", "sea:ellipsoid:2", "--b", "socea:ellipsoid:2",
         "--csv", str(csv_out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "sea" in text and "socea" in text
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "function,dim,algo_a,algo_b,t,df,p"
    assert len(lines) == 2
    p = float(lines[1].split(",")[-1])
    assert 0.0 <= p <= 1.0


def test_ttest_missing_cell(tmp_path, capsys):
    out_dir = _seed_results(tmp_path, capsys)
    code = main(
        ["ttest", "--in", str(out_dir), "--a", "cnea:ellipsoid:2", "--b", "sea:ellipsoid:2"]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_ttest_names_the_directory_of_a_cell_missing_from_a_sweep(tmp_path, capsys):
    out_dir = _seed_results(tmp_path, capsys)
    assert main(["ttest", "--in", str(out_dir), "--a", "sea:ellipsoid:2", "--b", "cnea:ellipsoid:2"]) == 1
    assert capsys.readouterr().err == f"error: no run traces under {out_dir / 'cnea' / 'ellipsoid' / '2d'}\n"


def test_diversity_report(tmp_path, capsys):
    out_dir = _seed_results(tmp_path, capsys)
    assert main(["diversity-report", "--in", str(out_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the table `ttest` prints too: the rows' keys as its header, one line per cell
    header = ["algo", "function", "dim", "runs_with_signal", "generations_counted", "average_diversity"]
    assert lines[0].split() == header and len(lines) == 3
    # the runs end at generation 4, so after a burn-in of 4 no generation improves: n/a
    assert main(["diversity-report", "--in", str(out_dir), "--burn-in", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[1:]] == [
        [algo, "ellipsoid", "2", "0", "0", "n/a"] for algo in ("sea", "socea")
    ]
    assert main(["diversity-report", "--in", str(out_dir), "--json", "--burn-in", "0"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    for r in rows:
        assert r["runs_with_signal"] <= 3
    assert main(["diversity-report", "--in", str(out_dir), "--burn-in", "-1"]) == 2
    assert "burn-in must be nonnegative, got -1" in capsys.readouterr().err


def test_diversity_report_refuses_negative_burn_in_over_an_empty_dir(tmp_path, capsys):
    # the flag is refused before any cell is looked for
    assert main(["diversity-report", "--in", str(tmp_path), "--burn-in", "-1"]) == 2
    err = capsys.readouterr().err
    assert "burn-in must be nonnegative, got -1" in err and "no cell outputs" not in err


def test_main_catches_runtime_errors(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert "error" in capsys.readouterr().err


def test_run_max_evaluations_stops_the_run_and_refuses_a_bad_value(tmp_path, capsys):
    out = tmp_path / "t.csv"
    argv = ["run", "--algo", "cnea", "--function", "ellipsoid", "--dim", "2", "--pop-size", "10",
            "--generations", "500", "--out", str(out)]
    for bad in ("0", "-1"):
        assert main(argv + ["--max-evaluations", bad]) == 2
        assert f"max_evaluations must be >= 1, got {bad}" in capsys.readouterr().err
        assert not out.exists()
    assert main(argv + ["--max-evaluations", "300"]) == 0
    capsys.readouterr()
    counts = [r.evaluations for r in read_trace_csv(out).records]
    assert counts[-2] < 300 <= counts[-1]


def test_run_says_how_its_run_ended(tmp_path, capsys):
    argv = ["run", "--algo", "cnea", "--function", "ellipsoid", "--dim", "2", "--pop-size", "10",
            "--out", str(tmp_path / "t.csv")]
    # 5 generations of N=10 score far fewer than 100,000 rows: `generations` cut the run short of its budget
    assert main(argv + ["--generations", "5", "--max-evaluations", "100000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("final_error=") and lines[1] == "stopped_by=budget"
    assert main(argv + ["--generations", "500", "--max-evaluations", "300"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "stopped_by=evaluations"
