import json

import pytest

from counterniche import harness
from counterniche.cli import OUTPUT_DIR_ENV, main
from counterniche.harness import read_trace_csv


def test_list_text_output(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "functions:" in out
    assert "rastrigin" in out
    assert "algorithms:" in out
    assert "cnea" in out


def test_list_json_output(capsys):
    assert main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {f["name"] for f in payload["functions"]} >= {"ackley", "schwefel12"}
    assert len(payload["algorithms"]) == 5


def test_list_single_function(capsys):
    assert main(["list", "--function", "griewank"]) == 0
    out = capsys.readouterr().out
    assert "griewank" in out
    assert "algorithms:" not in out
    assert main(["list", "--function", "nope"]) == 1


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
    text = capsys.readouterr().out
    assert "sea  ellipsoid  dim=2  runs=3" in text
    assert "Median" in text
    assert main(["summarize", "--in", str(out_dir), "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert {r["algo"] for r in rows} == {"sea", "socea"}
    assert all(r["best"] <= r["worst"] for r in rows)


def test_summarize_empty_dir(tmp_path, capsys):
    assert main(["summarize", "--in", str(tmp_path)]) == 1
    assert "no cell outputs" in capsys.readouterr().err


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


def test_diversity_report(tmp_path, capsys):
    out_dir = _seed_results(tmp_path, capsys)
    assert main(["diversity-report", "--in", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "avg_diversity" in text
    assert main(["diversity-report", "--in", str(out_dir), "--json", "--burn-in", "0"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    for r in rows:
        assert r["runs_with_signal"] <= 3


def test_main_catches_runtime_errors(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert "error" in capsys.readouterr().err
