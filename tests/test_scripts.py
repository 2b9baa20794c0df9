"""Smoke runs of the example scripts at tiny sizes, so that an API they use
cannot change without a test noticing."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_desk_comparison_smoke(capsys):
    argv = ["--functions", "ellipsoid", "--dim", "2", "--algos", "cnea,sea",
            "--runs", "2", "--generations", "5"]
    assert _main("desk_comparison")(argv) == 0
    out = capsys.readouterr().out
    assert "cnea  ellipsoid  dim=2  runs=2" in out
    assert "sea  ellipsoid  dim=2  runs=2" in out


def test_stagnation_study_smoke(capsys):
    argv = ["--function", "ellipsoid", "--dim", "2", "--algos", "cnea,sea", "--runs", "2",
            "--window", "5", "--hard-cap", "30", "--pop-size", "10"]
    assert _main("stagnation_study")(argv) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [("cnea", "0"), ("cnea", "1"), ("sea", "0"), ("sea", "1")]
    for r in rows:
        assert r[2] in ("stagnation", "cap")
        assert int(r[3]) <= 30
