"""Studies are sweep files that the CLI runs.

The reference functions below keep, at a tiny size, the loops of the two
study scripts those files replace: the desk comparison (final errors of each
algo on paired seeds, then a paired t-test of `cnea` against each baseline)
and the stagnation study (each run's stop generation, final error and
average diversity). A sweep plus `ttest`, `summarize` and `diversity-report`
must give their numbers exactly.
"""

import contextlib
import csv
import io
import json
from dataclasses import MISSING
from pathlib import Path

import pytest

from counterniche import cli, default_config, make, paired_ttest, run
from counterniche.core import value_range
from counterniche.harness import (
    default_burn_in,
    diversity_profile,
    load_matrix_config,
    matrix_keys,
    read_trace_csv,
)

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "docs" / "config.md"
ALGOS = ("cnea", "sea", "socea", "dgea")

DESK_FUNCTIONS, DESK_DIM, DESK_RUNS, DESK_GENERATIONS = ("rastrigin", "ellipsoid"), 4, 4, 8
DESK_CFG = (
    f"algos = {', '.join(ALGOS)}\nfunctions = {', '.join(DESK_FUNCTIONS)}\ndims = {DESK_DIM}\n"
    f"runs = {DESK_RUNS}\ngenerations = {DESK_GENERATIONS}\npop_size = 100\n"
)

STAG_FUNCTION, STAG_DIM, STAG_RUNS, STAG_WINDOW, STAG_GENERATIONS, STAG_POP = "rastrigin", 4, 3, 5, 60, 20
STAG_CFG = (
    f"algos = {', '.join(ALGOS)}\nfunctions = {STAG_FUNCTION}\ndims = {STAG_DIM}\nruns = {STAG_RUNS}\n"
    f"budget = stagnation\nstagnation_window = {STAG_WINDOW}\ngenerations = {STAG_GENERATIONS}\n"
    f"pop_size = {STAG_POP}\n"
)


def desk_reference(function: str) -> dict:
    """Baseline -> the paired t-test of cnea's final errors against its."""
    fn = make(function, DESK_DIM)
    errors = {}
    for algo in ALGOS:
        errors[algo] = []
        for seed in range(DESK_RUNS):
            cfg = default_config(algo, dim=DESK_DIM, generations=DESK_GENERATIONS, seed=seed, N=100)
            errors[algo].append(run(cfg, fn).best.fitness - fn.optimum_value)
    return {other: paired_ttest(errors["cnea"], errors[other]) for other in ALGOS[1:]}


def stagnation_reference(algo: str) -> list[tuple]:
    """(stop generation, final error, average diversity) of each run."""
    fn = make(STAG_FUNCTION, STAG_DIM)
    out = []
    for seed in range(STAG_RUNS):
        cfg = default_config(
            algo, dim=STAG_DIM, generations=STAG_GENERATIONS, seed=seed, N=STAG_POP, stagnation_window=STAG_WINDOW
        )
        trace = run(cfg, fn)
        profile = diversity_profile(trace, default_burn_in(trace.generations))
        out.append((trace.records[-1].generation, trace.best.fitness - fn.optimum_value,
                    profile.average_diversity))
    return out


def _cli(*argv) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main([str(a) for a in argv]) == 0
    return out.getvalue()


def _sweep(cfg_text: str, out_dir: Path) -> Path:
    results = out_dir / "results"
    cfg = out_dir / "study.cfg"
    cfg.write_text(cfg_text + f"output_dir = {results}\n")
    _cli("sweep", "--config", cfg)
    return results


def _ttest_csv(results: Path, function: str, path: Path) -> bytes:
    _cli("ttest", "--in", results, "--a", f"cnea:{function}:{DESK_DIM}", "--csv", path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def desk_results(tmp_path_factory):
    return _sweep(DESK_CFG, tmp_path_factory.mktemp("desk"))


@pytest.mark.parametrize("function", DESK_FUNCTIONS)
def test_desk_sweep_and_ttest_reproduce_the_desk_comparison(function, desk_results, tmp_path):
    _ttest_csv(desk_results, function, tmp_path / "ttest.csv")
    with open(tmp_path / "ttest.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # one row per other algo's cell of this function and dim, in discover_cells order
    assert [row["algo_b"] for row in rows] == sorted(ALGOS[1:])
    expected = desk_reference(function)
    for row in rows:
        ref = expected[row["algo_b"]]
        assert (row["function"], row["dim"], row["algo_a"]) == (function, str(DESK_DIM), "cnea")
        assert float(row["t"]) == ref.t_statistic
        assert int(row["df"]) == ref.degrees_of_freedom
        assert float(row["p"]) == ref.p_value


def test_stagnation_sweep_reproduces_the_stagnation_study(tmp_path):
    results = _sweep(STAG_CFG, tmp_path)
    summaries = {row["algo"]: row for row in json.loads(_cli("summarize", "--in", results, "--json"))}
    diversity = {row["algo"]: row for row in json.loads(_cli("diversity-report", "--in", results, "--json"))}
    for algo in ALGOS:
        expected = stagnation_reference(algo)
        cell = results / algo / STAG_FUNCTION / f"{STAG_DIM}d"
        stops = [read_trace_csv(cell / f"run{r}.csv").records[-1].generation for r in range(STAG_RUNS)]
        assert stops == [stop for stop, _, _ in expected]
        assert all(stop < STAG_GENERATIONS for stop in stops)  # each run stalled before its last generation
        # three runs: best, median and worst are all of the sorted final errors
        summary = summaries[algo]
        assert [summary[k] for k in ("best", "median", "worst")] == sorted(e for _, e, _ in expected)
        averages = [avg for _, _, avg in expected if avg is not None]
        assert diversity[algo]["runs_with_signal"] == len(averages) > 0
        assert diversity[algo]["average_diversity"] == sum(averages) / len(averages)


def test_multi_row_ttest_csv_rerun_is_byte_identical(desk_results, tmp_path):
    rerun = _sweep(DESK_CFG, tmp_path)
    first = _ttest_csv(desk_results, "rastrigin", tmp_path / "first.csv")
    assert first.count(b"\n") == len(ALGOS)  # a header and three pairs
    assert _ttest_csv(rerun, "rastrigin", tmp_path / "second.csv") == first


@pytest.mark.parametrize("path", sorted((ROOT / "scripts").glob("*.cfg")), ids=lambda p: p.name)
def test_study_files_load(path):
    assert load_matrix_config(path).algos


# a documented default that is no value of its key
_UNSET = {"required": MISSING, "per-algo schedule": None, "unset": None}


def test_docs_matrix_keys_table_matches_matrix():
    section = DOCS.read_text().split("### Matrix keys", 1)[1].split("\n### ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [c.strip() for c in line.split("|")[1:-1]]
            rows.setdefault(cells[0].strip("`"), []).append(cells[2:4])
    keys = matrix_keys()
    assert sorted(rows) == sorted(keys)
    for key, documented in rows.items():
        assert len(documented) == 1, key
        f = keys[key]
        (text, allowed), = documented
        value = _UNSET[text] if text in _UNSET else f.metadata["parse"](text.strip("`"))
        assert value == f.default, key
        assert allowed == (value_range(f) or "any"), key
