"""Same-seed traces pinned by SHA-256 digest.

Each digest covers every generation record (with `wall_ms` zeroed) and the
bytes of the best genome of a short run. The digests were recorded before
objective evaluation was batched, so they pin the order of every random draw
and every fitness value; those of `socea`, `cea` and `dgea` were recorded
again when those engines began to draw their variation as whole arrays, and
those of `cnea` when its regular operators did. A change that moves a draw
on purpose must say so in CHANGES.md and record them again with
`python tests/test_golden.py`. The objective evaluations of each run are pinned beside them, and for two cnea
runs so is the `--regions-dump` output, which holds every dense region's key,
density and fitness statistics. Those two were first recorded while the grid
was still a dict of member lists, before it became arrays of integer cell
codes, and recorded again with the `cnea` digests.
"""

import contextlib
import dataclasses
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from counterniche import cli, default_config, make, run

# name -> (algo, function, dim, config overrides)
CASES = {
    "cnea-rastrigin-10d": ("cnea", "rastrigin", 10, dict(N=60, generations=30, seed=1)),
    "cnea-rastrigin-20d-projected": ("cnea", "rastrigin", 20, dict(N=100, generations=100, seed=2)),
    "cnea-schwefel12-10d-replacement": ("cnea", "schwefel12", 10, dict(N=100, generations=100, seed=7)),
    "cnea-rot_rastrigin-6d": ("cnea", "rot_rastrigin", 6, dict(N=50, generations=20, seed=3)),
    "sea-ackley-8d": ("sea", "ackley", 8, dict(N=40, generations=30, seed=4)),
    "socea-griewank-8d": ("socea", "griewank", 8, dict(N=40, generations=30, seed=5)),
    "cea-rosenbrock-8d": ("cea", "rosenbrock", 8, dict(N=36, generations=30, seed=6)),
    "dgea-ellipsoid-8d": ("dgea", "ellipsoid", 8, dict(N=40, generations=30, seed=7)),
    "dgea-rastrigin-8d-switching": (
        "dgea", "rastrigin", 8, dict(N=40, generations=40, seed=8, d_low=0.2, d_high=0.3)
    ),
}

DIGESTS = {
    "cea-rosenbrock-8d": "3e5ba785989cb0f1471faab8fdde26e0953686e882e0a5d87cb7d782069886ec",
    "cnea-rastrigin-10d": "6b2a40bc96f79ea66a37ea8b7218d51e951ca36c75d079180e7b60df8fb53d23",
    "cnea-rastrigin-20d-projected": "c8e1670b435b08c4372ba467596a16f8fc3b2b07261bf6dd8a751ade4279676d",
    "cnea-rot_rastrigin-6d": "5173649362d51b7bdedebe3128883934bb95ccba299eccb1ba4a1ce8347b979a",
    "cnea-schwefel12-10d-replacement": "d9cfe03f428acad6f6d8d1266cca0496454311feeb605baeb283cf9b0257d781",
    "dgea-ellipsoid-8d": "9d151b1e913fc1d488f7f0156b4baf2b18770b02c5aa1a67b8a8eea72ff1ddf9",
    "dgea-rastrigin-8d-switching": "6d79215a6a47d58fadfab7dd8d4ea2c248891532c07ed0d8bebfb669c53154fd",
    "sea-ackley-8d": "456250de99cb22dbbbc83c067574e7c604dc058bdf68456f20e6574559bdfd01",
    "socea-griewank-8d": "01bd8cbfc41b90b2274b0dc571d3150606828f6b0138c84506ee25dc40334317",
}

EVALUATIONS = {
    "cea-rosenbrock-8d": 1091,
    "cnea-rastrigin-10d": 1950,
    "cnea-rastrigin-20d-projected": 18533,
    "cnea-rot_rastrigin-6d": 3017,
    "cnea-schwefel12-10d-replacement": 16792,
    "dgea-ellipsoid-8d": 1120,
    "dgea-rastrigin-8d-switching": 1265,
    "sea-ackley-8d": 1204,
    "socea-griewank-8d": 1211,
}

# name -> SHA-256 of the JSONL `counterniche run --regions-dump` writes for it
REGIONS_DUMP_DIGESTS = {
    "cnea-rastrigin-20d-projected": "555b83122606feb25a493057fb57df6eb4280dcfc1a51e5c3393a25a21ede569",
    "cnea-schwefel12-10d-replacement": "1d7c6eb299fbd06796d166adbcfdd7f3657166b5077288783a19848c28026cde",
}


class EvaluateOnly:
    """An objective with `evaluate` but no `evaluate_batch`; counts the rows
    it evaluates."""

    def __init__(self, fn):
        self.fn = fn
        self.space = fn.space
        self.rows = 0

    def evaluate(self, x):
        self.rows += 1
        return self.fn.evaluate(x)


class Counting(EvaluateOnly):
    """The benchmark function with both methods, counting rows."""

    def evaluate_batch(self, x):
        self.rows += len(x)
        return self.fn.evaluate_batch(x)


def run_case(name: str, objective):
    algo, function, dim, overrides = CASES[name]
    fn = objective(make(function, dim))
    return run(default_config(algo, dim=dim, **overrides), fn), fn.rows


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for rec in trace.records:
        h.update(repr(dataclasses.astuple(dataclasses.replace(rec, wall_ms=0.0))).encode())
    h.update(trace.best.genome.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_recorded_digest(name):
    trace, evaluations = run_case(name, Counting)
    assert trace_digest(trace) == DIGESTS[name]
    assert evaluations == EVALUATIONS[name]


@pytest.mark.parametrize("name", ["cnea-schwefel12-10d-replacement", "cea-rosenbrock-8d"])
def test_objective_without_evaluate_batch_gives_the_same_trace(name):
    trace, evaluations = run_case(name, EvaluateOnly)
    assert trace_digest(trace) == DIGESTS[name]
    assert evaluations == EVALUATIONS[name]


def test_schwefel12_case_makes_three_replacements():
    trace, _ = run_case("cnea-schwefel12-10d-replacement", Counting)
    assert sum(r.replacements for r in trace.records) == 3


def regions_dump_digest(name: str, out_dir) -> str:
    algo, function, dim, overrides = CASES[name]
    dump = out_dir / f"{name}.jsonl"
    code = cli.main(
        ["run", "--algo", algo, "--function", function, "--dim", str(dim),
         "--pop-size", str(overrides["N"]), "--generations", str(overrides["generations"]),
         "--seed", str(overrides["seed"]), "--out", str(out_dir / f"{name}.csv"),
         "--regions-dump", str(dump)]
    )
    assert code == 0
    return hashlib.sha256(dump.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(REGIONS_DUMP_DIGESTS))
def test_regions_dump_matches_recorded_digest(name, tmp_path, capsys):
    assert regions_dump_digest(name, tmp_path) == REGIONS_DUMP_DIGESTS[name]
    capsys.readouterr()


if __name__ == "__main__":
    runs = {case: run_case(case, EvaluateOnly) for case in sorted(CASES)}
    print("DIGESTS = {")
    for case, (trace, _) in runs.items():
        print(f'    "{case}": "{trace_digest(trace)}",')
    print("}\n\nEVALUATIONS = {")
    for case, (_, evaluations) in runs.items():
        print(f'    "{case}": {evaluations},')
    print("}\n\nREGIONS_DUMP_DIGESTS = {")
    with tempfile.TemporaryDirectory() as out_dir:
        for case in sorted(REGIONS_DUMP_DIGESTS):
            with contextlib.redirect_stdout(io.StringIO()):
                digest = regions_dump_digest(case, Path(out_dir))
            print(f'    "{case}": "{digest}",')
    print("}")
