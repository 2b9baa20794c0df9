"""Same-seed traces pinned by SHA-256 digest.

Each digest covers every generation record (with `wall_ms` zeroed) and the
bytes of the best genome of a short run. The digests were recorded before
objective evaluation was batched, so they pin the order of every random draw
and every fitness value; those of `socea`, `cea` and `dgea` were recorded
again when those engines began to draw their variation as whole arrays. A
change that moves a draw on purpose must say so in CHANGES.md and record
them again with `python tests/test_golden.py`. The
objective evaluations of each run are pinned beside them, and for two cnea
runs so is the `--regions-dump` output, which holds every dense region's key,
density and fitness statistics. Those two were recorded while the grid was
still a dict of member lists, before it became arrays of integer cell codes.
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
    "cnea-schwefel12-10d-replacement": ("cnea", "schwefel12", 10, dict(N=100, generations=100, seed=5)),
    "cnea-rot_rastrigin-6d": ("cnea", "rot_rastrigin", 6, dict(N=50, generations=20, seed=3)),
    "sea-ackley-8d": ("sea", "ackley", 8, dict(N=40, generations=30, seed=4)),
    "socea-griewank-8d": ("socea", "griewank", 8, dict(N=40, generations=30, seed=5)),
    "cea-rosenbrock-8d": ("cea", "rosenbrock", 8, dict(N=36, cea_rows=6, cea_cols=6, generations=30, seed=6)),
    "dgea-ellipsoid-8d": ("dgea", "ellipsoid", 8, dict(N=40, generations=30, seed=7)),
    "dgea-rastrigin-8d-switching": (
        "dgea", "rastrigin", 8, dict(N=40, generations=40, seed=8, d_low=0.2, d_high=0.3)
    ),
}

DIGESTS = {
    "cea-rosenbrock-8d": "3e5ba785989cb0f1471faab8fdde26e0953686e882e0a5d87cb7d782069886ec",
    "cnea-rastrigin-10d": "fa7b2b446520e9942e6b0140740a6a9c08d4328f28373c39345b20cc83f746fd",
    "cnea-rastrigin-20d-projected": "99a1b313b0290d1abac122154b6eed20aca96fe50b1f55b1c1f4cb3d163d5c84",
    "cnea-rot_rastrigin-6d": "8a4187fc189134488f91650c4739ac96fb03d273410ceb5ffa34a20173060079",
    "cnea-schwefel12-10d-replacement": "caa806638e026ace8503aad589318f91e83ed2404781710e20e0c1d37c2873c9",
    "dgea-ellipsoid-8d": "9d151b1e913fc1d488f7f0156b4baf2b18770b02c5aa1a67b8a8eea72ff1ddf9",
    "dgea-rastrigin-8d-switching": "6d79215a6a47d58fadfab7dd8d4ea2c248891532c07ed0d8bebfb669c53154fd",
    "sea-ackley-8d": "456250de99cb22dbbbc83c067574e7c604dc058bdf68456f20e6574559bdfd01",
    "socea-griewank-8d": "01bd8cbfc41b90b2274b0dc571d3150606828f6b0138c84506ee25dc40334317",
}

EVALUATIONS = {
    "cea-rosenbrock-8d": 1091,
    "cnea-rastrigin-10d": 3076,
    "cnea-rastrigin-20d-projected": 18696,
    "cnea-rot_rastrigin-6d": 1533,
    "cnea-schwefel12-10d-replacement": 50966,
    "dgea-ellipsoid-8d": 1120,
    "dgea-rastrigin-8d-switching": 1265,
    "sea-ackley-8d": 1204,
    "socea-griewank-8d": 1211,
}

# name -> SHA-256 of the JSONL `counterniche run --regions-dump` writes for it
REGIONS_DUMP_DIGESTS = {
    "cnea-rastrigin-20d-projected": "d9c8ad76af9e01fc0329ec14e51241544465e252e36cef2d18157aa920cbcdef",
    "cnea-schwefel12-10d-replacement": "333e403e5b35a2f04785ea148696791b262a1cc4eef6b210b8b33e30c3ab561f",
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


def test_schwefel12_case_makes_one_replacement():
    trace, _ = run_case("cnea-schwefel12-10d-replacement", Counting)
    assert sum(r.replacements for r in trace.records) == 1


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
