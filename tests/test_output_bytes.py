"""Persisted outputs pinned byte for byte by SHA-256.

`test_golden.py` pins the records a run yields; this file pins the bytes the
harness and the CLI write from them: the trace CSV of two golden cases (one
with victims, replacements and fallbacks, one with the `mode` column), and a
tiny sweep's `summary.csv` files, its `summarize --json` output and its
`ttest --csv` file. A change to a column, to the float format or to the
order of a table fails here. A change that alters an output on purpose must
say so in CHANGES.md and record the digests again with
`python tests/test_output_bytes.py`.
"""

import contextlib
import hashlib
import io
import re
import tempfile
from pathlib import Path

import pytest

from counterniche import cli, default_config, make, run
from counterniche.harness import TRACE_FIELDS, write_trace_csv

from test_golden import CASES

DOCS = Path(__file__).resolve().parents[1] / "docs" / "config.md"

# golden case -> SHA-256 of its `write_trace_csv` file, timing off
TRACE_CSV_DIGESTS = {
    "cnea-schwefel12-10d-replacement": "26b33edd90df49fa8aa2cf209c68ff5e4d1214dba7b3fe3a84833abe319513f9",
    "dgea-rastrigin-8d-switching": "13008aeed6539eaaaf8e3cf727e643163ffffa70446e98d801d41000c2dc462b",
}

SWEEP_CFG = (
    "algos = cnea, sea\n"
    "functions = ellipsoid\n"
    "dims = 4\n"
    "runs = 3\n"
    "generations = 12\n"
    "pop_size = 20\n"
    "stagnation_window = 2\n"
)

# output -> SHA-256 of its bytes, for the sweep of SWEEP_CFG
SWEEP_DIGESTS = {
    "cnea summary.csv": "04c3c1c2f5358c76e01029b58316bc6a5a17ccf538abbd3901df7a5d78c05bed",
    "sea summary.csv": "4a7b0bdb19bf927b16a06b6621378e3974e886c42d0417ad2d5b368aa6fa7390",
    "summarize --json": "9647c4f04d2f12d47ece92cc8ed448d26dbf1382d957ffd80c52f4e1fa7bd177",
    "ttest --csv": "0e86f9b27643c8fd738e725417d0dd7474ad3f83f932b67f60731feedc497824",
}


def trace_csv_digest(name: str, out_dir: Path) -> str:
    algo, function, dim, overrides = CASES[name]
    trace = run(default_config(algo, dim=dim, **overrides), make(function, dim))
    path = out_dir / f"{name}.csv"
    write_trace_csv(trace, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sweep_digests(out_dir: Path) -> dict[str, str]:
    results = out_dir / "results"
    cfg = out_dir / "sweep.cfg"
    cfg.write_text(SWEEP_CFG + f"output_dir = {results}\n")
    out = {}
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
    for algo in ("cnea", "sea"):
        summary = results / algo / "ellipsoid" / "4d" / "summary.csv"
        out[f"{algo} summary.csv"] = summary.read_bytes()
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert cli.main(["summarize", "--in", str(results), "--json"]) == 0
    out["summarize --json"] = printed.getvalue().encode()
    ttest = out_dir / "ttest.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(
            ["ttest", "--in", str(results), "--a", "cnea:ellipsoid:4",
             "--b", "sea:ellipsoid:4", "--csv", str(ttest)]
        ) == 0
    out["ttest --csv"] = ttest.read_bytes()
    return {key: hashlib.sha256(data).hexdigest() for key, data in out.items()}


@pytest.mark.parametrize("name", sorted(TRACE_CSV_DIGESTS))
def test_trace_csv_matches_recorded_digest(name, tmp_path):
    assert trace_csv_digest(name, tmp_path) == TRACE_CSV_DIGESTS[name]


def test_sweep_outputs_match_recorded_digests(tmp_path):
    assert sweep_digests(tmp_path) == SWEEP_DIGESTS


def test_docs_trace_columns_list_trace_fields():
    section = DOCS.read_text().split("### Trace CSV columns", 1)[1].split("\n- ", 1)[0]
    columns = next(span for span in re.findall(r"`([^`]+)`", section) if "," in span)
    assert tuple(c.strip() for c in columns.split(",")) == TRACE_FIELDS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out_dir:
        print("TRACE_CSV_DIGESTS = {")
        for case in sorted(TRACE_CSV_DIGESTS):
            print(f'    "{case}": "{trace_csv_digest(case, Path(out_dir))}",')
        print("}\n\nSWEEP_DIGESTS = {")
        for key, digest in sweep_digests(Path(out_dir)).items():
            print(f'    "{key}": "{digest}",')
        print("}")
