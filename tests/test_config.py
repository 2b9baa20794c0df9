"""The engine knob table: `EngineConfig` fields against the `run` flags, the
sweep keys, the validation rules and the table in docs/config.md."""

import math
import re
import typing
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from counterniche import (
    ALGORITHMS,
    EngineConfig,
    ExperimentMatrix,
    Population,
    SearchSpace,
    build_grid,
    default_config,
    make,
    run,
)
from counterniche import cli, engines
from counterniche.core import value_range
from counterniche.engines import engine_knobs
from counterniche.harness import load_matrix_config, matrix_keys, write_matrix_config

DOCS = Path(__file__).resolve().parents[1] / "docs" / "config.md"

# sweep keys (and flags) that differ from the field name
KEY_ALIASES = {"N": "pop_size", "elitism_count": "elitism", "sea_variance_mode": "sea_variance"}

# field -> a valid value other than every engine's default (cea at N=12 holds a 3x4 torus)
KNOB_VALUES = {
    "N": 12,
    "elitism_count": 2,
    "p_r": 0.8,
    "p_m": 0.02,
    "p_m_genome": 0.5,
    "sigma_reg": 0.2,
    "grid_bins": 3,
    "tau_dense": 0.1,
    "eps_fit": 0.02,
    "rho_replace": 0.25,
    "sample_budget": 5,
    "key_dim_limit": 7,
    "sea_variance_mode": "annealed",
    "d_low": 1e-5,
    "d_high": 0.3,
}

# values the config rejects when built, for every engine
BAD_KNOBS = [
    ("eps_fit", -0.1),
    ("eps_fit", math.nan),
    ("eps_fit", math.inf),
    ("rho_replace", 0.0),
    ("rho_replace", 1.0),
    ("sample_budget", 0),
    ("sigma_reg", -0.1),
    ("sigma_reg", math.inf),
    ("tau_dense", -1.0),
    ("tau_dense", 0.0),
    ("tau_dense", 1.5),
    ("tau_dense", math.nan),
    ("grid_bins", 1),
    ("key_dim_limit", 0),
    ("sea_variance_mode", "bogus"),
    ("d_low", math.nan),
    ("d_high", math.inf),
]


def _key(name: str) -> str:
    return KEY_ALIASES.get(name, name)


def _flag(name: str) -> str:
    return "--" + _key(name).replace("_", "-")


@pytest.mark.parametrize("name,value", BAD_KNOBS)
def test_bad_knob_rejected_when_built(name, value, tmp_path, capsys):
    for algo in ALGORITHMS:
        with pytest.raises(ValueError, match=name):
            default_config(algo, generations=1, **{name: value})

        dump = tmp_path / "regions.jsonl"
        code = cli.main(
            ["run", "--algo", algo, "--function", "ellipsoid", "--dim", "2",
             "--generations", "1", "--out", str(tmp_path / "t.csv"),
             "--regions-dump", str(dump), _flag(name), str(value)]
        )
        assert code == 2
        assert name in capsys.readouterr().err
        assert not dump.exists()  # the config is built before any output opens

        sweep = tmp_path / "sweep.cfg"
        sweep.write_text(
            f"algos = {algo}\nfunctions = ellipsoid\ndims = 2\n"
            f"output_dir = {tmp_path / 'r'}\n{_key(name)} = {value}\n"
        )
        assert cli.main(["sweep", "--config", str(sweep)]) == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("name,value", [
    ("d_low", math.nan),
    ("d_low", -math.inf),
    ("d_high", math.nan),
    ("d_high", math.inf),
    ("sigma_reg", math.inf),
    ("eps_fit", math.inf),
    ("schwefel_lower", -math.inf),
    ("schwefel_lower", math.nan),
])
def test_non_finite_float_knob_fails_before_the_run(name, value, tmp_path, capsys):
    algo = {"d_low": "dgea", "d_high": "dgea", "sigma_reg": "cnea", "eps_fit": "cnea"}.get(name, "socea")
    function = "schwefel12" if name == "schwefel_lower" else "ellipsoid"
    message = f"{name} must be finite"
    with pytest.raises(ValueError, match=f"{message}, got {value}"):
        if name == "schwefel_lower":
            make(function, 2, schwefel_lower=value)
        else:
            EngineConfig(algo, **{name: value})
    trace = tmp_path / "t.csv"
    code = cli.main(
        ["run", "--algo", algo, "--function", function, "--dim", "2", "--generations", "3",
         "--pop-size", "14", "--out", str(trace), f"{_flag(name)}={value}"]
    )
    assert code == 2
    assert f"{message}, got {value}" in capsys.readouterr().err
    assert not trace.exists()

    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(
        f"algos = {algo}\nfunctions = {function}\ndims = 2\n"
        f"output_dir = {tmp_path / 'r'}\n{_key(name)} = {value}\n"
    )
    with pytest.raises(ValueError, match=re.escape(f"{sweep}:5: {_key(name)}: {name} must be finite")):
        load_matrix_config(sweep)
    assert cli.main(["sweep", "--config", str(sweep)]) == 2
    assert f"{sweep}:5: {_key(name)}: " in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_key_dim_limit_is_the_key_length():
    # all dims up to the limit; above it, that many dims, drawn once per run
    for dim, limit, length in [(4, 10, 4), (10, 10, 10), (12, 10, 10), (12, 3, 3)]:
        keys = set()
        cfg = default_config("cnea", dim=dim, generations=3, N=20, key_dim_limit=limit)
        run(cfg, make("ellipsoid", dim), on_regions=lambda t, regions: keys.add(regions.grid.effective_dims))
        (key,) = keys
        assert len(key) == length and len(set(key)) == length


def test_key_length_beyond_int64_fails_in_run_before_any_draw(monkeypatch):
    built = []
    monkeypatch.setattr(engines, "RngStream", lambda seed: built.append(seed))
    cfg = EngineConfig("cnea", N=10, generations=1, grid_bins=2, key_dim_limit=63)
    with pytest.raises(ValueError, match="too many cells"):
        run(cfg, make("ellipsoid", 63))
    assert built == []  # the run's stream was never built


@pytest.mark.parametrize("dim,bins", [(60, 4), (40, 7)])
def test_key_length_beyond_int64_is_rejected(dim, bins, tmp_path, capsys):
    # every coordinate keys the grid: bins ** dim cells do not fit int64 codes
    with pytest.raises(ValueError, match="too many cells"):
        default_config("cnea", dim=dim, generations=1, grid_bins=bins, key_dim_limit=dim)
    cfg = EngineConfig("cnea", N=10, generations=1, grid_bins=bins, key_dim_limit=dim)
    with pytest.raises(ValueError, match="too many cells"):
        run(cfg, make("ellipsoid", dim))

    trace, dump = tmp_path / "t.csv", tmp_path / "regions.jsonl"
    code = cli.main(
        ["run", "--algo", "cnea", "--function", "ellipsoid", "--dim", str(dim),
         "--generations", "1", "--grid-bins", str(bins), "--key-dim-limit", str(dim),
         "--out", str(trace), "--regions-dump", str(dump)]
    )
    assert code == 2
    assert f"grid_bins {bins} ** key length {dim}" in capsys.readouterr().err
    assert not trace.exists() and not dump.exists()

    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(
        f"algos = cnea\nfunctions = ellipsoid\ndims = {dim}\ngrid_bins = {bins}\n"
        f"key_dim_limit = {dim}\noutput_dir = {tmp_path / 'r'}\n"
    )
    assert cli.main(["sweep", "--config", str(sweep)]) == 2
    assert "too many cells" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    # the same dimension projected onto the stock 10 key dims is fine
    assert default_config("cnea", dim=dim, generations=1, grid_bins=bins).grid_bins == bins


def test_key_length_bound_is_exact():
    for bins, longest in [(2, 62), (3, 39), (4, 31)]:
        default_config("cnea", dim=longest, generations=1, grid_bins=bins, key_dim_limit=longest)
        with pytest.raises(ValueError, match="too many cells"):
            default_config("cnea", dim=longest + 1, generations=1, grid_bins=bins, key_dim_limit=longest + 1)
    # at the longest keys 2 bins allow, the first and the last key dim still tell cells apart
    X = np.zeros((3, 62))
    X[1, 0] = X[2, -1] = 1.0
    grid = build_grid(Population(X, np.zeros(3)), SearchSpace.cube(62, 0.0, 1.0), 2)
    assert grid.cells.tolist() == [0, 1, 2**61]
    assert grid.counts.tolist() == [1, 1, 1] and grid.members.tolist() == [0, 2, 1]
    cfg = default_config("cnea", dim=62, generations=3, N=20, grid_bins=2, key_dim_limit=62)
    assert len(run(cfg, make("ellipsoid", 62)).records) == 4
    # the check is the cnea grid's: other engines never key a grid
    assert default_config("sea", dim=60, generations=1, key_dim_limit=60).key_dim_limit == 60


def test_every_knob_is_a_run_flag_and_a_sweep_key(tmp_path, monkeypatch, capsys):
    not_knobs = ("algo", "generations", "stagnation_window", "max_evaluations", "seed")
    knob_fields = [f.name for f in fields(EngineConfig) if f.name not in not_knobs]
    assert sorted(KNOB_VALUES) == sorted(knob_fields)

    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(
        "algos = cea\nfunctions = ellipsoid\ndims = 2\ngenerations = 1\n"
        + "".join(f"{_key(n)} = {v}\n" for n, v in KNOB_VALUES.items())
    )
    swept = load_matrix_config(sweep).engine_config("cea", 2)

    built = []
    real_run = cli.run
    monkeypatch.setattr(cli, "run", lambda cfg, *a, **k: built.append(cfg) or real_run(cfg, *a, **k))
    argv = ["run", "--algo", "cea", "--function", "ellipsoid", "--dim", "2",
            "--generations", "1", "--out", str(tmp_path / "t.csv")]
    for name, value in KNOB_VALUES.items():
        argv += [_flag(name), str(value)]
    assert cli.main(argv) == 0
    capsys.readouterr()

    assert built == [swept]
    stock = default_config("cea", dim=2, generations=1)
    for name, value in KNOB_VALUES.items():
        assert getattr(swept, name) == value != getattr(stock, name)


def _applies(text: str) -> set[str]:
    if text == "all":
        return set(ALGORITHMS)
    if text == "baselines":
        return set(ALGORITHMS) - {"cnea"}
    names = set(re.findall(r"`(\w+)`", text))
    return set(ALGORITHMS) - names if text.startswith("all except") else names


def test_docs_engine_keys_table_matches_config():
    section = DOCS.read_text().split("### Engine keys", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            rows[cells[0].strip("`")] = cells[1:5]
    knobs = engine_knobs()
    assert list(rows) == list(knobs)
    for key, (kind, default, allowed, applies) in rows.items():
        knob = knobs[key]
        parse = type(knob.default)
        assert kind == {int: "int", float: "float", str: "string"}[parse], key
        assert allowed == (value_range(knob) or "any"), key
        algos = _applies(applies)
        assert algos == set(knob.metadata["applies"]), key
        documented = set()
        for token in re.findall(r"[\w.+-]+", default):
            try:
                documented.add(parse(token))
            except ValueError:
                pass
        stock = {getattr(default_config(a, generations=0), knob.name) for a in algos}
        assert documented == stock, key


def test_zero_stagnation_window_fails_at_load(tmp_path, capsys):
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(
        "algos = sea, cnea\nfunctions = ellipsoid\ndims = 2\nbudget = stagnation\n"
        f"stagnation_window = 0\noutput_dir = {tmp_path / 'r'}\n"
    )
    with pytest.raises(ValueError, match="window"):
        load_matrix_config(sweep)
    assert cli.main(["sweep", "--config", str(sweep)]) == 2
    assert "window" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def _outside(knob):
    """A value just outside each rule a field declares."""
    rules = knob.metadata
    if "choices" in rules:
        yield "bogus"
    for op, step in (("ge", -1), ("gt", 0), ("le", 1), ("lt", 0)):
        if op in rules:
            yield rules[op] + step


OUT_OF_RANGE = [
    (key, value) for key, knob in {**engine_knobs(), **matrix_keys()}.items() for value in _outside(knob)
] + [("dims", "4, 0")]  # each element of a list is held to the bound


@pytest.mark.parametrize("key,value", OUT_OF_RANGE)
def test_every_bound_is_reported_at_its_line(key, value, tmp_path, capsys):
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(
        f"algos = sea\nfunctions = ellipsoid\ndims = 2\noutput_dir = {tmp_path / 'r'}\n{key} = {value}\n"
    )
    with pytest.raises(ValueError, match=re.escape(f"{sweep}:5: {key}: ")):
        load_matrix_config(sweep)
    assert cli.main(["sweep", "--config", str(sweep)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {sweep}:5: {key}: ")
    assert not (tmp_path / "r").exists()


def test_negative_seed_fails_before_any_output(tmp_path, capsys):
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        default_config("sea", dim=2, seed=-1)

    trace = tmp_path / "t.csv"
    code = cli.main(
        ["run", "--algo", "sea", "--function", "ellipsoid", "--dim", "2", "--generations", "1",
         "--seed", "-1", "--out", str(trace)]
    )
    assert code == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not trace.exists()

    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(f"algos = sea\nfunctions = ellipsoid\ndims = 2\noutput_dir = {tmp_path / 'r'}\nseed_base = -1\n")
    assert cli.main(["sweep", "--config", str(sweep)]) == 2
    assert capsys.readouterr().err == f"error: {sweep}:5: seed_base: seed_base must be >= 0, got -1\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("line,key", [
    ("pop_size = ten", "pop_size"),
    ("runs = 2.5", "runs"),
    ("dims = 2, x", "dims"),
    ("schwefel_lower = low", "schwefel_lower"),
    ("rho_replace = half", "rho_replace"),
])
def test_unparsable_value_error_names_file_line_and_key(line, key, tmp_path, capsys):
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(f"algos = sea\nfunctions = ellipsoid\n# a comment\ndims = 2\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{sweep}:5: {key}: ")):
        load_matrix_config(sweep)
    assert cli.main(["sweep", "--config", str(sweep)]) == 2
    assert f"{sweep}:5: {key}: " in capsys.readouterr().err


# the matrix keys without a default
REQUIRED_VALUES = {"algos": ALGORITHMS, "functions": ("ellipsoid", "rastrigin"), "dims": (2, 3)}


def _set_value(field, hint):
    """A valid value of a config field other than its default, from its type and rules alone."""
    rules = field.metadata
    if "choices" in rules:
        return next(c for c in rules["choices"] if c != field.default)
    kind = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    if kind is bool:
        return not field.default
    if kind is int:
        return (rules.get("ge", 0) if field.default is None else field.default) + 1
    if kind is float:
        if field.default is None:
            return -1 / 3  # schwefel_lower must be <= 0; 17 digits are needed to read it back
        top = rules.get("le", rules.get("lt"))
        return field.default * 2 if top is None else (field.default + top) / 2
    assert kind is str, (field.name, hint)
    return "elsewhere"


@pytest.mark.parametrize(
    "every,listed", [(True, tuple), (False, tuple), (False, list)],
    ids=["every-key-set", "optional-keys-unset", "required-keys-as-lists"],
)
def test_written_matrix_loads_back_equal_but_for_output_dir(every, listed, tmp_path):
    hints = {**typing.get_type_hints(ExperimentMatrix), **typing.get_type_hints(EngineConfig)}
    values = {
        f.name: listed(REQUIRED_VALUES[key]) if f.default is MISSING else _set_value(f, hints[f.name])
        for key, f in matrix_keys().items()
        if every or f.default is MISSING
    }
    overrides = {f.name: _set_value(f, hints[f.name]) for f in engine_knobs().values()} if every else {}
    matrix = ExperimentMatrix(**values, engine_overrides=overrides)
    path = tmp_path / "sweep.cfg"
    write_matrix_config(matrix, path)
    loaded = load_matrix_config(path)
    assert replace(loaded, output_dir=matrix.output_dir) == matrix
    # each set key once, under its sweep key (pop_size, not N); output_dir and unset keys not at all
    written = [line.split(" = ")[0] for line in path.read_text().splitlines()]
    expected = [key for key, f in matrix_keys().items() if key != "output_dir" and getattr(matrix, f.name) is not None]
    assert written == expected + (list(engine_knobs()) if every else [])
    if every:
        assert all(getattr(matrix, f.name) != f.default for f in matrix_keys().values() if f.default is not MISSING)
        assert {"pop_size", "elitism", "sea_variance"} <= set(written)
    else:
        assert loaded.generations is loaded.max_evaluations is loaded.schwefel_lower is None
