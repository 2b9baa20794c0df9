import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from counterniche import (
    ALGORITHMS,
    EngineConfig,
    Population,
    RngStream,
    default_config,
    default_generations,
    make,
    run,
)
from counterniche.engines import (
    _elitist_merge,
    _elitist_union_survivors,
    algorithm_registry,
    dgea_mode,
    engine_steps,
    torus_neighbors,
    torus_shape,
)


def test_algorithm_list():
    assert ALGORITHMS == ("cnea", "sea", "socea", "cea", "dgea")
    assert [a["name"] for a in algorithm_registry()] == list(ALGORITHMS)
    notes = {a["name"]: a["notes"] for a in algorithm_registry()}
    assert "annealed" in notes["sea"] and "torus holding N" in notes["cea"]


def test_default_generations_schedules():
    assert default_generations("cnea", 20) == 500
    assert default_generations("cnea", 50) == 1000
    assert default_generations("cnea", 100) == 2000
    # off-table dims fall back to a proportional schedule with a floor
    assert default_generations("cnea", 10) == 500
    assert default_generations("cnea", 200) == 4000
    assert default_generations("sea", 20) == 1000
    assert default_generations("dgea", 50) == 2500


def test_default_config_populations():
    assert default_config("cnea", dim=10).N == 300
    assert default_config("sea", dim=10).N == 400
    assert default_config("cea", dim=10).N == 400
    cfg = default_config("sea", dim=10, N=64, elitism_count=2)
    assert (cfg.N, cfg.elitism_count) == (64, 2)
    with pytest.raises(ValueError):
        default_config("sea")  # needs dim or generations


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(algo="nope")
    with pytest.raises(ValueError):
        EngineConfig(algo="sea", N=1)
    with pytest.raises(ValueError):
        EngineConfig(algo="sea", generations=-1)
    with pytest.raises(ValueError):
        EngineConfig(algo="sea", N=10, elitism_count=11)
    with pytest.raises(ValueError):
        EngineConfig(algo="sea", p_r=1.2)
    with pytest.raises(ValueError):
        EngineConfig(algo="cnea", key_dim_limit=0)  # a cell key needs a dimension
    with pytest.raises(ValueError):
        EngineConfig(algo="dgea", d_low=0.5, d_high=0.2)


def _members(fitness):
    """Member i sits at genome [i], so a survivor's row names its origin."""
    return Population(np.arange(len(fitness), dtype=float)[:, None], fitness)


def test_elitist_merge_preserves_best_parent():
    parents = _members([3.0, 1.0, 2.0])
    offspring = _members([9.0, 8.0, 7.0])
    out = _elitist_merge(parents, offspring, 1)
    assert out.size == 3
    fits = sorted(out.f)
    assert fits[0] == 1.0           # elite carried over
    assert out.f[0] == 1.0  # into the worst offspring slot
    assert out.X[0, 0] == 1.0       # with its genome


def test_elitist_merge_count_zero_is_pure_replacement():
    parents = _members([0.0, 1.0])
    offspring = _members([5.0, 6.0])
    out = _elitist_merge(parents, offspring, 0)
    assert out.f.tolist() == [5.0, 6.0]


def test_elitist_merge_ties_match_sorted_keys():
    # parents rank by (fitness, index); offspring slots by (-fitness, -index)
    parents = Population(np.arange(6.0)[:, None], [2.0, 1.0, 1.0, 0.0, 0.0, 3.0])
    offspring = Population(10.0 + np.arange(6.0)[:, None], [5.0, 7.0, 7.0, 4.0, 7.0, 6.0])
    count = 4
    elites = sorted(range(6), key=lambda i: (parents.f[i], i))[:count]
    slots = sorted(range(6), key=lambda i: (-offspring.f[i], -i))[:count]
    want = offspring.X[:, 0].tolist()
    for slot, elite in zip(slots, elites):
        want[slot] = parents.X[elite, 0]
    out = _elitist_merge(parents, offspring, count)
    assert out.X[:, 0].tolist() == want == [10.0, 1.0, 4.0, 13.0, 3.0, 2.0]


def test_union_survivors_keeps_elites_and_distinct_rest():
    parents = _members([4.0, 2.0, 6.0, 8.0])
    offspring = _members([5.0, 1.0, 7.0, 3.0])
    offspring.X += 4.0  # union member i sits at genome [i]
    rng = RngStream(0)
    out = _elitist_union_survivors(parents, offspring, 1, rng, 4)
    assert out.size == 4
    assert out.f[0] == 1.0
    # tournament without replacement: every survivor is a distinct union member
    assert len(set(out.X[:, 0].tolist())) == 4


def test_union_survivors_ties_match_sorted_keys():
    # the union ranks by (fitness, index); each pairing keeps the first on ties
    f = [3.0, 1.0, 3.0, 1.0, 2.0, 1.0, 3.0, 2.0]
    parents = Population(np.arange(4.0)[:, None], f[:4])
    offspring = Population(4.0 + np.arange(4.0)[:, None], f[4:])
    count, n = 2, 4
    order = sorted(range(8), key=lambda i: (f[i], i))
    pool = order[count:]
    pairing = RngStream(7).permutation(len(pool))
    want = order[:count]
    for s in range(n - count):
        a, b = pool[pairing[2 * s]], pool[pairing[2 * s + 1]]
        want.append(b if f[b] < f[a] else a)
    out = _elitist_union_survivors(parents, offspring, count, RngStream(7), n)
    assert out.X[:, 0].tolist() == [float(i) for i in want]
    assert out.f.tolist() == [f[i] for i in want]


def test_union_survivors_selection_pressure():
    # 2N members, half good half bad: pairings guarantee at most one bad
    # survivor per bad-vs-bad pairing, so the mean must drop
    parents = _members([10.0] * 10)
    offspring = _members([1.0] * 10)
    out = _elitist_union_survivors(parents, offspring, 1, RngStream(2), 10)
    mean = np.mean(out.f)
    assert mean < 10.0
    assert min(out.f) == 1.0


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_engines_run_and_record(algo):
    fn = make("rastrigin", 3)
    cfg = default_config(algo, dim=3, seed=1, N=20, generations=15)
    trace = run(cfg, fn)
    assert len(trace.records) == 16           # generation 0 plus the budget
    assert trace.records[0].generation == 0
    assert trace.records[-1].generation == 15
    assert trace.generations == 15
    assert trace.best is not None
    assert trace.best.fitness == min(r.best_fitness for r in trace.records)
    for rec in trace.records:
        assert rec.mean_fitness >= rec.best_fitness
        assert 0.0 <= rec.diversity <= 1.0


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_best_fitness_monotone(algo):
    fn = make("ellipsoid", 4)
    cfg = default_config(algo, dim=4, seed=3, N=20, generations=30)
    series = run(cfg, fn).best_fitness_series()
    assert all(b <= a for a, b in zip(series, series[1:]))


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_same_seed_same_trace(algo):
    fn = make("griewank", 2)
    cfg = default_config(algo, dim=2, seed=42, N=12, generations=10)
    s1 = run(cfg, fn).best_fitness_series()
    s2 = run(cfg, fn).best_fitness_series()
    assert s1 == s2


def test_different_seeds_differ():
    fn = make("rastrigin", 3)
    a = run(default_config("sea", dim=3, seed=0, N=20, generations=10), fn)
    b = run(default_config("sea", dim=3, seed=1, N=20, generations=10), fn)
    assert a.best_fitness_series() != b.best_fitness_series()


def test_zero_generations_is_just_the_init():
    fn = make("ackley", 2)
    trace = run(default_config("sea", dim=2, N=10, generations=0), fn)
    assert len(trace.records) == 1
    assert trace.best.fitness == trace.records[0].best_fitness


def test_cnea_counters_populated():
    fn = make("ellipsoid", 2)
    cfg = default_config("cnea", dim=2, seed=0, N=60, generations=40)
    trace = run(cfg, fn)
    total_victims = sum(r.victims for r in trace.records)
    assert total_victims > 0  # convergence on an easy bowl must trigger detection
    for rec in trace.records:
        assert rec.victims >= 0
        assert rec.replacements >= 0
        assert rec.fallbacks >= 0


def test_cnea_on_regions_callback():
    fn = make("ellipsoid", 2)
    cfg = default_config("cnea", dim=2, seed=0, N=40, generations=5)
    seen = []
    run(cfg, fn, on_regions=lambda gen, regions: seen.append((gen, len(regions))))
    assert [g for g, _ in seen] == [1, 2, 3, 4, 5]


def test_cnea_high_dim_projection_stays_fixed():
    fn = make("ellipsoid", 14)
    cfg = default_config("cnea", dim=14, seed=5, N=30, generations=6)
    trace = run(cfg, fn)
    assert len(trace.records) == 7  # smoke: high-dim cell keys use 10 of 14 dims


def test_run_drives_every_engine():
    fn = make("ackley", 2)
    for algo in ALGORITHMS:
        trace = run(default_config(algo, dim=2, N=10, generations=2), fn)
        assert (trace.generations, trace.stopped_by) == (2, "budget")


class _Patched:
    """rastrigin with `value` in place of the fitness of every row whose
    first coordinate exceeds `above`."""

    def __init__(self, fn, value, above):
        self.fn, self.space, self.value, self.above = fn, fn.space, value, above

    def evaluate_batch(self, x):
        return np.where(x[:, 0] > self.above, self.value, self.fn.evaluate_batch(x))


@pytest.mark.parametrize("algo", ["sea", "cnea"])
def test_nan_fitness_raises(algo):
    fn = _Patched(make("rastrigin", 4), np.nan, 4.0)
    cfg = default_config(algo, dim=4, seed=0, N=40, generations=5)
    with pytest.raises(ValueError, match=r"NaN for \d+ of \d+ rows"):
        run(cfg, fn)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_inf_fitness_is_allowed_and_ranks_last(algo):
    fn = _Patched(make("rastrigin", 4), np.inf, 2.0)
    trace = run(default_config(algo, dim=4, seed=0, N=40, generations=5), fn)
    assert np.isfinite(trace.best.fitness)
    assert all(np.isfinite(r.best_fitness) for r in trace.records)
    # an inf member is the first to lose its slot to an elite
    parents = _members([3.0, 1.0])
    out = _elitist_merge(parents, _members([np.inf, 5.0]), 1)
    assert out.f.tolist() == [1.0, 5.0]


@given(st.integers(2, 2000))
@example(400)  # the stock 20x20 torus
@example(1999)  # a prime
def test_torus_shape_is_the_most_nearly_square(n):
    rows, cols = torus_shape(n)
    assert rows * cols == n and rows <= cols
    assert not any(n % d == 0 for d in range(rows + 1, math.isqrt(n) + 1))
    if all(n % d for d in range(2, math.isqrt(n) + 1)):  # a prime is the 1 x n ring
        assert (rows, cols) == (1, n)


def test_torus_neighbors_wrap():
    assert torus_neighbors(0, 0, 20, 20) == [(19, 0), (1, 0), (0, 19), (0, 1)]
    assert torus_neighbors(19, 19, 20, 20) == [(18, 19), (0, 19), (19, 18), (19, 0)]
    assert torus_neighbors(2, 3, 5, 7) == [(1, 3), (3, 3), (2, 2), (2, 4)]


def test_dgea_mode_switch_table():
    low, high = 5e-6, 0.25
    assert dgea_mode("exploit", 1e-7, low, high) == "explore"
    assert dgea_mode("explore", 1e-7, low, high) == "explore"
    assert dgea_mode("explore", 0.3, low, high) == "exploit"
    assert dgea_mode("exploit", 0.3, low, high) == "exploit"
    # inside the band both modes persist (hysteresis)
    assert dgea_mode("explore", 0.1, low, high) == "explore"
    assert dgea_mode("exploit", 0.1, low, high) == "exploit"
    # thresholds themselves are inside the band
    assert dgea_mode("exploit", low, low, high) == "exploit"
    assert dgea_mode("explore", high, low, high) == "explore"


def test_dgea_trace_reports_modes():
    fn = make("rastrigin", 2)
    cfg = default_config("dgea", dim=2, seed=0, N=16, generations=20)
    trace = run(cfg, fn)
    assert trace.records[0].mode == "exploit"
    assert all(r.mode in ("exploit", "explore") for r in trace.records)


def test_non_dgea_trace_mode_blank():
    fn = make("rastrigin", 2)
    trace = run(default_config("sea", dim=2, N=10, generations=3), fn)
    assert all(r.mode == "" for r in trace.records)


def test_engine_steps_is_lazy_and_unbounded():
    fn = make("ackley", 2)
    cfg = default_config("sea", dim=2, N=10, generations=1)
    steps = engine_steps(cfg, fn, RngStream(0))
    # pull well past the configured budget: the stream just keeps going
    for want in range(5):
        rec, best = next(steps)
        assert rec.generation == want
        assert best.fitness <= rec.best_fitness


def test_wall_ms_measured_by_run():
    fn = make("ackley", 2)
    trace = run(default_config("sea", dim=2, N=10, generations=3), fn)
    assert all(r.wall_ms >= 0.0 for r in trace.records)
    assert any(r.wall_ms > 0.0 for r in trace.records)


def test_dgea_computes_each_diversity_once(monkeypatch):
    from counterniche import engines

    calls = []
    real = engines.distance_to_average
    monkeypatch.setattr(engines, "distance_to_average", lambda *a: calls.append(1) or real(*a))
    trace = run(default_config("dgea", generations=10, N=20, seed=0), make("rastrigin", 4))
    # one per record: the mode reads the diversity its population's record holds
    assert len(trace.records) == 11
    assert len(calls) == 11
