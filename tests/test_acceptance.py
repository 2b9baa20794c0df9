"""Acceptance gate: one test per advertised capability, each recording a
single PASS/FAIL line with its measured numbers.

These are end-to-end checks at pinned tolerances, run against the public API
exactly as a user would call it. The lines land in the terminal summary via
conftest, past pytest's output capture; a failing criterion also carries its
line in the assertion message.
"""

import dataclasses
import math
import statistics
import time

import numpy as np

from counterniche import (
    ALGORITHMS,
    EngineConfig,
    Population,
    RngStream,
    SearchSpace,
    build_grid,
    default_config,
    detect_victims,
    distance_to_average,
    degree_of_diversity,
    detect_stagnation,
    high_density_regions,
    informed_mutation,
    make,
    maturity,
    paired_ttest,
    rotation_matrix,
    run,
)
from counterniche.engines import dgea_mode
from counterniche.stats import two_tailed_p
from counterniche.cli import main as cli_main

from test_diversity import brute_force_spread
from test_harness import brute_force_stagnation
from test_stats import student_tail_p


REPORTED: list[tuple[int, str]] = []


def _report(num: int, label: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    REPORTED.append((num, line))
    print(line)
    assert ok, line


def test_criterion_01_benchmark_fidelity():
    t0 = time.perf_counter()
    worst = 0.0
    for dim in (2, 20, 50, 100):
        for name in ("ackley", "griewank", "rastrigin", "rosenbrock",
                     "ellipsoid", "schwefel12", "rot_rastrigin"):
            fn = make(name, dim)
            worst = max(worst, abs(fn.evaluate(fn.optimum_point)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(1, "benchmark fidelity at optima", ok,
            f"max |f(x*)|={worst:.2e}, {elapsed * 1000:.0f} ms")


def test_criterion_02_rotation_orthogonality():
    worst = 0.0
    for dim in range(2, 101, 2):
        a = rotation_matrix(dim)
        worst = max(worst, float(np.max(np.abs(a.T @ a - np.eye(dim)))))
    ok = worst < 1e-12
    _report(2, "rotation orthogonality", ok, f"max |AtA - I|={worst:.2e}")


def test_criterion_03_spread_measure_oracle():
    rng = RngStream(2024)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        n = int(rng.integers(1, 21))
        space = SearchSpace.cube(dim, -2.0, 3.0)
        genomes = rng.uniform(space.lower, space.upper, size=(n, dim))
        pop = Population(genomes, np.zeros(n))
        got = distance_to_average(pop, space)
        want = brute_force_spread([list(g) for g in genomes], space)
        worst = max(worst, abs(got - want))

    space = SearchSpace.cube(2, 0.0, 1.0)
    same = Population(np.tile([0.4, 0.6], (7, 1)), np.zeros(7))
    identical_zero = distance_to_average(same, space)
    hand = Population([[0.0, 0.0], [1.0, 1.0]], [0.0, 0.0])
    hand_err = abs(distance_to_average(hand, space) - 0.5)
    ok = worst <= 1e-12 and identical_zero == 0.0 and hand_err <= 1e-12
    _report(3, "spread measure matches brute force", ok,
            f"max dev={worst:.2e}, identical={identical_zero}, hand dev={hand_err:.2e}")


def test_criterion_04_locus_measures_sum_to_length():
    rng = np.random.Generator(np.random.PCG64(7))
    bad = 0
    for _ in range(1000):
        length = int(rng.integers(1, 16))
        n = int(rng.integers(1, 12))
        rows = ["".join(str(v) for v in rng.integers(0, 4, size=length)) for _ in range(n)]
        if degree_of_diversity(rows) + maturity(rows) != length:
            bad += 1
    import doctest

    from counterniche import diversity

    doc = doctest.testmod(diversity)
    ok = bad == 0 and doc.failed == 0 and doc.attempted > 0
    _report(4, "locus diversity + maturity = length", ok,
            f"{1000 - bad}/1000 populations, {doc.attempted} worked examples")


def test_criterion_05_elitism_monotonicity():
    fn = make("ellipsoid", 5)
    violations = 0
    for algo in ALGORITHMS:
        for seed in range(5):
            cfg = default_config(algo, dim=5, seed=seed, N=50, generations=100)
            series = run(cfg, fn).best_fitness_series()
            violations += sum(1 for a, b in zip(series, series[1:]) if b > a)
    ok = violations == 0
    _report(5, "best fitness monotone for all engines", ok,
            f"{violations} violations over {len(ALGORITHMS) * 5} traces")


def test_criterion_06_desk_scale_capability():
    fn = make("ellipsoid", 10)
    t0 = time.perf_counter()
    errors = []
    for seed in range(10):
        cfg = default_config("cnea", dim=10, seed=seed, N=100, generations=200)
        errors.append(run(cfg, fn).best.fitness - fn.optimum_value)
    elapsed = time.perf_counter() - t0
    median = statistics.median(errors)
    ok = median < 1e-3 and elapsed < 60.0
    _report(6, "desk-scale capability (ellipsoid 10d)", ok,
            f"median error={median:.3e}, {elapsed:.1f} s")


def test_criterion_07_direction_of_comparison():
    fn = make("rastrigin", 10)
    t0 = time.perf_counter()
    cnea_errors = []
    sea_errors = []
    for seed in range(10):
        c = default_config("cnea", dim=10, seed=seed, N=100, generations=500)
        cnea_errors.append(run(c, fn).best.fitness - fn.optimum_value)
        s = default_config("sea", dim=10, seed=seed, N=100, generations=500)
        sea_errors.append(run(s, fn).best.fitness - fn.optimum_value)
    elapsed = time.perf_counter() - t0
    res = paired_ttest(cnea_errors, sea_errors)
    m_c = statistics.mean(cnea_errors)
    m_s = statistics.mean(sea_errors)
    ok = m_c < m_s and res.p_value < 0.05 and elapsed < 300.0
    _report(7, "counter-niching beats the simple EA (rastrigin 10d)", ok,
            f"means {m_c:.3g} vs {m_s:.3g}, p={res.p_value:.2e}, {elapsed:.0f} s")


def test_criterion_08_informed_op_contract():
    # a converged cluster planted inside the unit square, with an easy bowl
    # objective so virgin cells hold strictly better samples
    space = SearchSpace.cube(2, 0.0, 1.0)
    fn = make("ellipsoid", 2)
    rng = RngStream(101)
    planted_genome = np.array([0.9, 0.9])
    scatter_genomes = rng.uniform(0.3, 0.7, size=(80, 2))
    genomes = np.concatenate([np.tile(planted_genome, (20, 1)), scatter_genomes])
    pop = Population(genomes, fn.evaluate_batch(genomes))
    cfg = EngineConfig("cnea")

    grid = build_grid(pop, space, bins=4)
    regions = high_density_regions(grid, pop, 0.05)
    victims = detect_victims(regions, pop, cfg)
    member_codes = np.repeat(grid.cells, grid.counts)[np.argsort(grid.members)]
    flagged_exactly = (
        len(victims) == 1
        and sorted(np.flatnonzero(member_codes == regions.code[victims.row[0]])) == list(range(20))
    )

    out, fields = informed_mutation(pop, victims, grid, fn, rng, cfg)
    size_ok = out.size == pop.size
    mean = victims.mean[0] if victims else math.nan
    changed = [i for i in range(pop.size) if not np.array_equal(out.X[i], pop.X[i])]
    strict = all(out.f[i] < mean for i in changed)
    ok = flagged_exactly and size_ok and strict and fields["replacements"] == len(changed)
    _report(8, "informed replacement contract", ok,
            f"victims={len(victims)}, replaced={fields['replacements']}, "
            f"fallbacks={fields['fallbacks']}, strict improvement={strict}")


def test_criterion_09_stagnation_detector():
    series = [10.0] * 100 + [5.0] * 900
    at = detect_stagnation(series, 500)
    reference_ok = at == 600

    rng = np.random.Generator(np.random.PCG64(31))
    mismatches = 0
    for _ in range(100):
        length = int(rng.integers(2, 80))
        value = 50.0
        series = [value]
        for _ in range(length):
            if rng.random() < 0.25:
                value -= float(rng.random())
            series.append(value)
        window = int(rng.integers(1, 25))
        if detect_stagnation(series, window) != brute_force_stagnation(series, window):
            mismatches += 1
    ok = reference_ok and mismatches == 0
    _report(9, "stagnation detector", ok,
            f"reference at {at}, oracle mismatches={mismatches}/100")


def test_criterion_10_ttest_oracle():
    worst = 0.0
    for df in (1, 10, 99):
        for t in (0.0, 1.0, 2.0, 5.0):
            worst = max(worst, abs(two_tailed_p(t, df) - student_tail_p(t, df)))
    same = [0.4, 0.7, 0.9, 1.1]
    identical_p = paired_ttest(same, same).p_value
    ok = worst < 1e-6 and identical_p == 1.0
    _report(10, "t-test p-value oracle", ok,
            f"max dev={worst:.2e}, identical-sample p={identical_p}")


def test_criterion_11_mode_switch_logic():
    low, high = 5e-6, 0.25
    # diversity readings walking below the low gate, through the band, above
    # the high gate, and back into the band
    readings = [0.3, 0.1, 1e-7, 1e-4, 0.2, 0.26, 0.1, 4e-6, 0.24]
    expected = ["exploit", "exploit", "explore", "explore", "explore",
                "exploit", "exploit", "explore", "explore"]
    mode = "exploit"
    got = []
    for d in readings:
        mode = dgea_mode(mode, d, low, high)
        got.append(mode)
    boundary_ok = (
        dgea_mode("exploit", low, low, high) == "exploit"
        and dgea_mode("explore", high, low, high) == "explore"
    )
    ok = got == expected and boundary_ok
    _report(11, "mode switch hysteresis", ok,
            f"sequence {'matches' if got == expected else got}, boundaries hold={boundary_ok}")


def test_criterion_12_cli_determinism(tmp_path):
    identical = []
    for algo in ALGORITHMS:
        args = [
            "run", "--algo", algo, "--function", "rastrigin", "--dim", "2",
            "--generations", "8", "--seed", "5",
        ]
        if algo == "cea":
            args += ["--pop-size", "36"]
        else:
            args += ["--pop-size", "30"]
        a = tmp_path / f"{algo}_a.csv"
        b = tmp_path / f"{algo}_b.csv"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        identical.append(a.read_bytes() == b.read_bytes())
    ok = all(identical)
    _report(12, "CLI reruns byte-identical for every engine", ok,
            f"{sum(identical)}/{len(ALGORITHMS)} engines identical")


def test_criterion_13_equal_evaluation_budget():
    # cnea against sea and dgea at one evaluation budget, whatever the errors say
    fn, budget, seeds = make("rastrigin", 10), 30_000, range(5)
    t0 = time.perf_counter()
    errors, within, identical = {}, [], []
    for algo in ("cnea", "sea", "dgea"):
        errors[algo] = []
        for seed in seeds:
            cfg = default_config(algo, dim=10, seed=seed, N=100, generations=100_000, max_evaluations=budget)
            trace, again = (run(cfg, fn) for _ in range(2))
            counts = [r.evaluations for r in trace.records]
            within.append(trace.stopped_by == "evaluations" and counts[-2] < budget <= counts[-1])
            identical.append(
                [dataclasses.replace(r, wall_ms=0.0) for r in trace.records]
                == [dataclasses.replace(r, wall_ms=0.0) for r in again.records]
                and trace.best.genome.tobytes() == again.best.genome.tobytes()
            )
            errors[algo].append(trace.best.fitness - fn.optimum_value)
    elapsed = time.perf_counter() - t0
    medians = ", ".join(f"{algo} {statistics.median(e):.3g}" for algo, e in errors.items())
    paired = ", ".join(
        f"vs {other} t={res.t_statistic:.2f} p={res.p_value:.2g}"
        for other in ("sea", "dgea")
        for res in [paired_ttest(errors["cnea"], errors[other])]
    )
    ok = all(within) and all(identical)
    _report(13, f"equal budget of {budget} evaluations (rastrigin 10d, {len(seeds)} seeds)", ok,
            f"medians {medians}; cnea {paired}; {sum(within)}/{len(within)} runs within one generation, "
            f"{sum(identical)}/{len(identical)} reruns identical, {elapsed:.1f} s")
