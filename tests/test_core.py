import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterniche import Individual, Population, RngStream, SearchSpace, clamp, random_genome


def test_search_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(0, np.array([]), np.array([]))
    with pytest.raises(ValueError):
        SearchSpace(2, np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        SearchSpace(2, np.array([0.0]), np.array([1.0, 1.0]))


def test_search_space_cube_and_widths():
    s = SearchSpace.cube(3, -2.0, 2.0)
    assert s.dim == 3
    assert np.array_equal(s.widths(), np.full(3, 4.0))
    assert s.diagonal() == pytest.approx(4.0 * np.sqrt(3.0))


def test_search_space_contains():
    s = SearchSpace.cube(2, 0.0, 1.0)
    assert s.contains([0.0, 1.0])       # closed bounds
    assert s.contains([0.5, 0.5])
    assert not s.contains([1.0001, 0.5])
    assert not s.contains([0.5])        # wrong shape


def test_search_space_bounds_are_read_only():
    s = SearchSpace.cube(2, 0.0, 1.0)
    with pytest.raises(ValueError):
        s.lower[0] = -1.0


def test_individual_freezes_genome():
    ind = Individual(np.array([1.0, 2.0]), 3.0)
    assert ind.fitness == 3.0
    assert ind.evaluated
    with pytest.raises(ValueError):
        ind.genome[0] = 9.0


def test_individual_unevaluated():
    ind = Individual(np.zeros(2))
    assert ind.fitness is None
    assert not ind.evaluated


def test_population_basics():
    X = np.array([[float(i), 0.0] for i in range(4)])
    pop = Population(X, [0.0, 1.0, 2.0, 3.0])
    assert pop.size == 4
    assert pop.X.shape == (4, 2)
    assert np.array_equal(pop.f, [0.0, 1.0, 2.0, 3.0])
    best = pop.best()
    assert isinstance(best, Individual)
    assert best.fitness == 0.0 and np.array_equal(best.genome, X[0])
    # the reported best is a copy, not a view into the population
    assert not np.shares_memory(best.genome, pop.X)


def test_population_best_tie_goes_to_lowest_index():
    pop = Population([[0.0], [1.0], [2.0]], [1.0, 0.5, 0.5])
    assert pop.best_index() == 1


def test_population_rejects_empty_and_unevaluated():
    with pytest.raises(ValueError):
        Population(np.empty((0, 2)), np.empty(0))
    # one fitness per row: a genome without a fitness is an error
    with pytest.raises(ValueError):
        Population(np.zeros((1, 1)), np.empty(0))
    with pytest.raises(ValueError):
        Population(np.zeros(3), np.zeros(3))  # genomes must be rows of a matrix


def test_rng_stream_reproducibility():
    a = RngStream(123)
    b = RngStream(123)
    assert np.array_equal(a.random(10), b.random(10))
    assert np.array_equal(a.normal(size=5), b.normal(size=5))
    assert np.array_equal(a.integers(0, 100, size=5), b.integers(0, 100, size=5))
    assert np.array_equal(a.permutation(20), b.permutation(20))
    assert a.index_subset(50, 10) == b.index_subset(50, 10)


def test_rng_stream_index_subset_contract():
    rng = RngStream(0)
    picked = rng.index_subset(10, 4)
    assert len(picked) == 4
    assert len(set(picked)) == 4
    assert picked == tuple(sorted(picked))
    assert all(0 <= i < 10 for i in picked)
    with pytest.raises(ValueError):
        rng.index_subset(3, 4)
    with pytest.raises(ValueError):
        rng.index_subset(3, 0)


def test_rng_permutation_is_a_permutation():
    rng = RngStream(5)
    perm = rng.permutation(30)
    assert sorted(perm.tolist()) == list(range(30))


def test_random_genome_inside_space():
    s = SearchSpace.cube(6, -3.0, 5.0)
    rng = RngStream(0)
    for _ in range(20):
        assert s.contains(random_genome(s, rng))


def test_clamp_projects_and_validates():
    s = SearchSpace.cube(2, 0.0, 1.0)
    assert np.array_equal(clamp([-1.0, 2.0], s), [0.0, 1.0])
    assert np.array_equal(clamp([0.3, 0.7], s), [0.3, 0.7])
    assert np.array_equal(clamp([[-1.0, 2.0], [0.3, 0.7]], s), [[0.0, 1.0], [0.3, 0.7]])
    with pytest.raises(ValueError):
        clamp([0.5], s)
    with pytest.raises(ValueError):
        clamp(np.zeros((2, 3)), s)


@settings(max_examples=200)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    st.floats(-10.0, 0.0),
    st.floats(0.5, 10.0),
)
def test_clamp_idempotent_and_in_box(values, lo, hi):
    s = SearchSpace.cube(3, lo, hi)
    once = clamp(values, s)
    assert s.contains(once)
    assert np.array_equal(clamp(once, s), once)
