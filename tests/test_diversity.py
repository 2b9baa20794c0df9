import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterniche import (
    Population,
    RngStream,
    SearchSpace,
    degree_of_diversity,
    distance_to_average,
    maturity,
)


def _pop(rows, fitness=0.0):
    return Population(rows, np.full(len(rows), fitness))


def brute_force_spread(genomes, space) -> float:
    """Reference implementation in plain Python: mean per-coordinate average,
    then the sum of member distances scaled by diagonal and count."""
    n = len(genomes)
    dim = len(genomes[0])
    avg = [sum(g[j] for g in genomes) / n for j in range(dim)]
    diag = math.sqrt(sum((space.upper[j] - space.lower[j]) ** 2 for j in range(dim)))
    total = 0.0
    for g in genomes:
        total += math.sqrt(sum((g[j] - avg[j]) ** 2 for j in range(dim)))
    return total / (diag * n)


def test_hand_case_unit_square():
    space = SearchSpace.cube(2, 0.0, 1.0)
    pop = _pop([[0.0, 0.0], [1.0, 1.0]])
    assert distance_to_average(pop, space) == pytest.approx(0.5, abs=1e-12)


def test_hand_case_unit_interval():
    space = SearchSpace.cube(1, 0.0, 1.0)
    pop = _pop([[0.0], [1.0]])
    assert distance_to_average(pop, space) == pytest.approx(0.5, abs=1e-12)


def test_identical_population_is_exactly_zero():
    space = SearchSpace.cube(2, 0.0, 1.0)
    # 3 members: the float mean of three identical rows can miss by an ulp,
    # so exactness here exercises the short-circuit
    pop = _pop([[0.1, 0.7]] * 3)
    assert distance_to_average(pop, space) == 0.0


def full_test_spread(x, space) -> float:
    """`distance_to_average` with only the full all-rows-equal test, in its
    IEEE operations."""
    if np.all(x == x[0]):
        return 0.0
    n = x.shape[0]
    centered = x - np.add.reduce(x, axis=0) / n
    dists = np.sqrt(np.add.reduce(centered * centered, axis=1))
    return float(np.sum(dists) / (space.diagonal() * n))


@pytest.mark.parametrize("middle", [1, 2])
def test_first_and_last_rows_equal_with_a_middle_row_apart(middle):
    # the last row matches row 0, so only the full test sees the population is not converged
    space = SearchSpace.cube(2, 0.0, 1.0)
    x = np.array([[0.1, 0.7]] * 4)
    x[middle, 1] = 0.3
    value = distance_to_average(_pop(x), space)
    assert value > 0.0
    assert value == full_test_spread(x, space)


def test_matches_brute_force_on_random_populations():
    rng = RngStream(42)
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        n = int(rng.integers(1, 21))
        space = SearchSpace.cube(dim, -3.0, 7.0)
        genomes = rng.uniform(space.lower, space.upper, size=(n, dim))
        pop = _pop(genomes)
        expected = brute_force_spread([list(g) for g in genomes], space)
        assert distance_to_average(pop, space) == pytest.approx(expected, abs=1e-12)


def test_dimension_mismatch_rejected():
    space = SearchSpace.cube(3, 0.0, 1.0)
    pop = _pop([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        distance_to_average(pop, space)


@settings(max_examples=100)
@given(st.integers(1, 4), st.integers(1, 15), st.integers(0, 2**32 - 1))
def test_spread_always_in_unit_interval(dim, n, seed):
    rng = RngStream(seed)
    space = SearchSpace.cube(dim, -1.0, 1.0)
    genomes = rng.uniform(space.lower, space.upper, size=(n, dim))
    value = distance_to_average(_pop(genomes), space)
    assert 0.0 <= value <= 1.0


def test_degree_of_diversity_examples():
    assert degree_of_diversity(["000", "011"]) == 2
    assert degree_of_diversity(["101", "101", "101"]) == 0
    assert degree_of_diversity(["01", "10"]) == 2


def test_maturity_examples():
    assert maturity(["000", "011"]) == 1
    assert maturity(["101", "101"]) == 3
    assert maturity(["01", "10"]) == 0


def test_diversity_module_doctests_hold():
    import doctest

    from counterniche import diversity

    result = doctest.testmod(diversity)
    assert result.attempted > 0
    assert result.failed == 0


def test_discrete_measures_accept_tuples():
    rows = [(0, 1, 2), (0, 1, 3), (0, 2, 2)]
    assert degree_of_diversity(rows) == 2
    assert maturity(rows) == 1


def test_discrete_measures_validate_input():
    with pytest.raises(ValueError):
        degree_of_diversity([])
    with pytest.raises(ValueError):
        degree_of_diversity(["01", "011"])
    with pytest.raises(ValueError):
        maturity([""])


@settings(max_examples=300)
@given(
    st.integers(1, 12),
    st.integers(1, 10),
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
)
def test_degree_plus_maturity_equals_length(length, n, alphabet, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = ["".join(str(v) for v in rng.integers(0, alphabet, size=length)) for _ in range(n)]
    assert degree_of_diversity(rows) + maturity(rows) == length
