import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from counterniche import Individual, Population, RngStream, SearchSpace


def test_search_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(0, np.array([]), np.array([]))
    with pytest.raises(ValueError):
        SearchSpace(2, np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        SearchSpace(2, np.array([0.0]), np.array([1.0, 1.0]))


@pytest.mark.parametrize("lower,upper", [
    (-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0), (0.0, np.nan), (-np.inf, np.inf),
])
def test_search_space_rejects_non_finite_bounds(lower, upper):
    with pytest.raises(ValueError, match="bounds must be finite"):
        SearchSpace(2, np.array([0.0, lower]), np.array([1.0, upper]))
    with pytest.raises(ValueError, match="bounds must be finite"):
        SearchSpace.cube(3, lower, upper)


def test_search_space_cube_and_widths():
    s = SearchSpace.cube(3, -2.0, 2.0)
    assert s.dim == 3
    assert np.array_equal(s.widths(), np.full(3, 4.0))
    assert s.diagonal() == pytest.approx(4.0 * np.sqrt(3.0))


def test_search_space_bounds_are_read_only():
    s = SearchSpace.cube(2, 0.0, 1.0)
    with pytest.raises(ValueError):
        s.lower[0] = -1.0


def test_individual_freezes_genome():
    ind = Individual(np.array([1.0, 2.0]), 3.0)
    assert ind.fitness == 3.0
    with pytest.raises(ValueError):
        ind.genome[0] = 9.0


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
    best = pop.best()
    assert best.genome.tolist() == [1.0] and best.fitness == 0.5


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
    assert np.array_equal(a.choice(50, size=10, replace=False), b.choice(50, size=10, replace=False))


def test_rng_stream_copies_continue_the_stream():
    fresh, drawing = RngStream(9), RngStream(9)
    drawing.integers(0, 10)  # leaves the spare half with the stream
    for rng in (fresh, drawing):
        for duplicate in (lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy):
            twin = duplicate(rng)
            assert [twin.integers(0, 100) for _ in range(5)] == [rng.integers(0, 100) for _ in range(5)]
            assert np.array_equal(twin.permutation(10), rng.permutation(10))


def test_rng_permutation_is_a_permutation():
    rng = RngStream(5)
    perm = rng.permutation(30)
    assert sorted(perm.tolist()) == list(range(30))


# Spans of `integers`: 1 draws nothing on either side, 2**31 + 1 redraws about half the
# time, 2**32 - 1 is the widest exact scalar span and 2**32 is numpy's own
# 32-bit path; 0 is an error on both sides.
SPANS = (0, 1, 2, 100, 2**31 + 1, 2**32 - 1, 2**32)

_bounds = st.tuples(st.integers(-1000, 1000), st.sampled_from(SPANS), st.booleans())
_size = st.none() | st.integers(0, 4)
_draw_ops = st.lists(
    st.one_of(  # scalar integers twice, so they come up most often
        st.tuples(st.just("integers"), _bounds, st.none()),
        st.tuples(st.just("integers"), _bounds, st.none()),
        st.tuples(st.just("integers"), _bounds, _size),
        st.tuples(st.just("permutation"), st.integers(0, 12)),
        st.tuples(st.just("random"), _size),
        st.tuples(st.just("uniform"), st.booleans(), _size),
        st.tuples(st.just("normal"), _size),
        st.tuples(st.just("uniform_heads"), st.booleans(), st.integers(1, 4), st.integers(1, 3), st.integers(0, 5)),
    ),
    max_size=40,
)


def _apply(op, rng):
    """Run one draw on an RngStream or, with the same meaning, on a plain
    numpy Generator."""
    name, *args = op
    plain = isinstance(rng, np.random.Generator)
    if name == "integers":
        (low, span, numpy_ints), size = args
        high = low + span
        if numpy_ints:
            low, high = np.int64(low), np.int64(high)
        return rng.integers(low, high, size=size)
    if name == "permutation":
        return rng.permutation(args[0])
    if name == "random":
        return rng.random(args[0])
    if name == "uniform":
        vector, size = args
        if vector:
            return rng.uniform(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 5.0, 3.0]), size=(size or 1, 3))
        return rng.uniform(-2.0, 3.0, size)
    if name == "uniform_heads":
        # pools of `rows + extra` rows, of which the first `rows` are kept
        vector, pools, rows, extra = args
        low, high, dim = (np.array([-1.0, 0.0, 2.0]), np.array([1.0, 5.0, 3.0]), 3) if vector else (-3.0, 64.0, 2)
        if plain:
            return rng.uniform(low, high, size=(pools, rows + extra, dim))[:, :rows]
        return rng.uniform_heads(low, high, pools, rows, rows + extra, dim, rng.spare(rng.position()))
    return rng.normal(0.0, 1.0, args[0])


def _span_at_threshold(below: bool) -> tuple[int, int]:
    """A seed and a span in (2**31, 2**32) for which the first 32-bit half of
    the seed's stream lands Lemire's leftover exactly on numpy's rejection
    threshold 2**32 - span (kept), or one below it (redrawn)."""
    for seed in range(100):
        u = int(np.random.PCG64(seed).random_raw()) & 0xFFFFFFFF
        if below and u % 2 == 0:
            # span * (u + 1) == -1 (mod 2**32), so the leftover is 2**32 - span - 1
            span = -pow(u + 1, -1, 2**32) % 2**32
            if span > 2**31:
                return seed, span
        if not below and u % 4 == 3:
            # 3 * 2**30 * (u + 1) == 0 (mod 2**32), so the leftover is 2**30
            return seed, 3 * 2**30
    raise AssertionError("no seed found")


_KEPT = _span_at_threshold(below=False)
_REDRAWN = _span_at_threshold(below=True)


@settings(max_examples=300, deadline=None)
@example(seed=_KEPT[0], ops=[("integers", (0, _KEPT[1], False), None)] * 3)
@example(seed=_REDRAWN[0], ops=[("integers", (0, _REDRAWN[1], False), None)] * 3)
# uniform_heads after an array and after a scalar integer draw, each leaving its spare half in numpy's buffer
@example(seed=3, ops=[("integers", (0, 100, False), 1), ("uniform_heads", True, 3, 2, 4), ("integers", (0, 100, False), None)])
@example(seed=3, ops=[("integers", (0, 100, False), None), ("uniform_heads", False, 2, 1, 3), ("integers", (0, 100, False), None)])
@given(st.integers(0, 2**32), _draw_ops)
def test_rng_stream_draws_equal_numpy(seed, ops):
    """Every RngStream method, interleaved at random, gives the values of a
    plain Generator on the same seed, and leaves it in the same state."""
    rng, plain = RngStream(seed), np.random.Generator(np.random.PCG64(seed))
    for op in ops:
        try:
            want = _apply(op, plain)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                _apply(op, rng)
            continue
        got = _apply(op, rng)
        assert np.array_equal(np.asarray(got), np.asarray(want)), op
    ours, theirs = rng._bits.state, plain.bit_generator.state
    assert ours["state"] == theirs["state"]
    assert ours["has_uint32"] == theirs["has_uint32"]
    if theirs["has_uint32"]:
        assert ours["uinteger"] == theirs["uinteger"]


def test_rng_stream_resume_draws_again_from_a_saved_position():
    rng = RngStream(4)
    rng.integers(0, 5)
    start = rng.position()
    ahead = rng.random(6)
    rng.random(3)
    behind = rng.random(2)
    rng.resume(start)
    assert np.array_equal(rng.random(6), ahead)
    rng.random(3)
    assert np.array_equal(rng.random(2), behind)

