import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterniche import FUNCTION_NAMES, make, rotation_matrix
from counterniche.benchmarks import evaluate_children, evaluate_rows, registry


def test_function_names_complete():
    assert FUNCTION_NAMES == (
        "ackley",
        "griewank",
        "rastrigin",
        "rosenbrock",
        "ellipsoid",
        "schwefel12",
        "rot_rastrigin",
    )


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_optimum_evaluates_to_zero(name):
    fn = make(name, 4)
    assert fn.evaluate(fn.optimum_point) == pytest.approx(0.0, abs=1e-9)
    assert fn.optimum_value == 0.0


def test_default_bounds():
    expected = {
        "ackley": 30.0,
        "griewank": 600.0,
        "rastrigin": 5.12,
        "rosenbrock": 100.0,
        "ellipsoid": 5.12,
        "schwefel12": 64.0,
        "rot_rastrigin": 5.12,
    }
    for name, half in expected.items():
        fn = make(name, 2)
        assert fn.space.lower[0] == -half
        assert fn.space.upper[0] == half


def test_optimum_points():
    assert np.array_equal(make("rosenbrock", 3).optimum_point, np.ones(3))
    assert np.array_equal(make("griewank", 3).optimum_point, np.full(3, 100.0))
    assert np.array_equal(make("ackley", 3).optimum_point, np.zeros(3))


def test_ackley_hand_values():
    fn = make("ackley", 2)
    # f(1,1) = 20 + e - 20*exp(-0.2) - exp(1)  since cos(2*pi) = 1
    expected = 20.0 + np.e - 20.0 * np.exp(-0.2) - np.exp(1.0)
    assert fn.evaluate([1.0, 1.0]) == pytest.approx(expected, rel=1e-12)


def test_rastrigin_hand_values():
    fn = make("rastrigin", 2)
    assert fn.evaluate([0.5, 0.0]) == pytest.approx(0.25 + 20.0, rel=1e-12)
    # integer points: cos term is 1, so f = sum(x^2)
    assert fn.evaluate([1.0, 2.0]) == pytest.approx(5.0, abs=1e-9)


def test_griewank_shift():
    fn = make("griewank", 3)
    # unshifted origin is far from the optimum
    assert fn.evaluate([0.0, 0.0, 0.0]) > 1.0
    assert fn.evaluate([100.0, 100.0, 100.0]) == pytest.approx(0.0, abs=1e-12)


def test_rosenbrock_hand_values():
    fn = make("rosenbrock", 2)
    assert fn.evaluate([0.0, 0.0]) == pytest.approx(1.0, rel=1e-12)
    assert fn.evaluate([1.2, 1.44]) == pytest.approx(0.04, rel=1e-9)


def test_ellipsoid_weights_grow_with_index():
    fn = make("ellipsoid", 3)
    assert fn.evaluate([1.0, 0.0, 0.0]) == pytest.approx(1.0)
    assert fn.evaluate([0.0, 1.0, 0.0]) == pytest.approx(2.0)
    assert fn.evaluate([0.0, 0.0, 1.0]) == pytest.approx(3.0)


def test_schwefel12_cumulative_sums():
    fn = make("schwefel12", 3)
    # partial sums of (1, 2, 3) are (1, 3, 6) -> 1 + 9 + 36
    assert fn.evaluate([1.0, 2.0, 3.0]) == pytest.approx(46.0, rel=1e-12)


def test_rotation_matrix_blocks():
    a = rotation_matrix(4)
    block = np.array([[0.8, 0.6], [-0.6, 0.8]])
    assert np.array_equal(a[0:2, 0:2], block)
    assert np.array_equal(a[2:4, 2:4], block)
    assert np.all(a[0:2, 2:4] == 0.0)


@pytest.mark.parametrize("dim", [2, 4, 10, 50, 100])
def test_rotation_matrix_orthogonal(dim):
    a = rotation_matrix(dim)
    assert np.max(np.abs(a.T @ a - np.eye(dim))) < 1e-12


def test_rotation_matrix_rejects_odd_dims():
    for dim in (1, 3, 7):
        with pytest.raises(ValueError):
            rotation_matrix(dim)
    with pytest.raises(ValueError):
        make("rot_rastrigin", 3)


def test_rot_rastrigin_matches_rotated_plain():
    fn = make("rot_rastrigin", 4)
    plain = make("rastrigin", 4)
    x = np.array([0.3, -1.2, 2.0, 0.9])
    assert fn.evaluate(x) == pytest.approx(plain.evaluate(rotation_matrix(4) @ x), rel=1e-12)


def test_evaluate_rejects_wrong_shape():
    fn = make("ackley", 3)
    with pytest.raises(ValueError):
        fn.evaluate([1.0, 2.0])


def _reference(name, x):
    """The one-genome formulas, written out apart from the package."""
    n = x.size
    i = np.arange(1, n + 1, dtype=float)
    if name == "ackley":
        quad = np.sqrt(np.sum(x * x) / n)
        trig = np.sum(np.cos(2.0 * np.pi * x)) / n
        return float(20.0 + np.e - 20.0 * math.exp(-0.2 * quad) - math.exp(trig))
    if name == "griewank":
        z = x - 100.0
        return float(np.sum(z * z) / 4000.0 - np.prod(np.cos(z / np.sqrt(i))) + 1.0)
    if name == "rosenbrock":
        a, b = x[:-1], x[1:]
        return float(np.sum(100.0 * (b - a * a) ** 2 + (a - 1.0) ** 2))
    if name == "ellipsoid":
        return float(np.sum(i * x * x))
    if name == "schwefel12":
        partial = np.cumsum(x)
        return float(np.sum(partial * partial))
    if name == "rot_rastrigin":
        x = _rotated(x)
    return float(np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x) + 10.0))


def _rotated(x):
    """`rotation_matrix(n) @ x` one 2x2 block at a time."""
    y = np.empty_like(x)
    for k in range(0, x.size, 2):
        y[k] = 0.8 * x[k] + 0.6 * x[k + 1]
        y[k + 1] = -0.6 * x[k] + 0.8 * x[k + 1]
    return y


@pytest.mark.parametrize("dim", range(2, 101, 2))
def test_block_rotation_is_the_rotation_matrix_within_a_few_ulp(dim):
    # rot_rastrigin scores `_rotated` rows bit for bit (the test below); each
    # rotated coordinate is within 4 ulp of the row's largest coordinate of
    # the matrix product, whose rounding depends on the BLAS kernel
    rotation = rotation_matrix(dim)
    for row in np.random.default_rng(dim).uniform(-5.12, 5.12, size=(200, dim)):
        assert np.all(np.abs(_rotated(row) - rotation @ row) <= 4 * np.spacing(np.abs(row).max()))


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_evaluate_batch_is_bit_identical_to_evaluate(name):
    rng = np.random.default_rng(FUNCTION_NAMES.index(name))
    dims = range(2, 101, 2) if name == "rot_rastrigin" else range(2, 101)
    for dim in dims:
        fn = make(name, dim)
        for rows in (0, 1, 7, 200):
            x = rng.uniform(fn.space.lower, fn.space.upper, size=(rows, dim))
            got = fn.evaluate_batch(x)
            assert got.dtype == np.float64 and got.shape == (rows,)
            assert np.array_equal(got, [fn.evaluate(row) for row in x]), (dim, rows)
            assert np.array_equal(got, [_reference(name, row) for row in x]), (dim, rows)


def test_evaluate_batch_rejects_wrong_shape():
    fn = make("rastrigin", 3)
    for bad in (np.zeros(3), np.zeros((4, 2)), np.zeros((4, 4)), np.zeros((2, 4, 3))):
        with pytest.raises(ValueError):
            fn.evaluate_batch(bad)


def test_evaluate_rows_falls_back_to_evaluate():
    fn = make("griewank", 5)

    class EvaluateOnly:
        def evaluate(self, x):
            return fn.evaluate(x)

    x = np.random.default_rng(0).uniform(fn.space.lower, fn.space.upper, size=(9, 5))
    assert np.array_equal(evaluate_rows(EvaluateOnly(), x), fn.evaluate_batch(x))
    assert evaluate_rows(EvaluateOnly(), x[:0]).shape == (0,)


def test_evaluate_rows_rejects_nan_and_counts_the_rows():
    fn = make("rastrigin", 4)
    x = np.random.default_rng(1).uniform(fn.space.lower, fn.space.upper, size=(6, 4))
    x[[1, 4], 2] = np.nan
    with pytest.raises(ValueError, match="NaN for 2 of 6 rows"):
        evaluate_rows(fn, x)

    class EvaluateOnly:
        def evaluate(self, row):
            return fn.evaluate(row)

    with pytest.raises(ValueError, match="NaN for 2 of 6 rows"):
        evaluate_rows(EvaluateOnly(), x)


def test_evaluate_rows_allows_inf():
    class Wall:
        def evaluate_batch(self, x):
            return np.where(x[:, 0] > 0.0, np.inf, x[:, 0])

    got = evaluate_rows(Wall(), np.array([[-1.0], [1.0], [-2.0]]))
    assert got.tolist() == [-1.0, np.inf, -2.0]


def test_evaluate_children_evaluates_fresh_rows_only():
    fn = make("ellipsoid", 3)
    children = np.arange(12.0).reshape(4, 3) / 10.0
    source = np.array([2, -1, 0, -1])  # child 0 copies row 2, child 2 row 0; 1 and 3 are fresh
    seen = []

    class Spy:
        def evaluate_batch(self, x):
            seen.append(x.copy())
            return fn.evaluate_batch(x)

    f = np.array([7.0, 8.0, 9.0, 10.0])  # not f(children): which value is kept shows
    got = evaluate_children(Spy(), children, source, f)
    assert got.tolist() == [9.0, *fn.evaluate_batch(children[[1]]).tolist(), 7.0,
                            *fn.evaluate_batch(children[[3]]).tolist()]
    assert len(seen) == 1 and np.array_equal(seen[0], children[[1, 3]])
    assert f.tolist() == [7.0, 8.0, 9.0, 10.0]  # left as it was
    # nothing fresh: no call at all
    evaluate_children(Spy(), children, np.array([3, 2, 1, 0]), f)
    assert len(seen) == 1


def test_make_rejects_unknown():
    with pytest.raises(ValueError):
        make("sphere", 2)
    with pytest.raises(ValueError):
        make("ackley", 0)


def test_registry_covers_all_functions():
    entries = registry()
    assert [e["name"] for e in entries] == list(FUNCTION_NAMES)
    for e in entries:
        assert e["optimum_value"] == 0.0
        assert e["lower"] < e["upper"]


@settings(max_examples=100)
@given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=6))
def test_functions_nonnegative_near_origin_family(xs):
    # rastrigin and ellipsoid are sums of nonnegative terms
    x = np.asarray(xs)
    for name in ("rastrigin", "ellipsoid", "schwefel12"):
        fn = make(name, x.size)
        assert fn.evaluate(x) >= -1e-12


@settings(max_examples=50)
@given(st.integers(1, 25), st.data())
def test_evaluation_is_pure(dim, data):
    fn = make("ackley", dim)
    x = np.asarray(data.draw(st.lists(st.floats(-30.0, 30.0), min_size=dim, max_size=dim)))
    assert fn.evaluate(x) == fn.evaluate(x.copy())
