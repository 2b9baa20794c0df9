import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterniche import RunSummary, TTestResult, error_value, paired_ttest, summarize
from counterniche.stats import rank_picks, render_rows_text, two_tailed_p


def student_tail_p(t: float, df: int, nodes: int = 400) -> float:
    """Numeric-integration oracle for the two-tailed p-value.

    Integrates the t density from |t| to infinity with the substitution
    x = tan(theta), using Gauss-Legendre nodes (never touching theta = pi/2),
    and doubles the tail mass. Shares no code with the implementation.
    """
    t = abs(float(t))
    if t == 0.0:
        return 1.0
    c = math.gamma((df + 1) / 2.0) / (math.sqrt(df * math.pi) * math.gamma(df / 2.0))

    def integrand(theta):
        x = math.tan(theta)
        sec2 = 1.0 + x * x
        return c * (1.0 + x * x / df) ** (-(df + 1) / 2.0) * sec2

    a, b = math.atan(t), math.pi / 2.0
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    mapped = 0.5 * (b - a) * xs + 0.5 * (b + a)
    tail = 0.5 * (b - a) * sum(w * integrand(theta) for w, theta in zip(ws, mapped))
    return 2.0 * tail


def test_rank_picks_reference_case():
    assert rank_picks(30) == (1, 7, 15, 22, 30)
    assert rank_picks(1) == (1, 1, 1, 1, 1)
    assert rank_picks(10) == (1, 3, 5, 8, 10)
    with pytest.raises(ValueError):
        rank_picks(0)


@settings(max_examples=200)
@given(st.integers(1, 10_000))
def test_rank_picks_ordered_and_in_range(n):
    picks = rank_picks(n)
    assert picks[0] == 1
    assert picks[-1] == n
    assert list(picks) == sorted(picks)
    assert all(1 <= k <= n for k in picks)


def test_summarize_order_statistics():
    errors = [5.0, 1.0, 4.0, 2.0, 3.0]
    s = summarize(errors)
    assert isinstance(s, RunSummary)
    assert s.n == 5
    assert s.sorted_errors == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert s.best == 1.0
    assert s.worst == 5.0
    assert s.median == 3.0
    assert s.mean == pytest.approx(3.0)
    assert s.std == pytest.approx(np.std(errors, ddof=1))


def test_summarize_single_run():
    s = summarize([7.0])
    assert s.best == s.worst == s.median == 7.0
    assert s.std == 0.0
    with pytest.raises(ValueError):
        summarize([])


def test_two_tailed_p_reference_values():
    # classical table values
    assert two_tailed_p(0.0, 10) == pytest.approx(1.0)
    assert two_tailed_p(12.706, 1) == pytest.approx(0.05, abs=5e-5)
    assert two_tailed_p(2.228, 10) == pytest.approx(0.05, abs=5e-5)
    assert two_tailed_p(1.984, 99) == pytest.approx(0.05, abs=5e-4)


@pytest.mark.parametrize("df", [1, 10, 99])
@pytest.mark.parametrize("t", [0.0, 1.0, 2.0, 5.0])
def test_two_tailed_p_matches_integration_oracle(df, t):
    assert two_tailed_p(t, df) == pytest.approx(student_tail_p(t, df), abs=1e-6)


def test_two_tailed_p_edge_cases():
    assert two_tailed_p(math.inf, 5) == 0.0
    assert two_tailed_p(-math.inf, 5) == 0.0
    with pytest.raises(ValueError):
        two_tailed_p(1.0, 0)


@settings(max_examples=200)
@given(st.floats(-50.0, 50.0), st.integers(1, 200))
def test_two_tailed_p_symmetry_and_range(t, df):
    p = two_tailed_p(t, df)
    assert 0.0 <= p <= 1.0
    assert p == two_tailed_p(-t, df)


@settings(max_examples=100)
@given(st.floats(0.0, 20.0), st.floats(0.05, 5.0), st.integers(1, 100))
def test_two_tailed_p_decreases_with_t(t, dt, df):
    assert two_tailed_p(t + dt, df) <= two_tailed_p(t, df) + 1e-15


def test_paired_ttest_known_example():
    a = [10.0, 12.0, 9.0, 11.0, 13.0]
    b = [8.0, 11.0, 9.0, 10.0, 10.0]
    res = paired_ttest(a, b)
    d = np.array(a) - np.array(b)
    t_ref = d.mean() / (d.std(ddof=1) / math.sqrt(len(d)))
    assert res.t_statistic == pytest.approx(t_ref)
    assert res.degrees_of_freedom == 4
    assert res.p_value == pytest.approx(student_tail_p(t_ref, 4), abs=1e-9)


def test_paired_ttest_degenerate_cases():
    same = [1.0, 2.0, 3.0]
    res = paired_ttest(same, same)
    assert isinstance(res, TTestResult)
    assert res.t_statistic == 0.0
    assert res.p_value == 1.0
    shifted = paired_ttest([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
    assert math.isinf(shifted.t_statistic) and shifted.t_statistic > 0
    assert shifted.p_value == 0.0


def test_paired_ttest_validation():
    with pytest.raises(ValueError):
        paired_ttest([1.0], [1.0])
    with pytest.raises(ValueError):
        paired_ttest([1.0, 2.0], [1.0])


def test_paired_ttest_antisymmetric():
    a = [3.0, 1.0, 4.0, 1.5]
    b = [2.0, 2.0, 2.0, 2.0]
    ab = paired_ttest(a, b)
    ba = paired_ttest(b, a)
    assert ab.t_statistic == pytest.approx(-ba.t_statistic)
    assert ab.p_value == pytest.approx(ba.p_value)


def test_error_value():
    assert error_value(1.5, 1.0) == 0.5
    assert error_value(0.0, 0.0) == 0.0


def test_render_ttest_text_alignment():
    rows = [
        {"function": "rastrigin", "dim": 10, "algo_a": "cnea", "algo_b": "sea",
         "t": -16.7, "df": 9, "p": 4.4e-8},
    ]
    text = render_rows_text(rows)
    lines = text.splitlines()
    assert lines[0].startswith("function")
    assert "cnea" in lines[1] and "sea" in lines[1]
    # the header is the rows' keys, so a new column shows without other edits
    rows.append({**rows[0], "algo_b": "dgea", "t": 0.25, "p": 0.8})
    rows = [{**row, "note": "x"} for row in rows]
    lines = render_rows_text(rows).splitlines()
    assert lines[0].split() == ["function", "dim", "algo_a", "algo_b", "t", "df", "p", "note"]
    assert lines[2].split() == ["rastrigin", "10", "cnea", "dgea", "0.25", "9", "0.8", "x"]
    assert lines[1].index("-16.7") == lines[0].index("t ") == lines[2].index("0.25")


def test_render_rows_text_prints_none_as_na():
    lines = render_rows_text([{"algo": "sea", "average_diversity": None}]).splitlines()
    assert lines[1].split() == ["sea", "n/a"]
