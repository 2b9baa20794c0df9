"""Run-set statistics: rank-pick summaries and the paired two-tailed t-test.

Errors are final best objective values minus the known optimum, so smaller is
better and 0 means the optimum was hit. Summaries report five order statistics
(best, the ~23rd and ~73rd percentile picks, median, worst) plus mean and
sample standard deviation, matching the usual 30-run reporting layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "RunSummary",
    "TTestResult",
    "rank_picks",
    "summarize",
    "paired_ttest",
    "two_tailed_p",
    "error_value",
    "render_rows_text",
]


def rank_picks(n: int) -> tuple[int, int, int, int, int]:
    """1-based ranks reported for n runs: best, ~23%, median, ~73%, worst.

    For n=30 this is (1, 7, 15, 22, 30).
    """
    if n < 1:
        raise ValueError("need at least one run")
    return (
        1,
        math.ceil(0.233 * n),
        math.ceil(0.5 * n),
        math.ceil(0.733 * n),
        n,
    )


@dataclass
class RunSummary:
    n: int
    sorted_errors: tuple[float, ...]
    best: float
    p23: float
    median: float
    p73: float
    worst: float
    mean: float
    std: float


def summarize(errors: Sequence[float]) -> RunSummary:
    """Order statistics plus mean and sample std over a set of run errors."""
    vals = [float(e) for e in errors]
    if not vals:
        raise ValueError("need at least one error value")
    ordered = tuple(sorted(vals))
    n = len(ordered)
    picks = [ordered[k - 1] for k in rank_picks(n)]
    mean = float(np.mean(ordered))
    std = float(np.std(ordered, ddof=1)) if n > 1 else 0.0
    return RunSummary(n, ordered, *picks, mean, std)


@dataclass
class TTestResult:
    t_statistic: float
    degrees_of_freedom: int
    p_value: float


def two_tailed_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for T with df degrees of freedom, via the regularized
    incomplete beta function. Exactly 1 at t=0.

    scipy is imported here, not at module level: it is about half of the
    package's import time, and only the t-test needs it."""
    from scipy.special import betainc

    if df < 1:
        raise ValueError("degrees of freedom must be at least 1")
    t = float(t)
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return float(betainc(df / 2.0, 0.5, x))


def paired_ttest(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Two-tailed paired t-test on per-run differences a[i] - b[i].

    Degenerate spreads resolve without dividing by zero: identical samples
    give t=0, p=1; a constant nonzero difference gives p=0.
    """
    xs = [float(v) for v in a]
    ys = [float(v) for v in b]
    if len(xs) != len(ys):
        raise ValueError(f"paired samples must match in length: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two pairs")
    d = np.asarray(xs) - np.asarray(ys)
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, df, 1.0)
        return TTestResult(math.copysign(math.inf, mean), df, 0.0)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t, df, two_tailed_p(t, df))


def error_value(f_best: float, f_star: float) -> float:
    """Distance of a run's best objective value from the known optimum."""
    return float(f_best) - float(f_star)


def render_rows_text(rows: list[dict]) -> str:
    """Rows with the same keys as an aligned text table: those keys as the
    header, floats with 4 significant digits, None as n/a."""
    table = [list(rows[0])]
    table += [
        ["n/a" if v is None else f"{v:.4g}" if isinstance(v, float) else str(v) for v in row.values()]
        for row in rows
    ]
    widths = [max(len(r[c]) for r in table) for c in range(len(table[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table]
    return "\n".join(lines)
