"""Value types shared across the library: bounded real search spaces,
populations, the best individual a run reports, and seeded random streams.

Everything downstream (benchmarks, niching, engines, harness) builds on the
contract established here: genomes are float vectors living inside an
axis-aligned box, fitness is minimized, and all randomness flows through one
`RngStream` per run so that equal seeds give bit-identical draw sequences.
"""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, Field, dataclass, field, fields

import numpy as np

__all__ = [
    "SearchSpace",
    "Individual",
    "Population",
    "RngStream",
    "clamp",
    "check_finite",
    "config_field",
    "check_value",
    "check_fields",
    "value_range",
]


def _frozen_vector(values, dim: int, what: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=float)
    if arr.shape != (dim,):
        raise ValueError(f"{what} must be a length-{dim} vector, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SearchSpace:
    """Axis-aligned box of feasible genomes with closed per-coordinate bounds."""

    dim: int
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        lower = _frozen_vector(self.lower, self.dim, "lower")
        upper = _frozen_vector(self.upper, self.dim, "upper")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("bounds must be finite")
        if not np.all(lower < upper):
            raise ValueError("each lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        cube = lower.min() == lower.max() and upper.min() == upper.max()
        bounds = (float(lower[0]), float(upper[0])) if cube else (lower, upper)
        object.__setattr__(self, "_draw_bounds", bounds)

    @classmethod
    def cube(cls, dim: int, lower: float, upper: float) -> "SearchSpace":
        """Box with the same scalar bounds on every coordinate."""
        return cls(dim, np.full(dim, float(lower)), np.full(dim, float(upper)))

    def draw_bounds(self) -> tuple:
        """(low, high) for a uniform draw of genomes inside the box: two
        floats on a cube, else the bound vectors. numpy's scalar-bound path
        gives the same values and stream position as the vector one, faster."""
        return self._draw_bounds

    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def diagonal(self) -> float:
        """Euclidean length of the box diagonal; normalizer for spread measures."""
        return float(np.sqrt(np.sum(self.widths() ** 2)))

    def contains(self, genome) -> bool:
        g = np.asarray(genome, dtype=float)
        if g.shape != (self.dim,):
            return False
        return bool(np.all(g >= self.lower) and np.all(g <= self.upper))


@dataclass(frozen=True, eq=False)
class Individual:
    """A genome and its fitness (smaller is better), as a run reports its best in `RunTrace.best`."""

    genome: np.ndarray
    fitness: float

    def __post_init__(self):
        genome = np.ascontiguousarray(self.genome, dtype=float)
        genome.setflags(write=False)
        object.__setattr__(self, "genome", genome)
        object.__setattr__(self, "fitness", float(self.fitness))


@dataclass
class Population:
    """N genomes as the rows of `X`, shape (N, dim), with their fitness `f`,
    shape (N,). Both are C-contiguous float arrays; engines build a new
    population each generation rather than writing into one."""

    X: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=float)
        self.f = np.ascontiguousarray(self.f, dtype=float)
        if self.X.ndim != 2 or len(self.X) == 0:
            raise ValueError(f"genomes must be a non-empty (N, dim) matrix, got shape {self.X.shape}")
        if self.f.shape != (len(self.X),):
            raise ValueError(f"need one fitness per genome: {len(self.X)} rows, fitness shape {self.f.shape}")

    @property
    def size(self) -> int:
        return len(self.f)

    def best_index(self) -> int:
        # argmin keeps the first occurrence, so ties resolve to the lowest index
        return int(np.argmin(self.f))

    def best(self) -> Individual:
        """A copy of the fittest member, as a run reports it."""
        i = self.best_index()
        return Individual(self.X[i].copy(), self.f[i])


_U32_MAX = 0xFFFFFFFF
_I64_MIN, _I64_END = -(2**63), 2**63
_NUMPY_HOLDS = -1  # `RngStream._spare` when numpy's buffer holds the spare half


class RngStream:
    """Seeded random stream confined to one run.

    A thin wrapper over numpy's PCG64 generator. Two streams built from the
    same seed produce identical sequences of uniform, normal, and integer
    draws, which is what makes whole runs bit-reproducible.

    A scalar `integers` draw with a span in [1, 2**32 - 1] skips numpy's
    per-call argument handling and runs numpy's own algorithm on raw PCG64
    words (a span of 1 draws nothing, as in numpy): 32-bit halves, low half
    first, the high half kept as the spare for the next such draw, and
    Lemire's bounded-integer method with numpy's rejection threshold. So
    every value and the stream position equal those of
    `np.random.Generator(np.random.PCG64(seed))`. The stream takes the spare
    half from numpy's `has_uint32`/`uinteger` buffer at the first such draw
    and hands it back before any numpy call that also draws 32-bit halves
    (`integers` with a size or another span, `permutation`, `index_subset`).
    `random`, `uniform` and `normal` take whole 64-bit words and never touch
    the spare half, so they need no hand-off.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._bits = np.random.PCG64(self.seed)
        self._gen = np.random.Generator(self._bits)
        self._raw = self._bits.random_raw
        self._spare = _NUMPY_HOLDS  # the spare half, None when no half is spare, or _NUMPY_HOLDS

    def _next_u32(self) -> int:
        """numpy's `next_uint32` for PCG64: the spare half, else the low half
        of a new word, keeping its high half as the spare."""
        spare = self._spare
        if spare is None:
            word = self._raw()
            self._spare = word >> 32
            return word & _U32_MAX
        if spare == _NUMPY_HOLDS:
            self._take_spare()
            return self._next_u32()
        self._spare = None
        return spare

    def _take_spare(self) -> None:
        """Move the spare half, if numpy's buffer holds one, to the stream."""
        state = self._bits.state
        self._spare = state["uinteger"] if state["has_uint32"] else None

    def _hand_back(self) -> None:
        """Put the spare half back into numpy's buffer before numpy draws
        32-bit halves itself."""
        spare = self._spare
        if spare == _NUMPY_HOLDS:
            return
        state = self._bits.state
        state["has_uint32"] = int(spare is not None)
        if spare is not None:
            state["uinteger"] = spare
        self._bits.state = state
        self._spare = _NUMPY_HOLDS

    def skip(self, words: int) -> None:
        """Move the stream past `words` 64-bit words without drawing them, to
        where `random(words)` would leave it: each uniform double takes one
        word, so PCG64's `advance` is exact. `advance` drops numpy's buffered
        spare half, so the stream takes that half first."""
        if self._spare == _NUMPY_HOLDS:
            self._take_spare()
        self._bits.advance(words)

    def position(self) -> dict:
        """The stream's place, for `replay`."""
        return self._bits.state

    @staticmethod
    def replay(position: dict) -> np.random.Generator:
        """A generator that starts at a `position` of some stream, to draw
        again words that stream has passed, without moving it."""
        bits = np.random.PCG64()
        bits.state = position
        return np.random.Generator(bits)

    def random(self, size=None):
        return self._gen.random(size)

    def uniform(self, low, high, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high, size=None):
        """Integers from [low, high). A scalar draw with integer bounds and a
        span in [1, 2**32 - 1] returns a Python int; every other call is
        numpy's, errors included."""
        if size is None:
            try:
                lo, hi = operator.index(low), operator.index(high)
            except TypeError:
                pass
            else:
                span = hi - lo
                if 1 <= span <= _U32_MAX and _I64_MIN <= lo and hi <= _I64_END:
                    if span == 1:  # numpy draws nothing for a single value either
                        return lo
                    # numpy's buffered_bounded_lemire_uint32 (Lemire, arXiv:1805.10941)
                    m = self._next_u32() * span
                    if m & _U32_MAX < span:
                        threshold = (_U32_MAX + 1 - span) % span
                        while m & _U32_MAX < threshold:
                            m = self._next_u32() * span
                    return lo + (m >> 32)
        self._hand_back()
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        """A random ordering of range(n)."""
        self._hand_back()
        return self._gen.permutation(n)

    def index_subset(self, n: int, k: int) -> tuple[int, ...]:
        """k distinct indices out of range(n), returned sorted."""
        if not 0 < k <= n:
            raise ValueError(f"need 0 < k <= n, got k={k} n={n}")
        self._hand_back()
        picked = self._gen.choice(n, size=k, replace=False)
        return tuple(sorted(int(i) for i in picked))


def clamp(genomes, space: SearchSpace) -> np.ndarray:
    """Project a genome, or each row of a matrix of genomes, onto the box.
    Length mismatches are errors, not repairs."""
    g = np.asarray(genomes, dtype=float)
    if g.ndim not in (1, 2) or g.shape[-1] != space.dim:
        raise ValueError(f"genome has shape {g.shape}, expected ({space.dim},) or (n, {space.dim})")
    return np.minimum(np.maximum(g, space.lower), space.upper)


def check_finite(name: str, value) -> None:
    """Refuse NaN and +-inf for a float knob, before any range check reads it."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


# the bounds a config field may declare in its metadata: the test of each, and its symbol
_BOUNDS = {
    "ge": (operator.ge, ">="), "gt": (operator.gt, ">"), "le": (operator.le, "<="), "lt": (operator.lt, "<"),
}


def config_field(default=MISSING, **rules) -> Field:
    """A field of a config dataclass. Its metadata holds `rules`: the bounds
    `ge`, `gt`, `le` and `lt`, or the allowed `choices`, which `check_value`
    holds a value to, and whatever else the config's tables read."""
    return field(default=default, metadata=rules)


def value_range(field: Field) -> str:
    """The values a config field allows, as text (`>= 0 and <= 1`, `printed
    or annealed`); "" when the field declares no rule."""
    rules = field.metadata
    if "choices" in rules:
        return " or ".join(rules["choices"])
    return " and ".join(f"{symbol} {rules[op]}" for op, (_, symbol) in _BOUNDS.items() if op in rules)


def check_value(field: Field, value) -> None:
    """Check one value against the rules its config field declares: a float
    is finite, a number keeps the field's bounds, and a field with `choices`
    holds one of them. Each element of a tuple is checked so. None, the
    unset value of an optional field, passes."""
    if value is None:
        return
    if isinstance(value, tuple):
        for element in value:
            check_value(field, element)
        return
    check_finite(field.name, value)
    rules = field.metadata
    if "choices" in rules:
        ok = value in rules["choices"]
    else:
        ok = all(test(value, rules[op]) for op, (test, _) in _BOUNDS.items() if op in rules)
    if not ok:
        raise ValueError(f"{field.name} must be {value_range(field)}, got {value!r}")


def check_fields(config) -> None:
    """`check_value` on every init field of a config dataclass, in field order."""
    for f in fields(config):
        if f.init:
            check_value(f, getattr(config, f.name))
