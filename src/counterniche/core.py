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
    "next_double",
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
        object.__setattr__(self, "_diagonal", float(np.sqrt(np.sum(self.widths() ** 2))))

    @classmethod
    def cube(cls, dim: int, lower: float, upper: float) -> "SearchSpace":
        """Box with the same scalar bounds on every coordinate."""
        return cls(dim, np.full(dim, float(lower)), np.full(dim, float(upper)))

    def draw_bounds(self) -> tuple:
        """(low, high) of the box for uniform draws, binning and clamping:
        two floats on a cube, else the bound vectors. numpy's scalar-bound
        path gives the same values (and draws the same stream) as the vector
        one, faster."""
        return self._draw_bounds

    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def diagonal(self) -> float:
        """Euclidean length of the box diagonal; normalizer for spread measures."""
        return self._diagonal


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

    def best(self) -> Individual:
        """A copy of the fittest member, as a run reports it; the lowest
        index among equals, since argmin keeps the first."""
        i = np.argmin(self.f)
        return Individual(self.X[i].copy(), self.f[i])


def next_double(words):
    """numpy's `next_double` for PCG64: each raw word's top 53 bits as a
    double in [0, 1), for one word (a Python int) or an array of them."""
    return (words >> 11) * 2.0**-53


class RngStream:
    """Seeded random stream confined to one run.

    A thin wrapper over numpy's PCG64 generator. Two streams built from the
    same seed produce identical sequences of uniform, normal, and integer
    draws, which is what makes whole runs bit-reproducible.

    `random`, `uniform`, `normal`, `standard_normal`, `integers`,
    `permutation` and `choice` are the generator's own methods, and `raw`
    and `advance` its bit generator's. numpy draws a bounded integer below
    2**32 from a 32-bit half of a word: the low half of a new word, whose
    high half numpy's buffer (`has_uint32`/`uinteger`) keeps as the spare
    for the next such draw. The spare half lives only in that buffer. `raw`
    leaves it alone, and `advance` empties it, so a caller of `advance`
    saves it (`spare`, from the `position` it reads anyway) and puts it back
    (`keep_spare`), once around all its steps.
    """

    def __init__(self, seed: int):
        self._bits = bits = np.random.PCG64(int(seed))
        gen = np.random.Generator(bits)
        self.random, self.uniform = gen.random, gen.uniform
        self.normal, self.standard_normal = gen.normal, gen.standard_normal
        self.integers, self.permutation, self.choice = gen.integers, gen.permutation, gen.choice
        self.raw, self.advance = bits.random_raw, bits.advance

    @staticmethod
    def spare(position: dict) -> int | None:
        """The spare 32-bit half in numpy's buffer at `position`, None when
        none is spare."""
        return position["uinteger"] if position["has_uint32"] else None

    def keep_spare(self, half: int | None) -> None:
        """Make `half` the spare half in numpy's buffer (None: no half is spare)."""
        state = self._bits.state
        state["has_uint32"], state["uinteger"] = (0, 0) if half is None else (1, half)
        self._bits.state = state

    def uniform_heads(
        self, low, high, pools: int, rows: int, stride: int, dim: int, spare: int | None
    ) -> np.ndarray:
        """The first `rows` rows of each of `pools` consecutive stretches of
        `stride` rows of `uniform(low, high, size=(pools * stride, dim))`,
        shape (pools, rows, dim), leaving the stream where that draw would.

        `spare` is the stream's spare half as it stands, `spare(position())`:
        the caller reads it from the position it holds, so the bit
        generator's state is read once. Each pool's head is `rows * dim` raw
        words, and `advance` passes its tail; `keep_spare` puts `spare` back
        once after all pools. All words then go through numpy's
        `random_uniform` formula at once, `low + (high - low) *
        next_double(word)`, in place: the words are shifted, scaled by 2**-53
        into the one float array, then multiplied by `high - low` and offset
        by `low`. Those are the IEEE operations numpy makes per value,
        in its order, so the values are numpy's to the bit. 2**-53 is not
        folded into the width: that is exact only while `width * 2**-53`
        stays a normal float.
        """
        head, tail = rows * dim, (stride - rows) * dim
        words = np.empty((pools, head), dtype=np.uint64)
        for p in range(pools):
            words[p] = self.raw(head)
            self.advance(tail)
        if spare is not None:
            self.keep_spare(spare)
        words >>= 11
        values = words.reshape(pools, rows, dim) * 2.0**-53  # next_double
        values *= high - low
        values += low
        return values

    def position(self) -> dict:
        """The stream's place, for `resume`."""
        return self._bits.state

    def resume(self, position: dict) -> None:
        """Move the stream back (or on) to a `position` it had."""
        self._bits.state = position


# the bounds a config field may declare in its metadata: the test of each, and its symbol
_BOUNDS = {
    "ge": (operator.ge, ">="), "gt": (operator.gt, ">"), "le": (operator.le, "<="), "lt": (operator.lt, "<"),
}


def config_field(default=MISSING, **rules) -> Field:
    """A field of a config dataclass. Its metadata holds `rules`: the bounds
    `ge`, `gt`, `le` and `lt`, or the allowed `choices`, and for a tuple
    `distinct`, which `check_value` holds a value to, and whatever else the
    config's tables read."""
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
    holds one of them. Each element of a tuple is checked so, and a tuple
    field with `distinct` holds no element twice. None, the unset value of
    an optional field, passes."""
    if value is None:
        return
    if isinstance(value, tuple):
        twice = [v for i, v in enumerate(value) if v in value[:i]] if field.metadata.get("distinct") else ()
        if twice:
            raise ValueError(f"{field.name}: {twice[0]!r} is listed more than once")
        for element in value:
            check_value(field, element)
        return
    if isinstance(value, float) and not math.isfinite(value):  # before any bound reads it
        raise ValueError(f"{field.name} must be finite, got {value}")
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
