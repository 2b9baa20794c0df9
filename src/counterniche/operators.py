"""Selection and variation operators shared by every engine.

Variation runs in two halves, both kept here. The draw methods of a
`Variation` only draw from the random stream and store what they drew; the
arithmetic then runs once over all rows: `binary_tournament`,
`arithmetic_crossover` and `gaussian_mutate` take whole matrices and make
the same IEEE operations per element as one child at a time.
`Variation.children` runs each over all n rows at once, with no per-kind
row gathers: crossover takes a mask of the crossed rows, and mutation a mask
of the mutated rows, so each piece of arithmetic has one copy. Only the
check for children that copy a parent gathers rows, when few can be copies.

The draws come in two layouts. `child_by_child` takes each child's draws in
turn, in the order the child consumes the stream, and draws crossover and
mutation only where a child's coin lands; it reads them from one block of
raw words per child, as long as the draws of a child that crosses and
mutates. A child that does less hands the words its block drew past its
last draw to the next child's block; only one that mutates without
crossing rewinds the stream, so that its normals start inside its own
block. It is the one place that splits words into 32-bit halves, and
`sea` alone uses it.
The whole-array methods (`all_tournaments`, `all_crossovers`,
`all_mutations`, `all_gene_mutations`) draw one array per draw kind for all
n children, every row whatever its coin says, so the words a generation
takes do not depend on the population or on the coins; `cnea`'s regular
operators, `socea`, `cea` and `dgea` use them.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import RngStream, SearchSpace, next_double

__all__ = [
    "Variation",
    "binary_tournament",
    "arithmetic_crossover",
    "gaussian_mutate",
    "pow_sample",
    "sea_variance",
]


def binary_tournament(f: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Winners of the binary tournaments between members i[k] and j[k]:
    the fitter of each pair, the first draw on ties."""
    return np.where(f[j] < f[i], j, i)


def arithmetic_crossover(a, b, weight_draws, position, blend, crossed) -> np.ndarray:
    """Per-variable weighted blends of the parent rows a[k] and b[k], for
    the rows where `crossed` is True; the other rows copy a.

    Gene g of child k has weight 1 when weight_draws[k, g] < 0.5 and 0
    otherwise, except gene position[k], whose weight is blend[k]. The child
    is w*a + (1-w)*b componentwise, so most genes copy one parent and a
    single gene blends.
    """
    ga = np.asarray(a, dtype=float)
    gb = np.asarray(b, dtype=float)
    if ga.shape != gb.shape:
        raise ValueError("parents must share genome length")
    w = (np.asarray(weight_draws) < 0.5).astype(float)
    w[np.arange(len(w)), position] = blend
    # w*a + (1-w)*b in place, op for op: each (n, dim) temporary freed per
    # generation lets glibc trim the heap and fault its pages back in
    child = w * ga
    np.subtract(1.0, w, out=w)
    w *= gb
    child += w
    np.copyto(child, ga, where=~np.asarray(crossed)[:, None])
    return child


def gaussian_mutate(
    genomes, gene_draws, normals, variance, p_gene: float, space: SearchSpace, mutated
) -> tuple[np.ndarray, np.ndarray]:
    """Add zero-mean Gaussian noise of the given variance to each gene whose
    draw falls below p_gene, in the rows where `mutated` is True, then clamp
    the rows where a gene fired. With `gene_draws` None no mask was drawn,
    and every gene of a mutated row fires, none when p_gene is 0.

    `variance` is a scalar, a per-gene vector, or an (m, 1) column of
    per-row values. Writes the children into `genomes` when it is a float
    array (any other input is converted to a new one first), and returns
    them with the mask of rows where any gene fired; the other rows are left
    as they were.
    """
    out = np.asarray(genomes, dtype=float)
    mutated = np.asarray(mutated)
    if gene_draws is None:
        fired = mutated & (p_gene > 0)
        fire = fired[:, None]
    else:
        fire = (np.asarray(gene_draws) < p_gene) & mutated[:, None]
        fired = fire.any(axis=1)
    noise = np.asarray(normals) * np.sqrt(variance)
    np.add(out, noise, out=out, where=fire)
    lower, upper = space.draw_bounds()
    np.clip(out, lower, upper, out=out, where=fired[:, None])
    return out, fired


def _copied(child, a, b, first, second) -> np.ndarray:
    """The row each child row copies bit for bit, compared as int64 words:
    first[k] if it is parent row a[k], else second[k] if it is b[k], else -1."""
    words = child.view(np.int64)
    new = (words != a.view(np.int64)).any(axis=1)  # not a copy of the first parent
    other = (words != b.view(np.int64)).any(axis=1)  # not a copy of the second
    return np.where(new, np.where(other, -1, second), first)


class Variation:
    """The draws of one generation's variation, for n children of genome
    length dim, and the arithmetic that turns them into children.

    The draw methods store every child's draws, child by child or one
    array per draw kind, and a mutation's draw method stores its
    parameters too: the variance and the per-gene rate `p_gene`. A
    whole-genome mutation draws no mask and stores none (`gene_draws` is
    None): every gene of a mutated child fires. `children` applies them to
    all rows at once. A child that draws no crossover copies its first
    parent, and one that draws no mutation is not mutated.
    """

    def __init__(self, n: int, dim: int, rng: RngStream):
        self.n, self.dim, self.rng = n, dim, rng
        # what `children` reads when no draw method sets it: no child crosses or mutates, and no mask is
        # drawn, so every gene of a mutated child fires
        self.crossed, self.mutated = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        self.gene_draws, self.p_gene = None, 1.0

    def child_by_child(self, p_r: float, p_m: float, variance: float) -> None:
        """Each child's draws in turn, in its order: the members i and j of
        two binary tournaments (`integers(0, n)` each); a crossover coin, and
        below p_r one weight uniform per gene, the blended position
        (`integers(0, dim)`) and its weight; a mutation coin, and below p_m
        one mask uniform per gene, passed over (no mask is stored: every
        gene of a mutated child fires), and `normal(0.0, 1.0, dim)`. Every
        mutated child has the variance `variance`. The normals are drawn with
        `standard_normal`, and one `normals += 0.0` per generation gives them
        numpy's `0.0 + 1.0 * z`, which turns -0.0 into +0.0.

        The values and the stream's end are those of numpy's calls, but each
        child takes one block of raw words, read at fixed offsets: the words
        of a child that crosses and mutates, so the block ends at its last
        mask word and such a child goes straight on to its normals. Its four
        tournament members and its position are 32-bit halves of words: the
        spare half first, then the low and high halves of a new word. So the
        tournaments take two words, and the position takes one when no half
        is spare. The stream runs forward: the words a block drew past its
        child's last draw (the mask words of a child that crosses only, all
        past the coins of one that does neither) start the next child's
        block. Only a child that mutates without crossing rewinds, with one
        `advance` to the end of its mask words, where its normals start, and
        a generation that ends with words left over rewinds past them once;
        a backward `advance` is the dear one, a jump of 2**128 - k.

        Each `random_raw` result is kept as drawn, and a child's coins are
        read from its carried words or from the new ones; only carried words
        that span two draws are joined, so that they can be carried again. Since a block's carried words end the block before it, each
        block is one stretch of all the words joined once after the last
        child, and its first word is recorded as it is drawn. A coin lands
        where `word < ceil(p * 2**53) * 2**11`, a comparison of Python ints:
        that is numpy's `next_double(word) < p`, since `next_double` is
        `(word >> 11) * 2**-53`, scaling by 2**53 is exact, and an integer
        is below p * 2**53 exactly when it is below its ceiling. After the
        last child, all halves go through Lemire's method with numpy's
        threshold (Lemire, arXiv:1805.10941) at once; in a generation where
        that method redraws a half, numpy's own calls draw every child again
        from the start.
        """
        rng, n, dim, self.variance = self.rng, self.n, self.dim, variance
        raw, advance, standard_normal = rng.raw, rng.advance, rng.standard_normal
        start = rng.position()
        spare = rng.spare(start)
        bout_words = 2 if n > 1 else 0  # a span of 1 draws nothing
        draws_position = dim > 1
        # the bouts, two coins, the weights, the blend and the mask words; a position word when one is due
        full = bout_words + 2 * dim + 3
        r_cut, m_cut = math.ceil(p_r * 2.0**53) << 11, math.ceil(p_m * 2.0**53) << 11  # see the docstring
        normals = np.zeros((n, dim))
        chunks, firsts = [], []
        crossed, position_word, mutated = bytearray(n), bytearray(n), bytearray(n)
        spare_held = spare is not None
        stored = carry = 0  # the words in `chunks`; the last block's words past its child's last draw
        held = None  # those `carry` words, this child's first: word i of its block is held[i] below carry
        for k in range(n):
            word = draws_position and not spare_held
            width = full + word
            new = raw(width - carry)  # the rest of the block: word i is new[i - carry]
            chunks.append(new)
            firsts.append(stored - carry)  # the block's first word in `chunks` joined
            stored += width - carry
            coin = held.item(bout_words) if bout_words < carry else new.item(bout_words - carry)
            if coin < r_cut:
                crossed[k], position_word[k] = 1, word
                spare_held ^= draws_position
                at = width - dim - 1  # the coin before the mask words
                coin = held.item(at) if at < carry else new.item(at - carry)
                if coin < m_cut:
                    mutated[k] = 1
                    standard_normal(out=normals[k])
                    carry = 0
                else:  # the mask words, joined only where they span the two
                    held = new[-dim:] if len(new) >= dim else np.concatenate((held[len(new) - dim:], new))
                    carry = dim
            else:
                at = bout_words + 1
                coin = held.item(at) if at < carry else new.item(at - carry)
                if coin < m_cut:
                    mutated[k] = 1
                    advance(at + 1 + dim - width)  # back to the end of the mask words
                    standard_normal(out=normals[k])
                    carry = 0
                else:  # all past the coins
                    at += 1
                    held = new[at - carry:] if at >= carry else np.concatenate((held[at:], new))
                    carry = width - at
        if carry:
            advance(-carry)
        normals += 0.0  # numpy's normal(0.0, 1.0) is 0.0 + 1.0 * z, which turns -0.0 into +0.0
        # a block's carried words end the block before it in `words`, so each block is one stretch of it;
        # the zeros after the last are the weights and blend of the children that do not cross
        chunks.append(np.zeros(dim + 1, dtype=np.uint64))
        # joined as bytes: np.concatenate takes about 0.1 us an array, three times as long
        words, first = np.frombuffer(b"".join(chunks), dtype=np.uint64), np.array(firsts)
        crossed, position_word = np.frombuffer(crossed, dtype=bool), np.frombuffer(position_word, dtype=bool)
        # the halves in stream order: the spare, then each child's tournament words and any position word,
        # each word's low half first
        take = np.empty((n, 3), dtype=bool)
        take[:, :2], take[:, 2] = bout_words > 0, position_word
        split = words[(first[:, None] + [0, 1, bout_words + 1 + dim])[take]]
        halves = split.astype("<u8", copy=False).view("<u4")
        if spare is not None:
            halves = np.concatenate((np.array([spare], dtype=np.uint32), halves))
        drawn = np.empty((n, 5), dtype=bool)  # the four members and the position, where drawn
        drawn[:, :4], drawn[:, 4] = n > 1, crossed & draws_position
        count = np.count_nonzero(drawn)
        m = np.zeros((n, 5), dtype=np.uint64)
        m[drawn] = halves[:count]
        spans = np.array([n, n, n, n, dim], dtype=np.uint64)
        m *= spans
        if np.any(((m & 0xFFFFFFFF) < (2**32 - spans) % spans) & drawn):
            rng.resume(start)
            return self._drawn_by_numpy(p_r, p_m)
        rng.keep_spare(int(halves[-1]) if len(halves) > count else None)
        picks = (m >> 32).astype(np.intp)
        self.bouts, self.position = picks[:, :4], picks[:, 4]
        self.crossed, self.mutated, self.normals = crossed, np.frombuffer(mutated, dtype=bool), normals
        weights = np.where(crossed, first + bout_words + 1, len(words) - dim - 1)  # each child's first weight word
        # next_double with its shift in place: two (n, dim) temporaries freed together let glibc trim the heap
        w = as_strided(words, (len(words) - dim + 1, dim), words.strides * 2)[weights]
        w >>= 11
        self.weight_draws = w * 2.0**-53
        self.blend = next_double(words[weights + dim + position_word])

    def _drawn_by_numpy(self, p_r: float, p_m: float) -> None:
        """`child_by_child` by numpy's own calls, child after child, for a
        generation in which Lemire's method redraws a half."""
        rng, n, dim = self.rng, self.n, self.dim
        self.bouts, self.position = np.zeros((n, 4), dtype=np.intp), np.zeros(n, dtype=np.intp)
        self.weight_draws, self.blend, self.normals = np.zeros((n, dim)), np.zeros(n), np.zeros((n, dim))
        for k in range(n):
            self.bouts[k] = rng.integers(0, n, size=4)
            if rng.random() < p_r:
                self.crossed[k] = True
                self.weight_draws[k] = rng.random(dim)
                self.position[k] = rng.integers(0, dim)
                self.blend[k] = rng.random()
            if rng.random() < p_m:
                self.mutated[k] = True
                rng.random(dim)  # the mask uniforms, passed over
                self.normals[k] = rng.normal(0.0, 1.0, dim)

    def all_tournaments(self) -> None:
        """Every child's two tournaments as one (n, 4) array of members drawn
        uniformly with replacement: i and j of the first, then of the second."""
        self.bouts = self.rng.integers(0, self.n, size=(self.n, 4))

    def all_crossovers(self, p_r: float) -> None:
        """Every child's crossover draws, one array per kind: the coins (n,),
        which land below p_r for the children that cross over, then the
        weight draws (n, dim), the blended positions (n,) and their weights
        (n,), drawn for every child whatever its coin says."""
        rng, n = self.rng, self.n
        self.crossed = rng.random(n) < p_r
        self.weight_draws = rng.random((n, self.dim))
        self.position = rng.integers(0, self.dim, size=n)
        self.blend = rng.random(n)

    def all_mutations(self, p_m: float, variances: Callable[[int], np.ndarray]) -> None:
        """Every child's whole-genome mutation draws, one array per kind: the
        coins (n,), which land below p_m for the children that mutate, then
        one variance per child from `variances(n)`, then the standard
        normals (n, dim), drawn for every child whatever its coin says, as
        `standard_normal` plus 0.0, which is numpy's `normal(0.0, 1.0)` to the
        bit. No mask is drawn or stored (`gene_draws` stays None), so every
        gene of a mutated child fires."""
        rng, n = self.rng, self.n
        self.mutated = rng.random(n) < p_m
        self.variance = variances(n)[:, None]
        self.normals = rng.standard_normal((n, self.dim))
        self.normals += 0.0  # numpy's normal(0.0, 1.0), as in `child_by_child`

    def all_gene_mutations(self, p_gene: float, variance) -> None:
        """Every child's per-gene mutation draws, one array per kind: the
        mask uniforms (n, dim), then the standard normals (n, dim), as in
        `all_mutations`. Every
        child counts as mutated; a gene fires where its mask uniform lands
        below `p_gene`, with the `variance` given, a scalar or one per gene."""
        rng, shape = self.rng, (self.n, self.dim)
        self.mutated, self.p_gene, self.variance = np.ones(self.n, dtype=bool), p_gene, variance
        self.gene_draws = rng.random(shape)
        self.normals = rng.standard_normal(shape)
        self.normals += 0.0  # numpy's normal(0.0, 1.0), as in `child_by_child`

    def parents(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The winners of each child's two tournaments under fitness f."""
        b = self.bouts
        return binary_tournament(f, b[:, 0], b[:, 1]), binary_tournament(f, b[:, 2], b[:, 3])

    def children(self, X, first, second, space: SearchSpace) -> tuple[np.ndarray, np.ndarray]:
        """Child k from rows first[k] and second[k] of X: crossed over if its
        coin landed, then mutated with the stored per-gene rate and variance
        if it drew a mutation. Returns the children and the `source` of each:
        the row of X it copies bit for bit, first[k], else second[k], or -1
        for a fresh child, one where crossover changed a bit of both parents
        or a gene fired. A fresh child is evaluated; a copy keeps its row's fitness.

        `arithmetic_crossover` blends the crossed rows of all n at once and
        copies the first parent elsewhere; then `gaussian_mutate` adds noise
        to the fired genes of mutated rows and clamps the rows where a gene
        fired, writing into the children's own array (the crossover's, or
        the gathered first parents), never into X. Either is skipped when no
        child drew it, as in `dgea`'s generations, since it would leave every
        row as it is. Between them, the crossed rows where no gene fires are
        compared with the first and the second parents as int64 words, since
        crossing two copies of a member mostly returns it, and a blend often
        takes every gene of one parent. Without a mask, every mutated row fires, so those rows are
        known before mutation: when fewer than half the rows can be copies
        (a fifth at the baselines' stock rates), they are gathered; otherwise
        (with a mask, which rows fire is known only after mutation) the whole
        matrices are compared, gathering no row, and a row where a gene fires
        is marked fresh afterwards. The parents are freed before mutation
        allocates: each (n, dim) array held longer lets glibc trim the heap
        and fault its pages back in."""
        out, source = X[first], np.array(first)
        if self.crossed.any():
            b = X[second]
            child = arithmetic_crossover(out, b, self.weight_draws, self.position, self.blend, self.crossed)
            can_copy = self.crossed  # a copy is a crossed row where no gene fires
            if self.gene_draws is None and self.p_gene > 0:  # no mask: each gene of a mutated row fires
                can_copy = can_copy & ~self.mutated
            if 2 * np.count_nonzero(can_copy) < self.n:  # few rows: gather them
                rows = can_copy.nonzero()[0]
                source[rows] = _copied(child[rows], out[rows], b[rows], first[rows], second[rows])
            else:
                source = _copied(child, out, b, first, second)
            out = child
            del b
        if self.mutated.any():
            out, fired = gaussian_mutate(
                out, self.gene_draws, self.normals, self.variance, self.p_gene, space, self.mutated
            )
            source[fired] = -1
        return out, source


def pow_sample(alpha: float, rng: RngStream, *, size: int) -> np.ndarray:
    """An array of `size` draws from alpha times the inverse-square law on
    [1, 1000] (density proportional to u**-2): the mutation variances of
    `socea`, `cea` and `dgea`.

    Each draw inverts the law's CDF at one uniform, so `size=k` takes the k
    uniforms that k calls with `size=1` would take, in order, and gives the
    same values. The median lands near 2*alpha, and every draw lies in
    [alpha, 1000*alpha].
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    u = rng.random(size)
    return alpha * (1.0 - u * (1.0 - 1000.0**-1.0)) ** -1.0


def sea_variance(t: int, mode: str = "printed") -> float:
    """Mutation variance schedule for the simple EA at generation t.

    "printed" grows as 1 + sqrt(t + 1); "annealed" decays as 1 / sqrt(t + 1).
    """
    if mode == "printed":
        return 1.0 + math.sqrt(t + 1.0)
    if mode == "annealed":
        return 1.0 / math.sqrt(t + 1.0)
    raise ValueError(f"unknown variance mode {mode!r}")
