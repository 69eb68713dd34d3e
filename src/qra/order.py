"""Finite posets on bitmask-encoded carriers.

Elements are ``0..n-1`` and subsets are Python ints used as bitmasks, so
upset/downset manipulation is single word operations for every carrier
size this package meets in practice.  For numpy a set is also a row of
little-endian 64-bit words, bit j at point j, or a boolean row; the
``*_to_*`` functions below are the one set of conversions between the
three forms.  The n x n tables derived from an order (covers, joins and
meets) are computed with numpy: covers from the strict order with no
two-step path, joins and meets by looking up irreducible keys (see
``Poset.lattice``).  An ``InclusionOrder`` of sets, the order of an
up-set algebra, reads them off the sets instead.
"""

from __future__ import annotations

import os
from functools import cached_property, lru_cache
from itertools import chain, groupby, permutations, product
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError, StructuralError
from .iso import Structure, isomorphisms, set_image


def bits(mask: int):
    """Iterate the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def popcount(mask: int) -> int:
    return int(mask).bit_count()


def _by_size(masks) -> tuple[int, ...]:
    return tuple(sorted(masks, key=lambda m: (popcount(m), m)))


class LatticeTables(NamedTuple):
    """Join and meet tables of a finite order, with -1 where there is none."""

    join: np.ndarray
    meet: np.ndarray
    bottom: int
    top: int


def word_width(points: int) -> int:
    """The 64-bit words in the word row of a set of ``points`` points."""
    return max(1, -(-points // 64))


def masks_to_words(masks, width: int) -> np.ndarray:
    """Bitmask sets as the rows of a read-only array of ``width``
    little-endian 64-bit words."""
    raw = b"".join(int(m).to_bytes(8 * width, "little") for m in masks)
    return np.ndarray((len(masks), width), dtype="<u8", buffer=raw)


def words_to_masks(words: np.ndarray) -> tuple[int, ...]:
    """The rows of a 2-D array of little-endian words as bitmask sets; the
    words may be 64-bit or, for a packed boolean row, bytes."""
    step, raw = words.shape[1] * words.itemsize, words.tobytes()
    return tuple(int.from_bytes(raw[i * step:(i + 1) * step], "little")
                 for i in range(len(words)))


def words_to_bools(words: np.ndarray, points: int) -> np.ndarray:
    """Rows of 64-bit words (the last axis) as boolean rows of their first
    ``points`` bits: the unpacked bits viewed as booleans, not copied."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=points,
                         bitorder="little").view(bool)


def _packed(member: np.ndarray) -> np.ndarray:
    """Boolean rows (the last axis) as rows of bytes, bit j at column j."""
    return np.packbits(member, axis=-1, bitorder="little")


def bools_to_words(member: np.ndarray) -> np.ndarray:
    """Boolean rows (the last axis) as rows of little-endian 64-bit words,
    zero past the last column."""
    packed = _packed(member)
    words = np.zeros(packed.shape[:-1] + (8 * word_width(member.shape[-1]),), dtype=np.uint8)
    words[..., :packed.shape[-1]] = packed
    return words.view("<u8")


def row_masks(matrix) -> tuple[int, ...]:
    """Row i of a 2-D boolean array as the bitmask of its true columns."""
    return words_to_masks(_packed(matrix))


@lru_cache(maxsize=None)
def _physical_memory() -> int:
    """Bytes of physical memory, as the operating system reports them."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(need: int, what: str):
    """Raise ``PreconditionError`` before ``what`` allocates ``need`` bytes
    when that is more than the physical memory."""
    memory = _physical_memory()
    if need > memory:
        raise PreconditionError(f"{what} needs {need / 2**30:.1f} GiB; "
                                f"physical memory is {memory / 2**30:.1f} GiB")


#: cells in one block of an n x n computation, so temporaries stay small
BLOCK_CELLS = 1 << 16


def row_blocks(rows: int, cells_per_row: int):
    """Slices of ``range(rows)`` with at most ``BLOCK_CELLS`` cells each
    (at least one row)."""
    step = max(1, BLOCK_CELLS // max(1, cells_per_row))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _find(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The position of the last copy of each query in the sorted keys, or -1."""
    at = keys.searchsorted(queries, "right") - 1
    return np.where(keys[at] == queries, at, -1)


class RowIndex:
    """Exact lookup of word rows among the rows of a table; a row listed
    more than once is found at its last index.

    Rows are matched a word at a time: the rank of a prefix and the
    position of the next word among the sorted values of that word give
    the rank of the longer prefix, so ranks stay below len(rows) ** 2
    whatever the number of words.
    """

    def __init__(self, rows: np.ndarray):
        self.steps = []  # per word: its sorted values, then the sorted prefix ranks
        rank = 0
        for w, column in enumerate(rows.T):
            words = np.sort(column)
            rank = rank * len(words) + words.searchsorted(column, "right") - 1
            prefixes = None
            if w:
                prefixes = np.sort(rank)
                rank = prefixes.searchsorted(rank, "right") - 1
            self.steps.append((words, prefixes))
        # a query found nowhere has position -1, which reads the -1 at the end
        self.order = np.full(len(rows) + 1, -1, dtype=np.int32)
        self.order[:-1] = rank.argsort(kind="stable")

    def find(self, queries: np.ndarray) -> np.ndarray:
        """The index of each word row of ``queries`` (last axis) among the
        rows, or -1."""
        query = None
        for w, (words, prefixes) in enumerate(self.steps):
            word = _find(words, queries[..., w])
            if w:
                query = _find(prefixes, np.where(word < 0, -1, query * len(words) + word))
            else:
                query = word
        return self.order[query]


def _irreducibles(masks, lower) -> tuple[int, ...]:
    """The elements that are not the least upper bound of the elements
    strictly below them, for the order whose up-sets are ``masks`` and
    lower covers ``lower``: those where the common upper bounds of the
    lower covers (every element, if there are none) are more than the
    up-set.  With down-sets and upper covers, the dual."""
    carrier = (1 << len(masks)) - 1
    out = []
    for a, low in enumerate(lower):
        bound = carrier
        while low:
            c = low & -low
            bound &= masks[c.bit_length() - 1]
            low ^= c
        if bound != masks[a]:
            out.append(a)
    return tuple(out)


def _key_table(keys: np.ndarray) -> np.ndarray:
    """The read-only table of the element keyed ``keys[a] & keys[b]``, -1
    where there is none."""
    n, width = keys.shape
    index = RowIndex(keys)
    table = np.empty((n, n), dtype=np.int32)
    # the table is symmetric: a block of rows is looked up from its
    # diagonal on and mirrored into the same columns
    for rows in row_blocks(n, n * width):
        half = index.find(keys[rows, None, :] & keys[None, rows.start:, :])
        table[rows, rows.start:] = half
        table[rows.start:, rows] = half.T
    table.setflags(write=False)
    return table


@lru_cache(maxsize=8)
def _point_words(width: int) -> np.ndarray:
    """Row x is the set of point x alone, as ``width`` 64-bit words, for
    x < 64 * width; the last row, read by an index of -1, is empty.  The
    few widths in use are kept, read-only."""
    return masks_to_words([1 << x for x in range(64 * width)] + [0], width)


def _read_sets(sets: np.ndarray, removable: np.ndarray, index: RowIndex):
    """Join and meet tables of an ``InclusionOrder`` read off its sets (see
    its docstring), the least set, the pairs (lo, hi) of a set hi and a
    listed set lo one point smaller, in increasing hi, and its
    ``join_steps``; None where the lemma's premise fails."""
    count, width = sets.shape
    member = words_to_bools(sets, 64 * width)
    # points past the last one any set holds are left out
    points = member.shape[1] - int(member.any(axis=0)[::-1].argmax())
    member = member[:, :points]
    # the sets in increasing size; p_x is the first holding x, or the
    # first set where none does
    size = member.sum(axis=1)
    order = np.argsort(size, kind="stable")
    least_at = order[member[order].argmax(axis=0)]
    least_with = sets[least_at]
    # per set V: V ∪ p_x for each point x, V itself, then V minus each
    # removable point, all looked up at once
    found = np.empty((count, points + 1 + removable.shape[1]), dtype=np.int32)
    for rows in row_blocks(count, found.shape[1] * width):
        v = sets[rows, None, :]
        found[rows] = index.find(np.concatenate(
            (v | least_with, v, v & ~_point_words(width)[removable[rows]]), axis=1))
    union, below = found[:, :points + 1], found[:, points + 1:]
    # the padding finds the set itself
    below[below == union[:, points:]] = -1
    has_lower = below >= 0
    least = np.flatnonzero(~has_lower.any(axis=1))
    # (i) to (iii) of the InclusionOrder docstring
    if (len(least) != 1 or union.min() < 0
            or (member > (union[:, :points] == union[:, points:])).any()):
        return None
    # the sets after the least, in increasing size, each with one W = V
    # minus x.  The unions, set itself last, are one flat array read at
    # A + count * x, or at A + count * points (A itself) for a meet
    # entry whose U misses x
    order = order[1:]
    pick = has_lower[order].argmax(axis=1)
    lower_set, point = below[order, pick], removable[order, pick]
    flat = union.T.reshape(-1)
    # positions in the flat array fit int32 while it has fewer than 2^31
    # entries, and int32 halves the largest temporary here
    offsets = np.empty((2, points, count), dtype=np.int32 if flat.size < 2**31 else np.intp)
    offsets[:] = count * np.arange(points)[:, None]
    np.copyto(offsets[1], count * points, where=~member.T)
    tables = np.empty((2, count, count), dtype=np.int32)
    tables[0, least[0]] = np.arange(count)
    tables[1, least[0]] = least[0]
    # one gather per size, split further to stay within BLOCK_CELLS
    sizes = size[order]
    bounds = {rows.start for rows in row_blocks(count - 1, 2 * count)}
    bounds = sorted(bounds.union((np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(),
                                 [count - 1]))
    for start, end in zip(bounds, bounds[1:]):
        tables[:, order[start:end]] = flat.take(tables.take(lower_set[start:end], axis=1)
                                                + offsets.take(point[start:end], axis=1))
    join, meet = tables
    join.setflags(write=False)
    meet.setflags(write=False)
    hi, k = np.nonzero(has_lower)
    steps = np.array([order, lower_set, least_at[point]], dtype=np.intp)
    steps.setflags(write=False)
    return join, meet, int(least[0]), below[hi, k], hi, steps


class _PathFacts(NamedTuple):
    covers: tuple[int, ...]
    lower_covers: tuple[int, ...]
    cover_pairs: np.ndarray
    is_partial_order: bool
    intransitive: np.ndarray


class Poset:
    """Immutable partial order given by its full relation matrix.

    ``up[i]`` is the bitmask of ``{j | i <= j}`` and ``down[i]`` the bitmask
    of ``{j | j <= i}``; both include ``i`` itself.
    """

    def __init__(self, up: tuple[int, ...], name: str | None = None):
        self.n = len(up)
        self.up = tuple(up)
        self.name = name
        self.carrier = (1 << self.n) - 1

    @classmethod
    def from_matrix(cls, matrix, name=None, check=True) -> "Poset":
        """The order with ``i <= j`` where ``matrix[i][j]`` is true."""
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise StructuralError("order matrix is not square")
        leq = np.asarray(matrix, dtype=bool).reshape(n, n)
        if leq.flags.writeable:
            leq = leq.copy()
            leq.setflags(write=False)
        poset = cls(row_masks(leq), name=name)
        # fill the cached properties
        poset.__dict__["down"] = row_masks(leq.T)
        poset.__dict__["relation"] = leq
        if check:
            poset.check_partial_order()
        return poset

    @classmethod
    def chain(cls, n: int, name=None) -> "Poset":
        return cls(tuple(((1 << n) - 1) ^ ((1 << i) - 1) for i in range(n)), name=name)

    @classmethod
    def antichain(cls, n: int, name=None) -> "Poset":
        return cls(tuple(1 << i for i in range(n)), name=name)

    @classmethod
    def from_covers(cls, n: int, covers, name=None) -> "Poset":
        """The order generated by the pairs ``(lo, hi)`` with lo <= hi."""
        up = [1 << i for i in range(n)]
        for _ in range(n):  # each pass closes every chain of covers one step further
            for lo, hi in covers:
                up[lo] |= up[hi]
        return cls(tuple(up), name=name)

    def check_partial_order(self):
        n, up = self.n, self.up
        for i in range(n):
            if not (up[i] >> i) & 1:
                raise StructuralError(f"order not reflexive at {i}")
            for j in bits(up[i]):
                if i != j and (up[j] >> i) & 1:
                    raise StructuralError(f"order not antisymmetric at ({i},{j})")
                if up[j] & ~up[i]:
                    raise StructuralError(f"order not transitive at ({i},{j})")

    @cached_property
    def down(self) -> tuple[int, ...]:
        return tuple(
            mask_of(j for j in range(self.n) if (self.up[j] >> i) & 1)
            for i in range(self.n)
        )

    @cached_property
    def relation(self) -> np.ndarray:
        """The read-only boolean matrix with ``i <= j`` at ``[i, j]``."""
        leq = words_to_bools(masks_to_words(self.up, word_width(self.n)), self.n)
        leq.setflags(write=False)
        return leq

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def matrix(self) -> list[list[int]]:
        return [[1 if self.leq(i, j) else 0 for j in range(self.n)] for i in range(self.n)]

    def is_upset(self, mask: int) -> bool:
        return self.upset_closure(mask) == mask

    def upset_closure(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= self.up[i]
        return out

    def _grow_upsets(self, cap: int | None = None) -> list[int]:
        """The upsets in no particular order; once there are more than
        ``cap`` of them, the first list found that is longer than ``cap``.
        """
        found = [0]
        # Everything above e comes before e, so each upset of the elements
        # seen so far is an upset of the whole poset, and adding e to one
        # only needs a containment test on the prefix.
        for e in sorted(range(self.n), key=lambda i: popcount(self.up[i])):
            strict_up = self.up[e] ^ (1 << e)
            found += [m | (1 << e) for m in found if strict_up & ~m == 0]
            if cap is not None and len(found) > cap:
                break
        return found

    @cached_property
    def upsets(self) -> tuple[int, ...]:
        """All upward closed subsets, sorted by (size, mask)."""
        return _by_size(self._grow_upsets())

    def upsets_within(self, cap: int) -> tuple[int, ...] | None:
        """``upsets`` if there are at most ``cap`` of them, else None, from
        one growth that stops past ``cap``; a complete list is cached."""
        found = self._grow_upsets(cap)
        if len(found) > cap:
            return None
        ups = self.__dict__["upsets"] = _by_size(found)
        return ups

    def count_upsets(self, cap: int | None = None) -> int:
        """Number of upsets, abandoning the count once it exceeds ``cap``:
        the result is ``min(total, cap + 1)``."""
        count = len(self._grow_upsets(cap))
        return count if cap is None else min(count, cap + 1)

    @cached_property
    def _paths(self) -> "_PathFacts":
        """Covers and the order laws from one count of the two-step paths
        i -> k -> j through a third element k.  Counts are float32 sums
        of at most n ones, so they are exact."""
        n, leq = self.n, self.relation
        check_memory(12 * n * n, f"the cover relation of {n} elements")
        strict = leq.astype(np.float32)
        strict.flat[::n + 1] = 0
        paths = strict @ strict > 0
        reflexive = leq.diagonal()
        # an element that is not below itself covers nothing and is covered
        # by nothing
        cover = (strict > 0) & ~paths & reflexive[:, None] & reflexive
        # a pair joined by a two-step path but not related; no other pair
        # (i, k, j) with k in {i, j} can break transitivity
        intransitive = np.argwhere(paths & ~leq)
        is_order = bool(reflexive.all() and not paths.diagonal().any() and not len(intransitive))
        return _PathFacts(row_masks(cover), row_masks(cover.T), np.argwhere(cover), is_order,
                          intransitive)

    @property
    def covers(self) -> tuple[int, ...]:
        """covers[i] = bitmask of elements covering i."""
        return self._paths.covers

    @property
    def lower_covers(self) -> tuple[int, ...]:
        """lower_covers[i] = bitmask of elements covered by i."""
        return self._paths.lower_covers

    @property
    def cover_pairs(self) -> np.ndarray:
        """The pairs (i, j) with j covering i, one a row, in row-major
        order."""
        return self._paths.cover_pairs

    @property
    def is_partial_order(self) -> bool:
        """Whether the relation is reflexive, antisymmetric and transitive."""
        return self._paths.is_partial_order

    @property
    def intransitive_pairs(self) -> np.ndarray:
        """The pairs (i, j), in row-major order, with i <= k <= j for some
        k but not i <= j."""
        return self._paths.intransitive

    @cached_property
    def join_irreducibles(self) -> tuple[int, ...]:
        """The elements J that are not the least upper bound of the
        elements strictly below them; in a lattice, the join-irreducibles
        (the elements with exactly one lower cover).  Every element when
        the relation is not a partial order, so that the keys built on J
        are the whole down-sets there."""
        if not self.is_partial_order:
            return tuple(range(self.n))
        return _irreducibles(self.up, self.lower_covers)

    @cached_property
    def meet_irreducibles(self) -> tuple[int, ...]:
        """The elements M that are not the greatest lower bound of the
        elements strictly above them, the dual of ``join_irreducibles``."""
        if not self.is_partial_order:
            return tuple(range(self.n))
        return _irreducibles(self.down, self.covers)

    @cached_property
    def down_keys(self) -> np.ndarray:
        """Row a is J ∩ ↓a, bit k for ``join_irreducibles[k]``, as 64-bit
        words."""
        return bools_to_words(self.relation.T[:, self.join_irreducibles])

    @cached_property
    def up_keys(self) -> np.ndarray:
        """Row a is M ∩ ↑a, the dual of ``down_keys``."""
        return bools_to_words(self.relation[:, self.meet_irreducibles])

    @cached_property
    def lattice(self) -> LatticeTables:
        """Join and meet tables, bottom and top; -1 marks a missing one.
        The tables are read-only.

        Let J be the elements that are not the least upper bound of the
        elements strictly below them.  By induction on height, every
        element a of a finite poset is the least upper bound of J ∩ ↓a:
        either a is in J and the greatest element of that set, or a is
        the least upper bound of the elements strictly below it, each of
        which is the least upper bound of the part of J ∩ ↓a below it.
        So a <= b exactly when J ∩ ↓a is within J ∩ ↓b, and c is the meet
        of a and b exactly when J ∩ ↓c = J ∩ ↓a ∩ J ∩ ↓b: every j in the
        intersection is a lower bound of a and b, hence below their meet.
        Each meet is therefore an exact lookup of ``key[a] & key[b]``
        among the keys, -1 where there is none; joins are the same with
        the up-sets.  This holds in every finite poset, lattice or not.
        On a relation that is not a partial order the keys are the whole
        down-sets (up-sets), so the lookup compares the sets themselves;
        a set shared by several elements names the last of them, and so
        do the bottom (the element below everything) and the top.
        """
        n = self.n
        check_memory(8 * n * n, f"the join and meet tables of {n} elements")
        ends = [max((i for i, m in enumerate(masks) if m == self.carrier), default=-1)
                for masks in (self.up, self.down)]
        return LatticeTables(_key_table(self.up_keys), _key_table(self.down_keys), *ends)

    @cached_property
    def is_lattice(self) -> bool:
        """Whether the lattice tables have every entry: on a partial order,
        whether it is a lattice."""
        lat = self.lattice
        return bool(min(lat.join.min(initial=0), lat.meet.min(initial=0)) >= 0)

    def total(self, which: str) -> np.ndarray:
        """The ``join`` or ``meet`` table, which must have every entry."""
        table = getattr(self.lattice, which)
        if not self.is_lattice and table.min() < 0:
            i, j = np.argwhere(table < 0)[0].tolist()
            raise PreconditionError(f"{which} of ({i},{j}) does not exist")
        return table

    @cached_property
    def distributive(self) -> bool:
        """Whether every j in J is join-prime (lemma of ``lattice``): j <= a
        join b implies j <= a or j <= b, for all a and b, exactly when
        J ∩ ↓(a join b) = (J ∩ ↓a) | (J ∩ ↓b), one test over the word rows
        of ``down_keys``.  Needs the join table, not the meet table."""
        keys, join = self.down_keys, self.total("join")
        return all(np.array_equal(keys[join[rows]], keys[rows, None, :] | keys[None, :, :])
                   for rows in row_blocks(self.n, self.n * keys.shape[1]))

    @cached_property
    def join_steps(self) -> np.ndarray:
        """The rows a, a0, j of a read-only array: every element a with a
        lower cover, one lower cover a0 of it, and an element j of
        ``join_irreducibles`` below a and not below a0, which lemma 1 of
        :mod:`qra.algebra` gives.  On a distributive lattice j is the only
        one and a = a0 join j (lemma 6 there)."""
        jirr, down = mask_of(self.join_irreducibles), self.down
        steps = [(a, a0, (down[a] & ~down[a0] & jirr).bit_length() - 1)
                 for a, low in enumerate(self.lower_covers) if low
                 for a0 in (low.bit_length() - 1,)]
        steps = np.array(steps, dtype=np.intp).reshape(-1, 3).T
        steps.setflags(write=False)
        return steps

    def _profile(self) -> tuple:
        """Iterated degree profile, an isomorphism invariant per element:
        rounds of colour refinement, run until a round splits no class.

        Lemma.  Each round's colour starts with the previous round's code,
        so each round refines the partition before it.  Codes are ranks in
        sorted order.  If a round splits no class, sorting by the new colour
        orders the classes by their old code first, so every code stays the
        same and every later round returns the same colours.  A partition of
        n points splits at most n - 1 times, so n rounds always reach this
        fixed point, and stopping there returns the colours of round n.
        """
        colors = [(popcount(self.up[i]), popcount(self.down[i])) for i in range(self.n)]
        classes = None
        while True:
            palette = {c: k for k, c in enumerate(sorted(set(colors)))}
            if len(palette) == classes:
                return tuple(colors)
            classes = len(palette)
            coded = [palette[c] for c in colors]
            colors = [
                (
                    coded[i],
                    tuple(sorted(coded[j] for j in bits(self.up[i]))),
                    tuple(sorted(coded[j] for j in bits(self.down[i]))),
                )
                for i in range(self.n)
            ]

    def _relation_key(self, perm) -> int:
        """Encode the relation under the relabeling i -> perm[i]."""
        key = 0
        for i, m in enumerate(self.up):
            key |= set_image(m, perm) << (perm[i] * self.n)
        return key

    @cached_property
    def structure(self) -> Structure:
        """The order as a structure for :mod:`qra.iso`."""
        return Structure(self.n, (("the order", "rel", 2, self.up),))

    @cached_property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        return tuple(isomorphisms(self.structure, self.structure))

    @cached_property
    def order_reversing_bijections(self) -> tuple[tuple[int, ...], ...]:
        """All bijections f with i <= j iff f(j) <= f(i)."""
        return tuple(isomorphisms(self.structure, self.dual().structure))

    @cached_property
    def order_reversing_involutions(self) -> tuple[tuple[int, ...], ...]:
        """The order reversing bijections that are their own inverse."""
        return tuple(g for g in self.order_reversing_bijections
                     if all(g[g[x]] == x for x in range(self.n)))

    @cached_property
    def is_self_dual(self) -> bool:
        return bool(self.order_reversing_bijections)

    def dual(self) -> "Poset":
        return Poset(self.down, name=None if self.name is None else f"d({self.name})")

    @cached_property
    def canonical_key(self) -> tuple[int, int]:
        """(n, minimal relation encoding over all relabelings)."""
        if self.n <= 1:
            return (self.n, 0)
        profile = self._profile()
        order = sorted(range(self.n), key=profile.__getitem__)
        # Only profile-preserving relabelings can reach the minimum.
        groups = [tuple(g) for _, g in groupby(order, key=profile.__getitem__)]
        best = None
        perm = [0] * self.n
        for pieces in product(*map(permutations, groups)):
            for slot, src in enumerate(chain.from_iterable(pieces)):
                perm[src] = slot
            key = self._relation_key(perm)
            if best is None or key < best:
                best = key
        return (self.n, best)

    def relabel(self, perm) -> "Poset":
        """Apply i -> perm[i] to the carrier."""
        up = [0] * self.n
        for i, m in enumerate(self.up):
            up[perm[i]] = set_image(m, perm)
        return Poset(tuple(up), name=self.name)

    def __eq__(self, other):
        return isinstance(other, Poset) and self.up == other.up

    def __hash__(self):
        return hash(self.up)

    def __repr__(self):
        label = self.name or f"poset{self.n}"
        return f"Poset({label}, n={self.n})"


class InclusionOrder(Poset):
    """The inclusion order of distinct sets, given as rows of 64-bit words,
    with its covers and lattice tables read off the sets.

    ``removable[v]`` lists the points x of set v, padded with -1, for which
    v minus x may be listed; every other x must leave an unlisted set.  For
    up-sets these are the minimal points.  ``index`` is the ``RowIndex`` of
    the sets.

    Lemma.  Let F be a family of distinct sets closed under union and
    intersection in which every set but the least has a one-point-smaller
    set in F.  Then V covers U in F exactly when U = V minus one point.
    Proof: such a U has nothing strictly between it and V.  Conversely let
    V cover U, and induct on |V|.  Some W = V minus x is in F.  If U is
    within W, then U = W.  Otherwise x is in U, so U ∪ W = V, and
    Z -> Z ∪ U, with inverse Z -> Z ∩ W, maps the sets between U ∩ W and
    W onto those between U and V (F is closed under both), so W covers
    U ∩ W.  By induction U ∩ W = W minus some y, and U = (U ∩ W) ∪ {x} =
    V minus y.

    So where every union and intersection is listed (join is union, meet
    is intersection) and every set but one has a listed set one point
    smaller, the lower covers of V are the listed sets V minus x, and the
    set without one is the bottom.  Inclusion among distinct sets is a
    partial order, and where the premise holds a distributive lattice, as
    union and intersection distribute over each other.  Where it fails,
    covers, lattice tables and their premises are those of ``Poset``.

    Tables in rank order.  In such an F let p_x, for a point x some set
    holds, be the intersection of the sets holding x: the least set
    holding x.  Let V be a set other than the least and W = V minus x in
    F.  Then V = W ∪ p_x: p_x is within V, as V holds x, and so is W;
    conversely V = W ∪ {x} and x is in p_x.  For every U in F:
      V ∪ U = (W ∪ U) ∪ p_x, so join[V] = with_p[join[W], x];
      V ∩ U = (W ∩ U) ∪ ({x} ∩ U), which is W ∩ U where U misses x, and
      (W ∩ U) ∪ p_x where U holds x, since p_x is then within both U and
      V; so meet[V] = with_p[meet[W], x] on the U holding x and meet[W]
      on the others,
    where with_p[A, x] is the set A ∪ p_x.  The least set is within every
    set, so its join row is the identity and its meet row is itself.  The
    rows are therefore formed in increasing size from those of a set one
    point smaller, from count x points lookups of A ∪ p_x in place of
    count^2 lookups of unions and intersections.

    The premise is tested by the same lookups.  Take for p_x a smallest
    set holding x (for a point no set holds, a smallest set, which under
    (i) is within every set, so that A ∪ p_x is A), and ask that (i)
    exactly one set has no listed set one point smaller, (ii) every
    A ∪ p_x is listed and (iii) p_x is within every set holding x.  Where
    the premise holds, p_x is the least set holding x and (i) to (iii)
    hold.  Conversely, under (i) a chain of one-point-smaller sets leads
    from every set down to the one without, which is therefore within all
    of them, and under (iii) the two row formulas above hold.  By
    induction on size each entry they give is a lookup (ii) of a listed
    set, so every union and intersection is listed: the premise holds.
    """

    def __init__(self, sets: np.ndarray, removable: np.ndarray, name=None):
        count = len(sets)
        leq = np.empty((count, count), dtype=bool)
        for rows in row_blocks(count, count * sets.shape[1]):
            leq[rows] = ((sets[rows, None, :] & ~sets[None, :, :]) == 0).all(axis=-1)
        leq.setflags(write=False)
        super().__init__(row_masks(leq), name=name)
        self.__dict__.update(down=row_masks(leq.T), relation=leq)
        self.sets, self.removable, self.index = sets, removable, RowIndex(sets)

    @cached_property
    def _from_sets(self) -> tuple[_PathFacts, LatticeTables, np.ndarray] | None:
        """Covers, lattice tables and join steps read off the sets, or None
        where the lemma's premise fails."""
        count = len(self.sets)
        check_memory(8 * count * count, f"the join and meet tables of {count} elements")
        # the lookups are made and dropped in one call, so that the covers
        # below are not allocated past them
        read = _read_sets(self.sets, self.removable, self.index)
        if read is None:
            return None
        join, meet, least, lo, hi, steps = read
        # the pairs come in increasing hi, so a stable sort by lo orders them
        by_lo = lo.argsort(kind="stable")
        pairs = np.empty((len(lo), 2), dtype=np.intp)
        pairs[:, 0], pairs[:, 1] = lo[by_lo], hi[by_lo]
        covers, lower = [0] * count, [0] * count
        for a, b in pairs.tolist():
            covers[a] |= 1 << b
            lower[b] |= 1 << a
        top = covers.index(0)
        facts = _PathFacts(tuple(covers), tuple(lower), pairs, True,
                           np.empty((0, 2), dtype=np.intp))
        return facts, LatticeTables(join, meet, least, top), steps

    @property
    def lattice_from_sets(self) -> bool:
        """Whether the lemma's premise holds, so that covers and lattice
        tables are read off the sets: join is union and meet intersection."""
        return self._from_sets is not None

    @cached_property
    def _paths(self) -> _PathFacts:
        return super()._paths if self._from_sets is None else self._from_sets[0]

    @cached_property
    def lattice(self) -> LatticeTables:
        return super().lattice if self._from_sets is None else self._from_sets[1]

    @cached_property
    def is_lattice(self) -> bool:
        return self.lattice_from_sets or super().is_lattice

    @cached_property
    def distributive(self) -> bool:
        return self.lattice_from_sets or super().distributive

    @cached_property
    def join_steps(self) -> np.ndarray:
        """Where the lemma's premise holds, each set V but the least, the
        listed set V minus x and p_x, the least set holding x: by the
        docstring, V = (V minus x) ∪ p_x."""
        return super().join_steps if self._from_sets is None else self._from_sets[2]


def disjoint_union(*posets: Poset) -> Poset:
    up = []
    offset = 0
    for p in posets:
        up.extend(m << offset for m in p.up)
        offset += p.n
    return Poset(tuple(up))


def _named_posets() -> dict[str, Poset]:
    c = Poset.chain
    a = Poset.antichain

    named = {
        "1": c(1, "1"),
        "2": c(2, "2"),
        "3": c(3, "3"),
        "4": c(4, "4"),
        "5": c(5, "5"),
        "6": c(6, "6"),
        "7": c(7, "7"),
        "1+1": a(2, "1+1"),
        "1+1+1": a(3, "1+1+1"),
        "1+2": disjoint_union(c(1), c(2)),
        "1+3": disjoint_union(c(1), c(3)),
        "2x2": Poset.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)], "2x2"),
        "bowtie": Poset.from_covers(4, [(0, 2), (0, 3), (1, 2), (1, 3)], "bowtie"),
        "N": Poset.from_covers(4, [(0, 2), (1, 2), (1, 3)], "N"),
        "X": Poset.from_covers(5, [(0, 2), (1, 2), (2, 3), (2, 4)], "X"),
        "P": Poset.from_covers(5, [(0, 1), (0, 2), (1, 3), (3, 4), (2, 4)], "P"),
        "d2x2": Poset.from_covers(6, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], "d2x2"),
    }
    for name, p in named.items():
        p.name = name
    return named


NAMED_POSETS = _named_posets()

#: The poset shapes whose upset lattices are self-dual with at most 8 upsets,
#: in the order used by the census tables.
CENSUS_ORDER = (
    "1", "2", "1+1", "3", "4", "1+2", "2x2", "5", "bowtie", "6",
    "1+1+1", "1+3", "N", "X", "P", "d2x2", "7",
)


_CENSUS_NAMES = {NAMED_POSETS[name].canonical_key: name for name in CENSUS_ORDER}


def poset_display_name(poset: Poset) -> str:
    return _CENSUS_NAMES.get(poset.canonical_key) or poset.name or f"poset{poset.n}"


def all_posets(max_size: int) -> list[Poset]:
    """All nonisomorphic posets with 1..max_size elements.

    Grown one element at a time: when the new element's strict downset is
    picked among existing downsets the labels follow a linear extension, so
    every isomorphism class is reached; duplicates fall to canonical keys.
    """
    return [p for layer in _poset_layers(max_size) for p in layer]


def posets_with_at_most_upsets(cap: int) -> list[Poset]:
    """All nonisomorphic posets with at most ``cap`` upsets.

    The same labelled representatives, names and order as ``all_posets``
    restricted to those posets.  Each element is added as a maximal one,
    which never lowers the upset count, so a candidate over the cap is
    dropped together with everything that would grow from it.  A poset on
    k points has at least k + 1 upsets, which bounds the growth.
    """
    return [p for layer in _poset_layers(cap - 1, cap) for p in layer]


def _poset_layers(max_size: int, cap: int | None = None):
    """The posets of ``all_posets(max_size)`` (with at most ``cap`` upsets),
    in its order and named, one list per size; each size is grown only
    when the one before it has been taken."""
    layer = [Poset.chain(1)]
    for n in range(1, max_size + 1):
        if n > 1:
            layer = _grow_layer(layer, n, cap)
        for p in layer:
            p.name = poset_display_name(p)
        yield layer


def _grow_layer(smaller_posets: list[Poset], n: int, cap: int | None) -> list[Poset]:
    """The posets on n points, in canonical-key order, grown from those on
    n - 1 points by a new maximal element."""
    seen = {}
    for smaller in smaller_posets:
        # the up-sets of the dual; inserted in increasing order, which fixes
        # the set's iteration order and so the representative kept per key
        downsets = set(sorted(Poset(smaller.down)._grow_upsets()))
        for dset in downsets:
            up = [smaller.up[i] | (1 << (n - 1) if (dset >> i) & 1 else 0)
                  for i in range(n - 1)]
            up.append(1 << (n - 1))
            cand = Poset(tuple(up))
            if cap is None or cand.count_upsets(cap) <= cap:
                seen.setdefault(cand.canonical_key, cand)
    return [seen[k] for k in sorted(seen)]
