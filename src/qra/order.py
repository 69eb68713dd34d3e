"""Finite posets on bitmask-encoded carriers.

Elements are ``0..n-1`` and subsets are Python ints used as bitmasks, so
upset/downset manipulation is single word operations for every carrier
size this package meets in practice.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .errors import StructuralError
from .iso import Structure, isomorphisms


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


def row_masks(matrix) -> tuple[int, ...]:
    """Row i of a 2-D boolean array as the bitmask of its true columns.

    Each row is packed into bytes with bit j of the mask at column j, so
    the masks are plain ints of any width.
    """
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def _covers(up, down) -> tuple[int, ...]:
    """covers[i] = bitmask of the elements covering i, for the order with
    these up-set and down-set masks; swapping them gives lower covers."""
    out = []
    for i, mask in enumerate(up):
        strict = mask ^ (1 << i)
        out.append(mask_of(j for j in bits(strict) if (strict & down[j]) == 1 << j))
    return tuple(out)


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
        poset = cls(row_masks(leq), name=name)
        poset.__dict__["down"] = row_masks(leq.T)  # fills the cached property
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
    def covers(self) -> tuple[int, ...]:
        """covers[i] = bitmask of elements covering i."""
        return _covers(self.up, self.down)

    @cached_property
    def lower_covers(self) -> tuple[int, ...]:
        """lower_covers[i] = bitmask of elements covered by i."""
        return _covers(self.down, self.up)

    @cached_property
    def lattice(self) -> LatticeTables:
        """Join and meet tables, bottom and top, filled in one pass over the
        pairs; -1 marks a missing one.  The tables are read-only."""
        n, up, down = self.n, self.up, self.down
        uppers = {m: i for i, m in enumerate(up)}
        lowers = {m: i for i, m in enumerate(down)}
        join = np.empty((n, n), dtype=np.int32)
        meet = np.empty((n, n), dtype=np.int32)
        for i in range(n):
            join[i, i:] = join[i:, i] = [uppers.get(up[i] & u, -1) for u in up[i:]]
            meet[i, i:] = meet[i:, i] = [lowers.get(down[i] & d, -1) for d in down[i:]]
        join.setflags(write=False)
        meet.setflags(write=False)
        return LatticeTables(join, meet, uppers.get(self.carrier, -1),
                             lowers.get(self.carrier, -1))

    def _profile(self) -> tuple:
        """Iterated degree profile, an isomorphism invariant per element."""
        colors = [(popcount(self.up[i]), popcount(self.down[i])) for i in range(self.n)]
        for _ in range(self.n):
            palette = {c: k for k, c in enumerate(sorted(set(colors)))}
            coded = [palette[c] for c in colors]
            colors = [
                (
                    coded[i],
                    tuple(sorted(coded[j] for j in bits(self.up[i]))),
                    tuple(sorted(coded[j] for j in bits(self.down[i]))),
                )
                for i in range(self.n)
            ]
        return tuple(colors)

    def _relation_key(self, perm) -> int:
        """Encode the relation under the relabeling i -> perm[i]."""
        key = 0
        n = self.n
        for i in range(n):
            for j in bits(self.up[i]):
                key |= 1 << (perm[i] * n + perm[j])
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
        order = sorted(range(self.n), key=lambda i: profile[i])
        best = None
        # Only profile-preserving relabelings can reach the minimum.
        groups = []
        start = 0
        for i in range(1, self.n + 1):
            if i == self.n or profile[order[i]] != profile[order[start]]:
                groups.append(order[start:i])
                start = i
        for pieces in _product_permutations(groups):
            perm = [0] * self.n
            pos = 0
            for g, p in zip(groups, pieces):
                for src, dst_slot in zip(p, range(pos, pos + len(g))):
                    perm[src] = dst_slot
                pos += len(g)
            key = self._relation_key(perm)
            if best is None or key < best:
                best = key
        return (self.n, best)

    def relabel(self, perm) -> "Poset":
        """Apply i -> perm[i] to the carrier."""
        n = self.n
        up = [0] * n
        for i in range(n):
            for j in bits(self.up[i]):
                up[perm[i]] |= 1 << perm[j]
        return Poset(tuple(up), name=self.name)

    def __eq__(self, other):
        return isinstance(other, Poset) and self.up == other.up

    def __hash__(self):
        return hash(self.up)

    def __repr__(self):
        label = self.name or f"poset{self.n}"
        return f"Poset({label}, n={self.n})"


def _product_permutations(groups):
    if not groups:
        yield ()
        return
    head, rest = groups[0], groups[1:]
    for p in permutations(head):
        for tail in _product_permutations(rest):
            yield (p,) + tail


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


def poset_display_name(poset: Poset) -> str:
    for name in CENSUS_ORDER:
        cand = NAMED_POSETS[name]
        if cand.n == poset.n and cand.canonical_key == poset.canonical_key:
            return name
    return poset.name or f"poset{poset.n}"


def all_posets(max_size: int) -> list[Poset]:
    """All nonisomorphic posets with 1..max_size elements.

    Grown one element at a time: when the new element's strict downset is
    picked among existing downsets the labels follow a linear extension, so
    every isomorphism class is reached; duplicates fall to canonical keys.
    """
    return list(iter_posets(max_size))


def iter_posets(max_size: int):
    """The posets of ``all_posets(max_size)``, in its order, each size
    grown only once the smaller ones have all been taken."""
    return _grow_posets(max_size)


def posets_with_at_most_upsets(cap: int) -> list[Poset]:
    """All nonisomorphic posets with at most ``cap`` upsets.

    The same labelled representatives, names and order as ``all_posets``
    restricted to those posets.  Each element is added as a maximal one,
    which never lowers the upset count, so a candidate over the cap is
    dropped together with everything that would grow from it.  A poset on
    k points has at least k + 1 upsets, which bounds the growth.
    """
    return list(_grow_posets(cap - 1, cap))


def _grow_posets(max_size: int, cap: int | None = None):
    layer = [Poset.chain(1)]
    for n in range(1, max_size + 1):
        if n > 1:
            layer = _grow_layer(layer, n, cap)
        for p in layer:
            p.name = poset_display_name(p)
        yield from layer


def _grow_layer(smaller_posets: list[Poset], n: int, cap: int | None) -> list[Poset]:
    """The posets on n points, in canonical-key order, grown from those on
    n - 1 points by a new maximal element."""
    seen = {}
    for smaller in smaller_posets:
        downsets = {0}
        for m in range(1 << (n - 1)):
            if all(smaller.down[i] & ~m == 0 for i in bits(m)):
                downsets.add(m)
        for dset in downsets:
            up = [smaller.up[i] | (1 << (n - 1) if (dset >> i) & 1 else 0)
                  for i in range(n - 1)]
            up.append(1 << (n - 1))
            cand = Poset(tuple(up))
            if cap is None or cand.count_upsets(cap) <= cap:
                seen.setdefault(cand.canonical_key, cand)
    return [seen[k] for k in sorted(seen)]
