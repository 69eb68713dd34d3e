"""Finite posets on bitmask-encoded carriers.

Elements are ``0..n-1`` and subsets are Python ints used as bitmasks, so
upset/downset manipulation is single word operations for every carrier
size this package meets in practice.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations

from .errors import StructuralError


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
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise StructuralError("order matrix is not square")
        up = tuple(mask_of(j for j in range(n) if matrix[i][j]) for i in range(n))
        poset = cls(up, name=name)
        if check:
            poset.check_partial_order()
        return poset

    @classmethod
    def chain(cls, n: int, name=None) -> "Poset":
        return cls(tuple(((1 << n) - 1) ^ ((1 << i) - 1) for i in range(n)), name=name)

    @classmethod
    def antichain(cls, n: int, name=None) -> "Poset":
        return cls(tuple(1 << i for i in range(n)), name=name)

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
        out = 0
        for i in bits(mask):
            out |= self.up[i]
        return out == mask

    def upset_closure(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= self.up[i]
        return out

    @cached_property
    def upsets(self) -> tuple[int, ...]:
        """All upward closed subsets, sorted by (size, mask)."""
        found = []
        # Elements in an order that lists everything above e before e itself,
        # so inclusion of e only needs a containment test on the prefix.
        order = sorted(range(self.n), key=lambda i: popcount(self.up[i]))
        strict_up = [self.up[i] ^ (1 << i) for i in range(self.n)]

        def grow(pos, mask):
            if pos == len(order):
                found.append(mask)
                return
            e = order[pos]
            grow(pos + 1, mask)
            if strict_up[e] & ~mask == 0:
                grow(pos + 1, mask | (1 << e))

        grow(0, 0)
        found.sort(key=lambda m: (popcount(m), m))
        return tuple(found)

    def count_upsets(self, cap: int | None = None) -> int:
        """Number of upsets, abandoning the count once it exceeds ``cap``."""
        order = sorted(range(self.n), key=lambda i: popcount(self.up[i]))
        strict_up = [self.up[i] ^ (1 << i) for i in range(self.n)]
        count = 0

        def grow(pos, mask):
            nonlocal count
            if cap is not None and count > cap:
                return
            if pos == len(order):
                count += 1
                return
            e = order[pos]
            grow(pos + 1, mask)
            if strict_up[e] & ~mask == 0:
                grow(pos + 1, mask | (1 << e))

        grow(0, 0)
        return count

    @cached_property
    def covers(self) -> tuple[int, ...]:
        """covers[i] = bitmask of elements covering i."""
        out = []
        for i in range(self.n):
            strict = self.up[i] ^ (1 << i)
            cov = 0
            for j in bits(strict):
                if (strict & self.down[j]) == (1 << j):
                    cov |= 1 << j
            out.append(cov)
        return tuple(out)

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

    def _search_maps(self, other: "Poset", reverse: bool, find_all: bool):
        """Bijections f with i<=j iff f(i) <=' f(j) (or >=' when reverse)."""
        if self.n != other.n:
            return []
        n = self.n
        mine = self._profile()
        theirs = other._profile() if not reverse else other.dual()._profile()
        if sorted(mine) != sorted(theirs):
            return []
        candidates = [
            [j for j in range(n) if theirs[j] == mine[i]] for i in range(n)
        ]
        target_up = other.up if not reverse else other.down
        found = []
        image = [-1] * n
        used = [False] * n

        def place(i):
            if i == n:
                found.append(tuple(image))
                return not find_all
            for j in candidates[i]:
                if used[j]:
                    continue
                ok = True
                for k in range(i):
                    fwd = (self.up[k] >> i) & 1
                    bwd = (self.up[i] >> k) & 1
                    if fwd != (target_up[image[k]] >> j) & 1 or bwd != (target_up[j] >> image[k]) & 1:
                        ok = False
                        break
                if ok:
                    image[i] = j
                    used[j] = True
                    if place(i + 1):
                        return True
                    used[j] = False
            return False

        place(0)
        return found

    def isomorphism(self, other: "Poset"):
        maps = self._search_maps(other, reverse=False, find_all=False)
        return maps[0] if maps else None

    @cached_property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._search_maps(self, reverse=False, find_all=True))

    @cached_property
    def order_reversing_bijections(self) -> tuple[tuple[int, ...], ...]:
        """All bijections f with i <= j iff f(j) <= f(i)."""
        return tuple(self._search_maps(self, reverse=True, find_all=True))

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

    def from_covers(n, cover_pairs, name):
        up = [1 << i for i in range(n)]
        changed = True
        while changed:
            changed = False
            for lo, hi in cover_pairs:
                new = up[lo] | up[hi]
                if new != up[lo]:
                    up[lo] = new
                    changed = True
        return Poset(tuple(up), name=name)

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
        "2x2": from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)], "2x2"),
        "bowtie": from_covers(4, [(0, 2), (0, 3), (1, 2), (1, 3)], "bowtie"),
        "N": from_covers(4, [(0, 2), (1, 2), (1, 3)], "N"),
        "X": from_covers(5, [(0, 2), (1, 2), (2, 3), (2, 4)], "X"),
        "P": from_covers(5, [(0, 1), (0, 2), (1, 3), (3, 4), (2, 4)], "P"),
        "d2x2": from_covers(6, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], "d2x2"),
    }
    named["1+2"].name = "1+2"
    named["1+3"].name = "1+3"
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
    return _grow_posets(max_size)


def posets_with_at_most_upsets(cap: int) -> list[Poset]:
    """All nonisomorphic posets with at most ``cap`` upsets.

    The same labelled representatives, names and order as ``all_posets``
    restricted to those posets.  Each element is added as a maximal one,
    which never lowers the upset count, so a candidate over the cap is
    dropped together with everything that would grow from it.  A poset on
    k points has at least k + 1 upsets, which bounds the growth.
    """
    return _grow_posets(cap - 1, cap)


def _grow_posets(max_size: int, cap: int | None = None) -> list[Poset]:
    by_size: dict[int, list[Poset]] = {1: [Poset.chain(1)]}
    for n in range(2, max_size + 1):
        seen = {}
        for smaller in by_size[n - 1]:
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
        by_size[n] = [seen[k] for k in sorted(seen)]
    out = []
    for n in range(1, max_size + 1):
        out.extend(by_size.get(n, []))
    for p in out:
        p.name = poset_display_name(p)
    return out
