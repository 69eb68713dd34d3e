"""Censuses: posets, frames over them, and algebra counts by cardinality.

An algebra of cardinality n arises exactly from a frame whose poset has n
upsets, and only self-dual posets carry frames at all (an order reversing
tilde must exist).  Counting algebras of size n therefore sums the frame
counts over the self-dual posets with exactly n upsets; the empty poset
contributes the one-element algebra.

Those posets are grown one maximal element at a time, and a candidate
with more than n upsets is dropped with everything that would grow from
it (``posets_with_at_most_upsets``), so the census never builds the full
list of posets on n - 1 points.  ``census_table`` grows them once for its
largest size, searches each poset once for both signatures, and sums the
per-poset counts by upset count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import FinAlgebra
from .errors import PreconditionError
from .frame import complex_algebra, dual_frame
from .iso import isomorphisms
from .order import (
    CENSUS_ORDER,
    NAMED_POSETS,
    Poset,
    all_posets,
    posets_with_at_most_upsets,
)
from .search import Budget, enumerate_frames, search_frames

MAX_POSET_SIZE = 7


@dataclass
class PosetShape:
    poset: Poset
    name: str
    self_dual: bool
    upset_count: int


def enumerate_posets(max_size: int) -> list[PosetShape]:
    """All nonisomorphic posets of size <= max_size, flagged self-dual."""
    if max_size > MAX_POSET_SIZE:
        raise PreconditionError(
            f"poset census capped at {MAX_POSET_SIZE} elements"
        )
    out = []
    for p in all_posets(max_size):
        out.append(
            PosetShape(
                poset=p,
                name=p.name,
                self_dual=p.is_self_dual,
                upset_count=len(p.upsets),
            )
        )
    return out


def _check_census_size(n: int):
    # a poset of size k has at least k+1 upsets, so cardinality n needs
    # posets up to size n-1 and the census stops there
    if n > MAX_POSET_SIZE + 1:
        raise PreconditionError(f"cardinality {n} needs posets beyond the supported census")


def _self_dual_by_upset_count(max_n: int) -> dict[int, list[Poset]]:
    """Self-dual posets with n upsets, for every n in 1..max_n, grown once."""
    if max_n < 1:
        raise PreconditionError("cardinality must be at least 1")
    _check_census_size(max_n)
    buckets = {n: [] for n in range(1, max_n + 1)}
    buckets[1].append(Poset(()))
    for poset in posets_with_at_most_upsets(max_n):
        if poset.is_self_dual:
            buckets[len(poset.upsets)].append(poset)
    return buckets


def posets_with_upset_count(n: int) -> list[Poset]:
    """Self-dual posets whose upset lattice has exactly n elements."""
    return _self_dual_by_upset_count(n).get(n, [])


@lru_cache(maxsize=None)
def _census_posets(n: int) -> dict:
    """The census representatives with n upsets, by canonical key."""
    return {p.canonical_key: p for p in posets_with_upset_count(n)}


def census_key(alg: FinAlgebra) -> tuple:
    """(poset key, encoding) of the algebra's census class: the census frame's
    own ``Frame.encoding()``, the least of the dual frame's on the census poset."""
    frame = dual_frame(alg)
    _check_census_size(alg.size)
    poset = _census_posets(alg.size).get(frame.poset.canonical_key)
    if poset is None:
        raise PreconditionError(f"no census poset of {alg.size} upsets is the dual poset")
    g = isomorphisms(frame.poset.structure, poset.structure, first=True)[0]
    return poset.canonical_key, min(frame.relabel([h[x] for x in g]).encoding()
                                    for h in poset.automorphisms)


def count_frames(poset: Poset, budget: Budget | None = None,
                 jobs: int = 1) -> tuple[int, int]:
    """(DInFL frames, DqRA frames) over the poset, from one search."""
    results = search_frames(poset, ("dinfl", "dqra"), budget=budget, jobs=jobs)
    return results["dinfl"].count, results["dqra"].count


def _started(budget: Budget | None) -> Budget | None:
    """The budget with its deadline fixed now, so that the one deadline
    covers every poset a census searches."""
    return None if budget is None else budget.start()


def _sum_counts(posets, counts: dict, budget, jobs) -> tuple[int, int]:
    """Total frame counts over the posets, searching only those whose
    canonical key ``counts`` does not hold yet."""
    di = dq = 0
    for poset in posets:
        key = poset.canonical_key
        if key not in counts:
            counts[key] = count_frames(poset, budget=budget, jobs=jobs)
        a, b = counts[key]
        di += a
        dq += b
    return di, dq


def count_algebras(n: int, budget: Budget | None = None,
                   jobs: int = 1) -> tuple[int, int]:
    """(number of DInFL-algebras, number of DqRAs) of cardinality n."""
    return _sum_counts(posets_with_upset_count(n), {}, _started(budget), jobs)


def enumerate_algebras(n: int, signature: str = "dqra", budget: Budget | None = None,
                       jobs: int = 1):
    """All algebras of cardinality n up to isomorphism, as complex algebras
    of the enumerated frames; deterministic order."""
    out = []
    budget = _started(budget)
    for poset in posets_with_upset_count(n):
        result = enumerate_frames(poset, signature, budget=budget, jobs=jobs)
        for frame in result.frames:
            out.append(complex_algebra(frame))
    return out


def census_table(max_size: int, budget: Budget | None = None,
                 jobs: int = 1) -> dict:
    """Frame counts for the named census posets plus algebra counts by size.

    Each poset is searched once: the algebra counts reuse the per-poset
    counts, and any poset with at most ``max_size`` upsets that is not a
    named census poset is searched when it is met.
    """
    budget = _started(budget)
    buckets = _self_dual_by_upset_count(max_size)
    counts: dict = {}
    per_poset = {}
    for name in CENSUS_ORDER:
        poset = NAMED_POSETS[name]
        if poset.n > max_size:
            continue
        per_poset[name] = _sum_counts([poset], counts, budget, jobs)
    by_size = {n: _sum_counts(buckets[n], counts, budget, jobs)
               for n in range(1, max_size + 1)}
    return {"per_poset": per_poset, "by_size": by_size}
