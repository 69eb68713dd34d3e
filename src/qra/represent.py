"""Algebras of binary relations over partially ordered equivalence classes.

A base is a finite poset (X, <=) with an equivalence relation E containing
the order, an order automorphism alpha, and optionally a self-inverse dual
order automorphism beta (both with graphs inside E, and beta equal to its
alpha-conjugate).  The pairs in E are ordered by the twisted rule
(u,v) <= (x,y) iff x <= u and v <= y; the upsets of that order form a
distributive lattice closed under relational composition, with unit <=,
linear negations built from converse-of-complement and alpha, and a De
Morgan negation built from beta.  This algebra Dq(E) is the complex
algebra of a frame on the pairs of E (``dq_frame``), built by the same
upset-algebra construction as every other complex algebra.  Embedding
an abstract algebra into such a relation algebra is what representability
means here; the search walks bases smallest first and emits
self-contained certificates.  It keeps, across calls, the bases it lists
for each point count and each base's Dq(E) in one least-recently-used
memo bounded by ``BLOCK_CELLS`` cells: a base costs one cell and a Dq(E)
the square of its carrier size.  The search flags filter that one walk
of the bases.  The verifier re-checks a certificate from
scratch without building Dq(E): it reads each embedded element's relation
on E and checks the operations as union, intersection, composition and
the negations on relations, and it checks the laws of Dq(E) on its frame
of at most |E| points, since by the duality the complex algebra of a frame
that satisfies the DqRA (DInFL) frame laws is a DqRA (DInFL-algebra).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .algebra import FinAlgebra
from .errors import BudgetExhausted, PreconditionError, SignatureError, StructuralError
from .frame import Frame, upset_algebra, validate_frame
from .iso import set_image
from .morphism import _hom_search
from .order import BLOCK_CELLS, Poset, _poset_layers, bits, mask_of

DEFAULT_UPSET_CAP = 1 << 16
SEARCH_UPSET_CAP = 4096  # the search skips bases whose Dq(E) is larger


@dataclass(frozen=True)
class RepBase:
    """A poset with an enclosing equivalence relation and automorphisms.

    Frozen: the search keys the Dq(E) it keeps across calls by a base's
    value."""

    poset: Poset
    equiv: tuple[int, ...]  # equiv[i] = bitmask of the E-class of i
    alpha: tuple[int, ...]
    beta: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(int(v) for v in self.alpha))
        if self.beta is not None:
            object.__setattr__(self, "beta", tuple(int(v) for v in self.beta))
        object.__setattr__(self, "equiv", tuple(int(v) for v in self.equiv))
        self.check()

    @property
    def points(self) -> int:
        return self.poset.n

    def check(self):
        poset = self.poset
        n = poset.n
        poset.check_partial_order()
        eq = self.equiv
        if len(eq) != n:
            raise StructuralError("equivalence table has wrong length")
        for i in range(n):
            if not (eq[i] >> i) & 1:
                raise StructuralError("equivalence not reflexive")
            for j in bits(eq[i]):
                if eq[j] != eq[i]:
                    raise StructuralError("equivalence classes inconsistent")
            if poset.up[i] & ~eq[i]:
                raise StructuralError("order not contained in the equivalence")
        alpha = self.alpha
        if sorted(alpha) != list(range(n)):
            raise StructuralError("alpha is not a permutation")
        for i in range(n):
            if not (eq[i] >> alpha[i]) & 1:
                raise StructuralError("alpha leaves an equivalence class")
            for j in range(n):
                if poset.leq(i, j) != poset.leq(alpha[i], alpha[j]):
                    raise StructuralError("alpha is not an order automorphism")
        if self.beta is not None:
            beta = self.beta
            if sorted(beta) != list(range(n)):
                raise StructuralError("beta is not a permutation")
            for i in range(n):
                if beta[beta[i]] != i:
                    raise StructuralError("beta is not self-inverse")
                if not (eq[i] >> beta[i]) & 1:
                    raise StructuralError("beta leaves an equivalence class")
                for j in range(n):
                    if poset.leq(i, j) != poset.leq(beta[j], beta[i]):
                        raise StructuralError("beta is not a dual order automorphism")
                if alpha[beta[alpha[i]]] != beta[i]:
                    raise StructuralError("beta does not equal its alpha conjugate")

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The pairs of E, by first point and then second."""
        return tuple((x, y) for x in range(self.poset.n) for y in bits(self.equiv[x]))

    @cached_property
    def pair_index(self) -> dict[tuple[int, int], int]:
        return {p: i for i, p in enumerate(self.pairs)}


def one_point_base() -> RepBase:
    return RepBase(Poset.chain(1), (1,), (0,), (0,))


def twist_order(base: RepBase):
    """The pair order (u,v) <= (x,y) iff x <= u and v <= y, as a Poset."""
    pairs, idx = base.pairs, base.pair_index
    down, up = base.poset.down, base.poset.up
    return list(pairs), Poset(tuple(
        mask_of(idx[(x, y)] for x in bits(down[u]) for y in bits(up[v])) for (u, v) in pairs
    ))


class _Relations:
    """Relations on E as bitmasks over ``base.pairs``."""

    def __init__(self, base: RepBase):
        self.base = base
        self.index = base.pair_index
        self.everything = (1 << len(base.pairs)) - 1
        self.flip = [self.index[(y, x)] for (x, y) in base.pairs]
        self.leq = self.of((x, y) for x in range(base.points)
                           for y in bits(base.poset.up[x]))

    def of(self, pairs) -> int:
        return mask_of(self.index[p] for p in pairs)

    def compose(self, r: int, s: int) -> int:
        pairs, idx = self.base.pairs, self.index
        out = 0
        for i in bits(r):
            x, z = pairs[i]
            for j in bits(s):
                z2, y = pairs[j]
                if z2 == z and (x, y) in idx:
                    out |= 1 << idx[(x, y)]
        return out

    def converse(self, r: int) -> int:
        return set_image(r, self.flip)

    def complement(self, r: int) -> int:
        return self.everything & ~r

    def graph(self, perm) -> int:
        return self.of((x, perm[x]) for x in range(self.base.points))


def dq_frame(base: RepBase) -> Frame:
    """The frame whose complex algebra is Dq(E): the pairs of E in the
    twisted order, the order relation as identity set, (x,z) composed with
    (z',y) the principal upset of (x,y) if z <= z' (else empty), and point
    maps tilde (x,y) -> (y, alpha x), minus (x,y) -> (alpha^-1 y, x) and
    neg (x,y) -> (beta alpha x, beta y)."""
    pairs, tw = twist_order(base)
    idx = base.pair_index
    leq = base.poset.leq
    alpha, beta = base.alpha, base.beta
    alpha_inv = {a: x for x, a in enumerate(alpha)}
    identity = mask_of(i for i, (x, y) in enumerate(pairs) if leq(x, y))
    comp = [[tw.up[idx[(x, y)]] if leq(z, z2) else 0 for (z2, y) in pairs]
            for (x, z) in pairs]
    tilde = [idx[(y, alpha[x])] for (x, y) in pairs]
    minus = [idx[(alpha_inv[y], x)] for (x, y) in pairs]
    neg = None if beta is None else [idx[(beta[alpha[x]], beta[y])] for (x, y) in pairs]
    return Frame(tw, identity, comp, tilde, minus, neg=neg)


class DqAlgebra:
    """The relation algebra Dq(E) of a base: its frame ``dq_frame(base)``,
    its carrier as the twisted-order up-sets in carrier order, each a pair
    mask (``relation_masks``), and the algebra itself, built when first
    asked for.  More than ``cap`` up-sets raise ``PreconditionError``: the
    growth of the up-sets stops past ``cap``, before any table is built."""

    def __init__(self, base: RepBase, cap: int = DEFAULT_UPSET_CAP):
        self.base = base
        self.frame = dq_frame(base)
        ups = self.frame.poset.upsets_within(cap)
        if ups is None:
            raise PreconditionError(
                f"carrier would have more than {cap} elements (at least {cap + 1})"
            )
        self.relation_masks: tuple[int, ...] = ups

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return self.base.pairs

    @cached_property
    def algebra(self) -> FinAlgebra:
        return upset_algebra(self.frame, self.relation_masks)


def build_dq(base: RepBase, cap: int = DEFAULT_UPSET_CAP) -> DqAlgebra:
    """The algebra of twisted-order upsets of E under relation composition:
    the complex algebra of ``dq_frame(base)``, built here; more than
    ``cap`` up-sets raise ``PreconditionError``."""
    dq = DqAlgebra(base, cap)
    dq.algebra  # built here rather than on first use
    return dq


def dq_zero_relation(dq: DqAlgebra) -> int:
    """The relation alpha ; converse-of-complement-of-leq, as a pair mask."""
    rel = _Relations(dq.base)
    return rel.compose(rel.graph(dq.base.alpha), rel.converse(rel.complement(rel.leq)))


def check_complement_shift(base: RepBase, gamma, rel_mask: int):
    """For a bijection graph gamma, composing commutes with complement:
    (gamma;R)^c = gamma;R^c and (R;gamma)^c = R^c;gamma."""
    rel = _Relations(base)
    compose, complement = rel.compose, rel.complement
    g = rel.graph(gamma)
    gc = rel.converse(g)
    diagonal = rel.graph(range(base.points))
    if compose(gc, g) != diagonal or compose(g, gc) != diagonal:
        raise PreconditionError("gamma is not a bijection graph on the carrier")
    left = complement(compose(g, rel_mask)) == compose(g, complement(rel_mask))
    right = complement(compose(rel_mask, g)) == compose(complement(rel_mask), g)
    return left, right


def embed_search(a: FinAlgebra, b: FinAlgebra, budget: int = 2_000_000):
    """An injective homomorphism a -> b, or None after exhausting the space.

    The first injective map of the homomorphism search behind
    ``enumerate_homs``; ``budget`` caps its nodes.  Each leaf is rejected
    by an early-exit boolean check, and only the map returned is validated
    in full.
    """
    if (a.neg is None) != (b.neg is None):
        raise PreconditionError("signatures differ")
    if a.size > b.size:
        return None
    return next(_hom_search(a, b, budget, injective=True), None)


def no_finite_rep_filter(alg: FinAlgebra):
    """An element a with zero < a < one and a.a <= zero, if any.

    Such an element rules out any representation over a finite base poset.
    Strictness is proper order on both sides.
    """
    zero, one = alg.zero, alg.one
    for a in range(alg.size):
        if a in (zero, one):
            continue
        if not (alg.leq[zero, a] and alg.leq[a, one]):
            continue
        if alg.leq[alg.product[a, a], zero]:
            return a
    return None


# -- base iteration and the search driver ------------------------------------


def _partitions(blocks: list[int]):
    """Every way to merge the disjoint masks into unions, each once."""
    if not blocks:
        yield []
        return
    head, rest = blocks[0], blocks[1:]
    for part in _partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [head | part[k]] + part[k + 1:]
        yield [head] + part


def _equivalences_containing(poset: Poset):
    """Equivalence relations over the poset's comparability components,
    finest first, then by their tables."""
    components = []
    for i in range(poset.n):  # merge those that meet i's up- and down-set
        linked = poset.up[i] | poset.down[i]
        merged = linked | sum(c for c in components if c & linked)
        components = [c for c in components if not c & linked] + [merged]
    options = []
    for part in _partitions(components):
        eq = [0] * poset.n
        for cls in part:
            for i in bits(cls):
                eq[i] = cls
        options.append((-len(part), tuple(eq)))
    options.sort()
    return [eq for _, eq in options]


def _order_automorphisms(poset: Poset, equiv):
    return [
        g
        for g in poset.automorphisms
        if all((equiv[i] >> g[i]) & 1 for i in range(poset.n))
    ]


def _beta_candidates(poset: Poset, equiv, alpha):
    out = []
    for g in poset.order_reversing_involutions:
        if any(not (equiv[i] >> g[i]) & 1 for i in range(poset.n)):
            continue
        if any(alpha[g[alpha[i]]] != g[i] for i in range(poset.n)):
            continue
        out.append(tuple(g))
    return out


@dataclass
class RepresentationCertificate:
    base: RepBase
    embedding: tuple[int, ...]
    carrier_size: int


@dataclass
class ExhaustionReport:
    max_points: int
    bases_tried: int
    bases_skipped_over_cap: int
    filter_witness: int | None = None
    note: str = ""
    bases_undecided: int = 0  # bases whose embedding search ran out of budget


@dataclass
class SearchOptions:
    full_e_only: bool = False
    alpha_id_only: bool = False
    embed_budget: int = 2_000_000

    def __post_init__(self):
        if self.embed_budget < 1:
            raise PreconditionError(
                f"embed_budget must be at least 1, not {self.embed_budget}")


def _poset_bases(poset: Poset, need_beta: bool):
    """The bases on one poset, in the order of ``iterate_bases``."""
    if need_beta and not poset.is_self_dual:
        return
    for equiv in _equivalences_containing(poset):
        for alpha in _order_automorphisms(poset, equiv):
            if need_beta:
                for beta in _beta_candidates(poset, equiv, alpha):
                    yield RepBase(poset, equiv, alpha, beta)
            else:
                yield RepBase(poset, equiv, alpha, None)


def iterate_bases(max_points: int, need_beta: bool, options: SearchOptions):
    """Bases ordered by point count, then canonical poset order; each base
    once (``_poset_layers`` lists every poset on 1..max_points points).

    One walk serves every option: ``full_e_only`` keeps the bases whose E
    is the full relation and ``alpha_id_only`` those whose alpha is the
    identity, in the walk's order.  The bases of each point count are
    listed when a walk reaches them and finds them not kept, and kept in
    the search memo, ``_MEMO``, under its one rule."""
    bases = _MEMO.bases(max_points, need_beta)
    if options.full_e_only:
        bases = (b for b in bases if b.equiv == (b.poset.carrier,) * b.points)
    if options.alpha_id_only:
        bases = (b for b in bases if b.alpha == tuple(range(b.points)))
    return bases


class _Memo:
    """What ``representation_search`` keeps across calls, in one store
    ordered least recently used first: each base's Dq(E), or None when it
    has more than ``SEARCH_UPSET_CAP`` up-sets, and the bases that
    ``iterate_bases`` lists for each point count, keyed by the count and
    ``need_beta``.  An entry costs cells: a Dq(E) the square of its carrier
    size, its algebra built or not, None one cell, and a point count's
    bases one cell each.  An entry that costs more than ``BLOCK_CELLS`` is
    built for the call that asks and not kept; a new entry pushes out the
    least recently used ones until the store fits in ``BLOCK_CELLS``.  One
    lock guards every lookup and fill, so searches in several threads
    share it safely; no walk holds it while it hands out a base."""

    def __init__(self):
        self.lock = threading.Lock()
        self.clear()

    def clear(self):
        with self.lock:
            self.entries: OrderedDict[RepBase | tuple, object] = OrderedDict()
            self.cells = 0

    @staticmethod
    def cost(entry) -> int:
        if isinstance(entry, tuple):
            return len(entry)
        return 1 if entry is None else len(entry.relation_masks) ** 2

    def _keep(self, key, entry):
        """Keep a new entry as the most recently used, if it fits the bound,
        and drop the least recently used ones until the store fits."""
        cells = self.cost(entry)
        if cells <= BLOCK_CELLS:
            self.entries[key] = entry
            self.cells += cells
            while self.cells > BLOCK_CELLS:
                self.cells -= self.cost(self.entries.popitem(last=False)[1])
        return entry

    def target(self, base: RepBase) -> DqAlgebra | None:
        with self.lock:
            if base in self.entries:
                self.entries.move_to_end(base)
                return self.entries[base]
            try:
                found = DqAlgebra(base, SEARCH_UPSET_CAP)
            except PreconditionError:
                found = None
            return self._keep(base, found)

    def bases(self, max_points: int, need_beta: bool):
        """The walk of ``iterate_bases``: each point count from its kept
        bases, or listed under the lock when they are not kept; one
        with more than ``BLOCK_CELLS`` bases is streamed past the first
        ``BLOCK_CELLS + 1``.  The posets are grown here, once per walk, only
        as far as the first point count that is not kept needs."""
        posets, grown = _poset_layers(max_points), 0
        for points in range(1, max_points + 1):
            key, rest = (points, need_beta), ()
            with self.lock:
                if key in self.entries:
                    self.entries.move_to_end(key)
                    layer = self.entries[key]
                else:
                    while grown < points:
                        layer_posets, grown = next(posets), grown + 1
                    rest = (base for poset in layer_posets
                            for base in _poset_bases(poset, need_beta))
                    layer = self._keep(key, tuple(islice(rest, BLOCK_CELLS + 1)))
            yield from layer
            yield from rest


_MEMO = _Memo()


def representation_search(alg: FinAlgebra, max_points: int,
                          options: SearchOptions | None = None):
    """Look for an embedding of alg into some Dq(E) on at most max_points.

    Returns a certificate on success, otherwise an exhaustion report.  The
    no-finite-representation filter short-circuits the search when an
    obstruction element exists.  A base whose embedding search runs out of
    ``options.embed_budget`` is counted as undecided and the search moves
    on to the next base.  The bases are walked lazily by ``iterate_bases``,
    one point count at a time, and the flags of ``options`` filter that
    walk; the bases of each point count, and each base's up-sets (up to
    ``SEARCH_UPSET_CAP``) and Dq(E), are built once and shared across
    calls in one least-recently-used memo of ``BLOCK_CELLS`` cells, at one
    cell per base and the square of its carrier size per Dq(E).
    Raises ``PreconditionError`` when ``max_points`` is below 1.
    """
    if max_points < 1:
        raise PreconditionError(f"max_points must be at least 1, not {max_points}")
    options = options or SearchOptions()
    need_beta = alg.neg is not None
    witness = no_finite_rep_filter(alg)
    if witness is not None:
        return ExhaustionReport(
            max_points=max_points, bases_tried=0, bases_skipped_over_cap=0,
            filter_witness=witness, note="no finite representation is possible",
        )
    tried = skipped = undecided = 0
    for base in iterate_bases(max_points, need_beta, options):
        target = _MEMO.target(base)
        if target is None:
            skipped += 1
            continue
        tried += 1
        if len(target.relation_masks) < alg.size:
            continue
        try:
            hom = embed_search(alg, target.algebra, budget=options.embed_budget)
        except BudgetExhausted:
            undecided += 1
            continue
        if hom is not None:
            return RepresentationCertificate(
                base=base, embedding=tuple(hom.map), carrier_size=target.algebra.size
            )
    return ExhaustionReport(
        max_points=max_points, bases_tried=tried, bases_skipped_over_cap=skipped,
        bases_undecided=undecided,
    )


def verify_certificate(alg: FinAlgebra, cert: RepresentationCertificate) -> bool:
    """Re-check a certificate from its base alone; shares no state with the
    search and builds no Dq(E).

    The base is checked again, and the frame of Dq(E) must satisfy the
    DqRA-frame laws (the DInFL-frame laws without beta): by the duality,
    the complex algebra of a valid frame is a valid algebra, so this
    stands for validating the up to 2^|E| elements of Dq(E) itself.  The
    carrier is numbered as the search numbers it, by the twisted-order
    up-sets, so ``carrier_size`` must be their count and the embedding an
    injective map into it.  Each element of ``alg`` is then read as its
    relation R on E, and the operations are checked on relations: every R
    satisfies <=;R;<= = R (closed under the twisted order), the unit is
    <=, join and meet are union and intersection, the product is
    composition, and
    ~R = {(x,y) in E : (alpha^-1 y, x) not in R},
    -R = {(x,y) in E : (y, alpha x) not in R} and
    neg R = {(x,y) in E : (beta alpha x, beta y) not in R}.

    A base over ``DEFAULT_UPSET_CAP`` up-sets raises ``PreconditionError``,
    and ``SignatureError`` is raised when ``alg`` has a neg and the base no
    beta or the other way round."""
    base = cert.base
    base.check()
    dq = DqAlgebra(base)
    relations = dq.relation_masks
    size = len(relations)
    emb = cert.embedding
    if cert.carrier_size != size:
        return False
    if len(emb) != alg.size or len(set(emb)) != alg.size:
        return False
    if any(not 0 <= v < size for v in emb):
        return False
    if not validate_frame(dq.frame).ok:
        return False
    if (alg.neg is None) != (base.beta is None):
        raise SignatureError("source and target have different signatures")
    meet, join, product = alg.meet_table, alg.join_table, alg.product
    rel = [relations[v] for v in emb]
    on_e = _Relations(base)
    compose, complement, leq = on_e.compose, on_e.complement, on_e.leq
    if any(compose(compose(leq, r), leq) != r for r in rel):
        return False
    if rel[alg.one] != leq:
        return False
    for a, ra in enumerate(rel):
        for b, rb in enumerate(rel):
            if (rel[join[a, b]] != ra | rb or rel[meet[a, b]] != ra & rb
                    or rel[product[a, b]] != compose(ra, rb)):
                return False
    alpha = on_e.graph(base.alpha)
    unaries = [
        (alg.tilde, lambda r: compose(complement(on_e.converse(r)), alpha)),
        (alg.minus, lambda r: compose(alpha, complement(on_e.converse(r)))),
    ]
    if base.beta is not None:
        beta = on_e.graph(base.beta)
        beta_alpha = on_e.graph([base.beta[v] for v in base.alpha])
        unaries.append((alg.neg, lambda r: compose(compose(beta_alpha, complement(r)), beta)))
    return all(rel[op[a]] == image(r) for op, image in unaries for a, r in enumerate(rel))
