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
self-contained certificates that an independent verifier re-checks from
scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FinAlgebra, validate_dinfl, validate_dqra
from .errors import BudgetExhausted, PreconditionError, StructuralError
from .frame import Frame, upset_algebra
from .morphism import AlgHom, _hom_search, validate_homomorphism
from .order import Poset, bits, iter_posets, mask_of

DEFAULT_UPSET_CAP = 1 << 16


@dataclass
class RepBase:
    """A poset with an enclosing equivalence relation and automorphisms."""

    poset: Poset
    equiv: tuple[int, ...]  # equiv[i] = bitmask of the E-class of i
    alpha: tuple[int, ...]
    beta: tuple[int, ...] | None = None

    def __post_init__(self):
        self.alpha = tuple(int(v) for v in self.alpha)
        if self.beta is not None:
            self.beta = tuple(int(v) for v in self.beta)
        self.equiv = tuple(int(v) for v in self.equiv)
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

    def pair_list(self) -> list[tuple[int, int]]:
        n = self.poset.n
        return [(x, y) for x in range(n) for y in range(n) if (self.equiv[x] >> y) & 1]


def one_point_base() -> RepBase:
    return RepBase(Poset.chain(1), (1,), (0,), (0,))


def twist_order(base: RepBase):
    """The pair order (u,v) <= (x,y) iff x <= u and v <= y, as a Poset."""
    pairs = base.pair_list()
    idx = {p: i for i, p in enumerate(pairs)}
    down, up = base.poset.down, base.poset.up
    return pairs, Poset(tuple(
        mask_of(idx[(x, y)] for x in bits(down[u]) for y in bits(up[v])) for (u, v) in pairs
    ))


@dataclass
class DqAlgebra:
    """A relation algebra Dq(E) with bookkeeping for certificates."""

    algebra: FinAlgebra
    base: RepBase
    pairs: list[tuple[int, int]]
    relation_masks: tuple[int, ...]  # carrier index -> pair bitmask


def _relation_tools(base: RepBase, pairs):
    n = base.points
    idx = {p: i for i, p in enumerate(pairs)}
    emask = mask_of(range(len(pairs)))

    def from_pairs(pp):
        return mask_of(idx[p] for p in pp)

    def compose(r, s):
        out = 0
        for i in bits(r):
            x, z = pairs[i]
            for j in bits(s):
                z2, y = pairs[j]
                if z2 == z and (x, y) in idx:
                    out |= 1 << idx[(x, y)]
        return out

    def converse(r):
        return mask_of(idx[(y, x)] for i in bits(r) for (x, y) in [pairs[i]])

    def complement(r):
        return emask & ~r

    def graph(perm):
        return from_pairs((x, perm[x]) for x in range(n))

    leq_rel = from_pairs(
        (x, y) for x in range(n) for y in bits(base.poset.up[x])
    )
    return idx, emask, from_pairs, compose, converse, complement, graph, leq_rel


def dq_frame(base: RepBase) -> Frame:
    """The frame whose complex algebra is Dq(E): the pairs of E in the
    twisted order, the order relation as identity set, (x,z) composed with
    (z',y) the principal upset of (x,y) if z <= z' (else empty), and point
    maps tilde (x,y) -> (y, alpha x), minus (x,y) -> (alpha^-1 y, x) and
    neg (x,y) -> (beta alpha x, beta y)."""
    pairs, tw = twist_order(base)
    idx = {p: i for i, p in enumerate(pairs)}
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


def build_dq(base: RepBase, cap: int = DEFAULT_UPSET_CAP, name=None) -> DqAlgebra:
    """The algebra of twisted-order upsets of E under relation composition:
    the complex algebra of ``dq_frame(base)``.

    The up-sets are grown once, and given up as soon as there are more
    than ``cap`` of them, before the carrier is materialized; a cap overrun
    raises.
    """
    frame = dq_frame(base)
    ups = frame.poset.upsets_within(cap)
    if ups is None:
        raise PreconditionError(
            f"carrier would have more than {cap} elements (at least {cap + 1})"
        )
    return DqAlgebra(algebra=upset_algebra(frame, ups, name), base=base,
                     pairs=base.pair_list(), relation_masks=ups)


def dq_zero_relation(dq: DqAlgebra) -> int:
    """The relation alpha ; converse-of-complement-of-leq, as a pair mask."""
    pairs = dq.pairs
    base = dq.base
    _, _, from_pairs, compose, converse, complement, graph, leq_rel = \
        _relation_tools(base, pairs)
    return compose(graph(base.alpha), converse(complement(leq_rel)))


def check_complement_shift(base: RepBase, gamma, rel_mask: int):
    """For a bijection graph gamma, composing commutes with complement:
    (gamma;R)^c = gamma;R^c and (R;gamma)^c = R^c;gamma."""
    pairs = base.pair_list()
    _, emask, from_pairs, compose, converse, complement, graph, _ = \
        _relation_tools(base, pairs)
    g = graph(gamma)
    gc = converse(g)
    if compose(gc, g) != graph(range(base.points)) or compose(g, gc) != graph(
        range(base.points)
    ):
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


def _equivalences_containing(poset: Poset):
    """Equivalence relations over the poset's comparability components,
    finest first."""
    n = poset.n
    comp = list(range(n))

    def find(i):
        while comp[i] != i:
            comp[i] = comp[comp[i]]
            i = comp[i]
        return i

    for i in range(n):
        for j in bits(poset.up[i]):
            comp[find(i)] = find(j)
    roots = sorted({find(i) for i in range(n)})
    members = {r: mask_of(i for i in range(n) if find(i) == r) for r in roots}

    def partitions(items):
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for part in partitions(rest):
            for k in range(len(part)):
                yield part[:k] + [[head] + part[k]] + part[k + 1:]
            yield [[head]] + part

    seen = set()
    options = []
    for part in partitions(roots):
        key = tuple(sorted(tuple(sorted(block)) for block in part))
        if key in seen:
            continue
        seen.add(key)
        classes = [mask_of(b for r in block for b in bits(members[r])) for block in part]
        eq = [0] * n
        for cls in classes:
            for i in bits(cls):
                eq[i] = cls
        options.append((len(part), tuple(eq)))
    options.sort(key=lambda t: (-t[0], t[1]))
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
    upset_cap: int = 4096
    embed_budget: int = 2_000_000
    apply_filter: bool = True


def iterate_bases(max_points: int, need_beta: bool, options: SearchOptions):
    """Bases ordered by point count, then canonical poset order; each base
    once (``iter_posets`` lists every poset on 1..max_points points, and
    grows the posets of a size only when the search reaches it)."""
    for poset in iter_posets(max_points):
        if need_beta and not poset.is_self_dual:
            continue
        equivs = _equivalences_containing(poset)
        if options.full_e_only:
            equivs = [tuple([poset.carrier] * poset.n)]
        for equiv in equivs:
            alphas = _order_automorphisms(poset, equiv)
            if options.alpha_id_only:
                alphas = [tuple(range(poset.n))]
            for alpha in alphas:
                if need_beta:
                    for beta in _beta_candidates(poset, equiv, alpha):
                        yield RepBase(poset, equiv, alpha, beta)
                else:
                    yield RepBase(poset, equiv, alpha, None)


def representation_search(alg: FinAlgebra, max_points: int,
                          options: SearchOptions | None = None):
    """Look for an embedding of alg into some Dq(E) on at most max_points.

    Returns a certificate on success, otherwise an exhaustion report.  The
    no-finite-representation filter short-circuits the search when an
    obstruction element exists.  A base whose embedding search runs out of
    ``options.embed_budget`` is counted as undecided and the search moves
    on to the next base.  Each base's frame is built once, and its up-sets
    grown once, up to ``options.upset_cap``.  Raises ``PreconditionError``
    when ``max_points`` is below 1.
    """
    if max_points < 1:
        raise PreconditionError(f"max_points must be at least 1, not {max_points}")
    options = options or SearchOptions()
    need_beta = alg.neg is not None
    if options.apply_filter:
        witness = no_finite_rep_filter(alg)
        if witness is not None:
            return ExhaustionReport(
                max_points=max_points, bases_tried=0, bases_skipped_over_cap=0,
                filter_witness=witness,
                note="no finite representation is possible",
            )
    tried = skipped = undecided = 0
    for base in iterate_bases(max_points, need_beta, options):
        frame = dq_frame(base)
        ups = frame.poset.upsets_within(options.upset_cap)
        if ups is None:
            skipped += 1
            continue
        tried += 1
        if len(ups) < alg.size:
            continue
        target = upset_algebra(frame, ups)
        try:
            hom = embed_search(alg, target, budget=options.embed_budget)
        except BudgetExhausted:
            undecided += 1
            continue
        if hom is not None:
            return RepresentationCertificate(
                base=base, embedding=tuple(hom.map), carrier_size=target.size
            )
    return ExhaustionReport(
        max_points=max_points, bases_tried=tried, bases_skipped_over_cap=skipped,
        bases_undecided=undecided,
    )


def verify_certificate(alg: FinAlgebra, cert: RepresentationCertificate) -> bool:
    """Recompute the target algebra from the base and re-check everything;
    shares no state with the search.  A certificate whose carrier size or
    embedding does not fit the rebuilt algebra fails like any other."""
    dq = build_dq(cert.base)
    target = dq.algebra
    if cert.carrier_size != target.size:
        return False
    if len(cert.embedding) != alg.size or len(set(cert.embedding)) != alg.size:
        return False
    if any(not 0 <= v < target.size for v in cert.embedding):
        return False
    report = (
        validate_dqra(target) if target.neg is not None else validate_dinfl(target)
    )
    if not report.ok:
        return False
    hom = AlgHom(source=alg, target=target, map=cert.embedding)
    return validate_homomorphism(hom).ok
