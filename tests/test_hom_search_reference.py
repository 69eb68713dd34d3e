"""The homomorphism search kernel against the per-element loop it replaced.

The reference below tries every element of the target at every node,
collects the images of the earlier generators into masks and extends a
leaf by numpy scalar joins, as the search did before it built one
candidate bitmask per node.  Both must yield the same maps in the same
order and visit the same number of nodes: the search passes with that
many nodes as its budget and raises with one fewer.  Into the Dq(E) on at
most 2 points both searches run to the end; into the Dq(E) of a 3-point
certificate (512 elements for D4_2_3) they run to the first injective map,
as ``embed_search`` does.
"""

import pytest

from qra.algebra import join_irreducibles
from qra.catalog import build_catalog
from qra.errors import BudgetExhausted
from qra.morphism import _hom_search, _preserves
from qra.order import bits, mask_of
from qra.represent import (
    RepresentationCertificate,
    SearchOptions,
    build_dq,
    iterate_bases,
    representation_search,
)


def reference_search(a, b, injective):
    """Yield (map, nodes) for each map the per-element search accepts, in
    order, with the number of nodes visited so far; then (None, the number
    of nodes of the whole search)."""
    gens = [a.bottom] + [j for j in join_irreducibles(a) if j != a.bottom]
    lower = [mask_of(i for i in range(k) if a.leq[gens[i], j]) for k, j in enumerate(gens)]
    upper = [mask_of(i for i in range(k) if a.leq[j, gens[i]]) for k, j in enumerate(gens)]
    joined = [[k for k in range(1, len(gens)) if a.leq[gens[k], x]] for x in range(a.size)]
    down, up, join = b.order_poset.down, b.order_poset.up, b.join_table
    preserves = _preserves(a, b, injective)
    image = [0] * len(gens)
    nodes = 0

    def images(index_mask):
        return mask_of(image[i] for i in bits(index_mask))

    def place(k):
        nonlocal nodes
        nodes += 1
        if k == len(gens):
            f = []
            for ks in joined:
                acc = image[0]
                for i in ks:
                    acc = int(join[acc, image[i]])
                f.append(acc)
            if preserves(f):
                yield tuple(f), nodes
            return
        below, above = images(lower[k]), images(upper[k])
        earlier = (1 << k) - 1
        not_below, not_above = images(earlier & ~lower[k]), images(earlier & ~upper[k])
        for v in range(b.size):
            if below & ~down[v] or above & ~up[v]:
                continue
            if injective and (not_below & down[v] or not_above & up[v]):
                continue
            image[k] = v
            yield from place(k + 1)

    yield from place(0)
    yield None, nodes


def _assert_same_search(a, b, injective):
    """Both searches to the end; the number of maps."""
    *found, (_, nodes) = reference_search(a, b, injective)
    maps = [f for f, _ in found]
    assert [h.map for h in _hom_search(a, b, nodes, injective)] == maps, (a.name, b.name)
    with pytest.raises(BudgetExhausted):
        for _ in _hom_search(a, b, nodes - 1, injective):
            pass
    return len(maps)


def _two_point_targets(need_beta):
    return [build_dq(base).algebra for base in iterate_bases(2, need_beta, SearchOptions())]


@pytest.mark.parametrize("injective", [False, True])
@pytest.mark.parametrize("kind", ["bases", "variants"])
def test_kernel_matches_reference_into_two_point_dq(kind, injective):
    catalog = [e for e in build_catalog() if e.size <= 6]
    if kind == "bases":
        sources = [e.base for e in catalog]
    else:
        sources = [v.algebra for e in catalog for v in e.variants]
    if injective:
        # reversed carriers list some join-irreducibles before those below
        # them, so a generator can have earlier generators above it (left out
        # of the full enumerations, where they would double the run time)
        sources += [a.relabel(tuple(reversed(range(a.size)))) for a in sources]
    targets = _two_point_targets(need_beta=kind == "variants")
    yielded = 0
    for a in sources:
        for b in targets:
            yielded += _assert_same_search(a, b, injective)
    assert yielded > 0


@pytest.mark.parametrize("name", ["D4_2_3", "D6_4_2"])
def test_kernel_matches_reference_into_three_point_certificate_base(name):
    (alg,) = [v.algebra for e in build_catalog() for v in e.variants if v.algebra.name == name]
    cert = representation_search(alg, 3)
    assert isinstance(cert, RepresentationCertificate)
    target = build_dq(cert.base).algebra
    first, nodes = next(reference_search(alg, target, injective=True))
    assert first == cert.embedding
    assert next(_hom_search(alg, target, nodes, injective=True)).map == first
    with pytest.raises(BudgetExhausted):
        next(_hom_search(alg, target, nodes - 1, injective=True))


def _maps_within(a, b, budget, injective):
    """The maps the search yields with ``budget``, and whether it raised."""
    maps = []
    try:
        for h in _hom_search(a, b, budget, injective):
            maps.append(h.map)
    except BudgetExhausted:
        return maps, True
    return maps, False


@pytest.mark.parametrize("injective", [False, True])
def test_every_budget_stops_where_the_reference_does(injective):
    # a search cut by its budget yields the maps the reference accepts at
    # the nodes up to the budget, then raises; the leaves of the last
    # generator are visited as one mask, so the cut can fall inside it.
    # D1_1_1 has the bottom as its only generator
    catalog = [e for e in build_catalog() if e.size <= 3]
    groups = []
    for need_beta in (False, True):
        sources = ([v.algebra for e in catalog for v in e.variants] if need_beta
                   else [e.base for e in catalog])
        sources += [a.relabel(tuple(reversed(range(a.size)))) for a in sources]
        groups.append((sources, _two_point_targets(need_beta)))
    assert "D1_1_1" in {a.name for sources, _ in groups for a in sources}
    cases = cut_after_a_map = 0
    for sources, targets in groups:
        for a in sources:
            for b in targets:
                *found, (_, nodes) = reference_search(a, b, injective)
                for budget in range(1, nodes + 1):
                    want = [f for f, at in found if at <= budget]
                    assert _maps_within(a, b, budget, injective) == (want, budget < nodes), \
                        (a.name, b.name, budget)
                    cases += 1
                    cut_after_a_map += bool(want) and budget < nodes
    assert cases > 6000 and cut_after_a_map > 100
