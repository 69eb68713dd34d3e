"""The census key: one canonical form per isomorphism class, checked
against the census itself, against relabellings, and against algebras the
search never built (direct products and subalgebras)."""

import importlib
import itertools
import random
from functools import lru_cache

import numpy as np
import pytest

from qra import (
    FinAlgebra,
    census_table,
    complex_algebra,
    enumerate_frames,
    validate_dinfl,
    validate_dqra,
)
from qra.catalog import build_catalog, match_dinfl, match_dqra
from qra.enumerate import census_key, posets_with_upset_count
from qra.errors import InternalCheckError, PreconditionError, SignatureError
from qra.frame import dual_frame
from qra.order import bits
from qra.ra import subalgebra_on

SIGNATURES = ("dinfl", "dqra")
VALIDATE = {"dinfl": validate_dinfl, "dqra": validate_dqra}


@lru_cache(maxsize=None)
def census_frames(n: int, signature: str) -> tuple:
    """(poset, frame) for every kept census frame of cardinality n."""
    return tuple((p, f) for p in posets_with_upset_count(n)
                 for f in enumerate_frames(p, signature).frames)


def census_keys(n: int, signature: str) -> set:
    return {(p.canonical_key, f.encoding()) for p, f in census_frames(n, signature)}


def census_algebras(n: int, signature: str) -> list:
    return [complex_algebra(f) for _, f in census_frames(n, signature)]


def direct_product(*factors):
    """The direct product, on tuples of elements numbered row-major."""
    shape = [a.size for a in factors]
    points = list(itertools.product(*(range(k) for k in shape)))
    index = {p: i for i, p in enumerate(points)}

    def unary(op):
        return [index[tuple(int(op[a][x]) for a, x in enumerate(p))] for p in points]

    leq = [[all(a.leq[x, y] for a, x, y in zip(factors, p, q)) for q in points] for p in points]
    product = [[index[tuple(int(a.product[x, y]) for a, x, y in zip(factors, p, q))]
                for q in points] for p in points]
    neg = None if factors[0].neg is None else unary([a.neg for a in factors])
    return FinAlgebra(np.array(leq), product, index[tuple(int(a.one) for a in factors)],
                      unary([a.tilde for a in factors]), unary([a.minus for a in factors]),
                      neg=neg)


def subuniverses(alg) -> list[int]:
    """Every subset holding 1 and closed under join, meet, the product and
    the negations, as element bitmasks."""
    n = alg.size
    join, meet, prod = alg.join_table.tolist(), alg.meet_table.tolist(), alg.product.tolist()
    unaries = [op.tolist() for op in (alg.tilde, alg.minus, alg.neg) if op is not None]

    def closure(mask):
        while True:
            members = list(bits(mask))
            out = mask
            for x in members:
                for op in unaries:
                    out |= 1 << op[x]
                for y in members:
                    out |= (1 << join[x][y]) | (1 << meet[x][y]) | (1 << prod[x][y])
            if out == mask:
                return mask
            mask = out

    found = {closure(1 << alg.one)}
    frontier = list(found)
    while frontier:
        current = frontier.pop()
        for x in range(n):
            if not (current >> x) & 1:
                bigger = closure(current | (1 << x))
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
    return sorted(found)


def test_every_census_algebra_keys_to_its_own_census_frame():
    by_size = census_table(8)["by_size"]
    for column, signature in enumerate(SIGNATURES):
        for n in range(1, 9):
            keys = set()
            for poset, frame in census_frames(n, signature):
                key = census_key(complex_algebra(frame))
                assert key == (poset.canonical_key, frame.encoding()), (n, frame)
                keys.add(key)
            assert len(keys) == by_size[n][column], (signature, n)


def test_random_relabellings_keep_the_key():
    rng = random.Random(2901)
    for signature in SIGNATURES:
        for n in range(2, 9):
            for alg in census_algebras(n, signature):
                key = census_key(alg)
                for _ in range(2):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    assert census_key(alg.relabel(perm)) == key, (signature, n)


def test_census_key_errors_are_typed():
    three = census_algebras(3, "dinfl")[0]
    with pytest.raises(PreconditionError, match="beyond the supported census"):
        census_key(direct_product(three, three))
    # the lattice of up-sets of the poset a < b, a < c, as masks over
    # (a, b, c).  This tilde keeps the dual frame's maps inside the
    # join-irreducibles, but the frame's poset is not self-dual, so no
    # census poset has its key
    sets = [0b000, 0b010, 0b100, 0b110, 0b111]
    leq = np.array([[s & ~t == 0 for t in sets] for s in sets])
    meet = [[sets.index(s & t) for t in sets] for s in sets]
    tilde = [0, 1, 2, 4, 3]
    with pytest.raises(PreconditionError, match="no census poset"):
        census_key(FinAlgebra(leq, meet, 4, tilde, tilde))


def test_census_key_checks_the_cap_on_every_call(monkeypatch):
    # a key formed under a raised cap leaves the census posets of its size
    # cached; once the cap is restored the key is refused all the same.  A
    # fresh cache keeps those posets from reaching any other test
    enumerate_ = importlib.import_module("qra.enumerate")
    monkeypatch.setattr(enumerate_, "_census_posets",
                        lru_cache(maxsize=None)(enumerate_._census_posets.__wrapped__))
    three = census_algebras(3, "dinfl")[0]
    alg = direct_product(three, three)
    with monkeypatch.context() as raised:
        raised.setattr(enumerate_, "MAX_POSET_SIZE", 8)
        assert census_key(alg)[0] == dual_frame(alg).poset.canonical_key
    with pytest.raises(PreconditionError, match="beyond the supported census"):
        census_key(alg)


def test_two_catalog_algebras_of_one_key_raise(monkeypatch):
    catalog = importlib.import_module("qra.catalog")  # qra.catalog is a function
    monkeypatch.setattr(catalog, "build_catalog", lambda: build_catalog()[:3] * 2)
    with pytest.raises(InternalCheckError, match="share a key"):
        catalog._catalog_index.__wrapped__()


def test_catalog_matching_errors_are_typed():
    d3 = next(e.base for e in build_catalog() if e.size == 3)
    # no catalog entry has the size, and the key is not formed
    for alg in (census_algebras(7, "dqra")[0], direct_product(d3, d3)):
        with pytest.raises(InternalCheckError, match="matches 0 catalog entries"):
            match_dinfl(alg)
        with pytest.raises(InternalCheckError, match="matches 0 catalog variants"):
            match_dqra(alg)
    with pytest.raises(SignatureError):
        match_dqra(d3)
    # the one change from matching by pairwise isomorphism: a lattice that
    # is not distributive has no dual frame
    m3 = np.array([[1, 1, 1, 1, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1],
                   [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]], dtype=bool)
    ident = list(range(5))
    with pytest.raises(PreconditionError, match="not distributive"):
        match_dinfl(FinAlgebra(m3, np.zeros((5, 5), dtype=int), 0, ident, ident))


def test_products_key_into_the_census():
    # the products 2x2, 2x3, 2x4 and 2x2x2 of census algebras: 27 algebras
    # the search never built
    shapes = [(2, 2), (2, 3), (2, 4), (2, 2, 2)]
    checked = 0
    for signature in SIGNATURES:
        for shape in shapes:
            for factors in itertools.product(*(census_algebras(k, signature) for k in shape)):
                alg = direct_product(*factors)
                assert VALIDATE[signature](alg).ok, (signature, shape)
                assert census_key(alg) in census_keys(alg.size, signature), (signature, shape)
                checked += 1
    assert checked == 27


def test_subalgebras_key_into_the_census():
    checked = 0
    for signature in SIGNATURES:
        for n in range(1, 9):
            for alg in census_algebras(n, signature):
                for mask in subuniverses(alg):
                    sub = subalgebra_on(alg, mask, with_neg=signature == "dqra")
                    assert VALIDATE[signature](sub).ok, (signature, n, mask)
                    assert census_key(sub) in census_keys(sub.size, signature), (signature, n)
                    checked += 1
    assert checked == 2931


@pytest.mark.stretch
@pytest.mark.parametrize("shape", ((3, 3), (2, 5)))
def test_products_past_the_cap_key_into_the_census(shape, monkeypatch):
    # the census is not pinned past size 8; only its closure under the
    # product is checked.  A fresh cache of census posets keeps the raised
    # cap from reaching any other test
    enumerate_ = importlib.import_module("qra.enumerate")
    n = shape[0] * shape[1]
    monkeypatch.setattr(enumerate_, "MAX_POSET_SIZE", n - 1)
    monkeypatch.setattr(enumerate_, "_census_posets",
                        lru_cache(maxsize=None)(enumerate_._census_posets.__wrapped__))
    for signature in SIGNATURES:
        keys = {(p.canonical_key, f.encoding()) for p in posets_with_upset_count(n)
                for f in enumerate_frames(p, signature).frames}
        pairs = itertools.product(*(census_algebras(k, signature) for k in shape))
        for a, b in pairs:
            alg = direct_product(a, b)
            assert VALIDATE[signature](alg).ok, (signature, shape)
            assert census_key(alg) in keys, (signature, shape)
