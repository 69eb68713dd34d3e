import random

import numpy as np
import pytest

from qra import FinAlgebra
from qra.frame import Frame
from qra.order import Poset, mask_of
from qra.represent import _MEMO


def chain_algebra(products, one, name=None) -> FinAlgebra:
    """A chain-based cyclic DqRA from a product table, for test fixtures."""
    n = len(products)
    leq = [[i <= j for j in range(n)] for i in range(n)]
    rev = [n - 1 - i for i in range(n)]
    return FinAlgebra(np.array(leq), products, one, rev, rev, neg=rev, name=name)


def fresh_copy(alg: FinAlgebra) -> FinAlgebra:
    """The algebra on the same tables with its own order and no cached
    tables or frames."""
    return FinAlgebra(alg.leq, alg.product, alg.one, alg.tilde, alg.minus, neg=alg.neg,
                      name=alg.name)


@pytest.fixture
def cold_memo():
    """The memo that representation searches share, one least-recently-used
    store of Dq(E)s and base lists, empty when the test starts and emptied
    again when it ends."""
    _MEMO.clear()
    yield _MEMO
    _MEMO.clear()


@pytest.fixture
def bool2():
    return FinAlgebra(
        [[1, 1], [0, 1]], [[0, 0], [0, 1]], 1, [1, 0], [1, 0], neg=[1, 0],
        name="bool2",
    )


@pytest.fixture
def sugihara3():
    return chain_algebra([[0, 0, 0], [0, 1, 2], [0, 2, 2]], 1, name="S3")


@pytest.fixture
def lukasiewicz3():
    return chain_algebra([[0, 0, 0], [0, 0, 1], [0, 1, 2]], 2, name="L3")


@pytest.fixture
def lukasiewicz4():
    prods = [[max(0, i + j - 3) for j in range(4)] for i in range(4)]
    return chain_algebra(prods, 3, name="L4")


@pytest.fixture
def sugihara2():
    return FinAlgebra(
        [[1, 1], [0, 1]], [[0, 0], [0, 1]], 1, [1, 0], [1, 0], neg=[1, 0],
        name="S2",
    )


def sugihara4() -> FinAlgebra:
    vals = {0: -2, 1: -1, 2: 1, 3: 2}
    inv = {v: k for k, v in vals.items()}

    def prod(x, y):
        a, b = vals[x], vals[y]
        if abs(a) > abs(b):
            return x
        if abs(b) > abs(a):
            return y
        return x if a == b else inv[min(a, b)]

    return chain_algebra([[prod(x, y) for y in range(4)] for x in range(4)], 2,
                         name="S4")


def block_family():
    """(frame, atoms, sets): 72 points in an antichain, so every set is an
    upset, and the 32 unions of five atoms: the blocks 66..71 (wholly past
    bit 64), 0..5, 30..35 and 60..65 (across bit 64), and the other 48
    points.  Composition is random on points, so not monotone in any
    sense; the point maps permute the atoms, so the unions are closed
    under the product and the negations.  A union covers another by one
    atom, never by one point."""
    n = 72
    blocks = [range(66, 72), range(0, 6), range(30, 36), range(60, 66)]
    atoms = [mask_of(b) for b in blocks]
    atoms.append(((1 << n) - 1) & ~sum(atoms))
    ups = [sum(a for i, a in enumerate(atoms) if (s >> i) & 1) for s in range(1 << 5)]

    def block_map(image):  # block i onto block image[i], the rest fixed
        out = list(range(n))
        for b, c in zip(blocks, image):
            for w, v in zip(b, blocks[c]):
                out[w] = v
        return out

    rng = random.Random(5)
    comp = [[rng.choice(ups) for _ in range(n)] for _ in range(n)]
    frame = Frame(Poset.antichain(n), ups[0b10110], comp, block_map([1, 2, 3, 0]),
                  block_map([3, 0, 1, 2]), neg=block_map([1, 0, 3, 2]))
    return frame, atoms, ups
