"""One isomorphism search for posets, algebras and frames.

A ``Structure`` is a carrier ``0..n-1`` with named parts ``(name, kind,
arity, table)``.  Tables are flat and row-major: a relation (kind ``"rel"``)
of arity k is a list of n**(k-1) bitmasks over its last argument, and an
operation (kind ``"op"``) of arity k is a list of n**k carrier indices, a
constant being a list of one.

``isomorphisms`` refines colours, then backtracks (McKay and Piperno,
Practical graph isomorphism II, J. Symb. Comput. 2014).  Both carriers are
coloured from one palette, refined along the unary and binary parts to a
fixed point.  Images are then assigned to 0, 1, 2, ... in increasing order,
and every tuple of every part is checked as soon as all of its entries have
images.  So a completed map is an isomorphism, the first one found is the
lexicographically least, and the full list comes in lexicographic order.
``mismatch`` is the one verifier of a given bijection.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, product, zip_longest

from .errors import InternalCheckError

# the checks that fall due when element i gets its image: a relation cell
# whose arguments were placed before i (COL) or include i (ROW), an
# operation entry whose value is i (FORCED) or whose arguments include i (EQ)
COL, ROW, FORCED, EQ = range(4)


def _width(kind, arity):
    """The number of arguments that index a table cell."""
    return arity - 1 if kind == "rel" else arity


def set_image(mask: int, f) -> int:
    """The bitmask of {f[x] | x in mask}.  ``f`` is read only at the points
    of the set, so a partial map may leave the others unset, and its
    values may lie in a larger carrier."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << f[low.bit_length() - 1]
        mask ^= low
    return out


def relabel_map(m, g) -> tuple[int, ...]:
    """The self-map ``g m g^-1`` of the carrier: m carried along the
    point bijection g."""
    out = [0] * len(m)
    for x, y in enumerate(m):
        out[g[x]] = g[y]
    return tuple(out)


def relabel_cells(cells, g, converse: bool = False) -> tuple[tuple[int, ...], ...]:
    """The n x n table of sets carried along the point bijection g: cell
    (g x, g y) of the result is the image of ``cells[x][y]``, or of
    ``cells[y][x]`` when ``converse`` is set.  Each distinct set is moved
    by ``set_image`` once, so a table with few distinct cells is cheap."""
    inv = sorted(range(len(g)), key=g.__getitem__)  # g^-1
    images = {cell: set_image(cell, g) for cell in set(chain.from_iterable(cells))}
    if converse:
        cells = tuple(zip(*cells))
    return tuple(tuple([images[row[y]] for y in inv]) for row in [cells[x] for x in inv])


class Structure:
    """A carrier ``0..n-1`` with named relations and operations."""

    def __init__(self, n: int, parts):
        self.n = n
        self.parts = tuple(parts)

    @cached_property
    def plan(self) -> list[list[tuple]]:
        """Per element i, the checks on every tuple whose largest entry is i."""
        n = self.n
        plan = [[] for _ in range(n)]
        for p, (_, kind, arity, table) in enumerate(self.parts):
            for k, t in enumerate(product(range(n), repeat=_width(kind, arity))):
                top, value = max(t, default=-1), table[k]
                if kind == "rel":
                    for i in range(top + 1, n):
                        plan[i].append((COL, p, t, (value >> i) & 1, 0))
                    if top >= 0:
                        low = value & ((1 << top) - 1)
                        plan[top].append((ROW, p, t, (value >> top) & 1, low))
                elif value > top:
                    plan[value].append((FORCED, p, t, 0, 0))
                else:
                    plan[top].append((EQ, p, t, value, 0))
        return plan

    def _refined(self, c: list[int]) -> list[tuple]:
        """Each colour extended by every part's value at (x, ..., x) and by
        the colours met along the unary operations and the binary parts."""
        n = self.n
        out = []
        for x in range(n):
            colour = [c[x]]
            for _, kind, arity, table in self.parts:
                k = sum(x * n ** m for m in range(_width(kind, arity)))
                colour.append((table[k] >> x) & 1 if kind == "rel" else table[k] == x)
                if kind == "op" and arity == 1:
                    colour.append(c[table[x]])
                elif kind == "rel" and arity == 2:
                    colour.append(tuple(sorted(
                        (c[y], (table[x] >> y) & 1, (table[y] >> x) & 1) for y in range(n)
                    )))
                elif arity == 2:
                    colour.append(tuple(sorted(
                        (c[y], c[table[x * n + y]], c[table[y * n + x]]) for y in range(n)
                    )))
            out.append(tuple(colour))
        return out


def _colours(structures):
    """Colour every carrier from one palette, refined to a fixed point."""
    coded = [[0] * s.n for s in structures]
    classes = 0
    while True:
        raw = [s._refined(cs) for s, cs in zip(structures, coded)]
        palette = {c: k for k, c in enumerate(sorted({c for cs in raw for c in cs}))}
        coded = [[palette[c] for c in cs] for cs in raw]
        if len(palette) == classes:
            return coded
        classes = len(palette)


def isomorphisms(a: Structure, b: Structure, first: bool = False) -> list[tuple[int, ...]]:
    """Every isomorphism a -> b in lexicographic order, or only the least."""
    if a.n != b.n or [p[:3] for p in a.parts] != [p[:3] for p in b.parts]:
        return []
    colours = _colours([a] if a is b else [a, b])
    ca, cb = colours[0], colours[-1]
    if sorted(ca) != sorted(cb):
        return []
    n = a.n
    candidates = [sum(1 << j for j in range(n) if cb[j] == c) for c in ca]
    tables = [part[3] for part in b.parts]
    image = [-1] * n
    found = []

    def at(t):
        k = 0
        for x in t:
            k = k * n + image[x]
        return k

    def place(i, used):
        if i == n:
            found.append(tuple(image))
            return first
        allowed = candidates[i] & ~used
        due = []
        for kind, p, t, want, low in a.plan[i]:
            if not allowed:
                return False
            if kind == COL:
                cell = tables[p][at(t)]
                allowed &= cell if want else ~cell
            elif kind == FORCED:
                allowed &= 1 << tables[p][at(t)]
            else:
                due.append((kind, tables[p], t, want, set_image(low, image)))
        for j in range(n):
            if not (allowed >> j) & 1:
                continue
            image[i] = j
            for kind, table, t, want, moved in due:
                if kind == ROW:
                    cell = table[at(t)]
                    if (cell & used) != moved or ((cell >> j) & 1) != want:
                        break
                elif table[at(t)] != image[want]:
                    break
            else:
                if place(i + 1, used | (1 << j)):
                    return True
        image[i] = -1
        return False

    place(0, 0)
    return found


def mismatch(a: Structure, b: Structure, f) -> str | None:
    """The name of the first part of ``a`` that ``f`` does not carry onto
    ``b``, or None when ``f`` is an isomorphism."""
    n = a.n
    if b.n != n or sorted(f) != list(range(n)):
        return "the carrier"
    for pa, pb in zip_longest(a.parts, b.parts):
        if pa is None or pb is None or pa[:3] != pb[:3]:
            return (pa or pb)[0]
        name, kind, arity, table = pa
        for k, t in enumerate(product(range(n), repeat=_width(kind, arity))):
            fk = 0
            for x in t:
                fk = fk * n + f[x]
            moved = set_image(table[k], f) if kind == "rel" else f[table[k]]
            if moved != pb[3][fk]:
                return name
    return None


def check_witness(a: Structure, b: Structure, f, what: str) -> None:
    """Raise ``InternalCheckError`` naming the first part ``f`` breaks."""
    broken = mismatch(a, b, f)
    if broken is not None:
        raise InternalCheckError(f"{what} does not preserve {broken}")
