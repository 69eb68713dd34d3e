"""Exhaustive, isomorphism-free enumeration of frames over a fixed poset.

The search fixes an identity upset and an order reversing bijection for
``tilde`` (its inverse is ``minus``), then fills the ternary relation
``z in x o y`` bit by bit.  A partial table is two Python ints over
``n**3`` bits, one for the bits set true and one for the bits ruled out;
bit ``(x*n + y)*n + z`` stands for ``z in x o y``, so cell ``x o y`` is
the n bits from ``(x*n + y)*n`` up.  The next decision is the lowest bit
set in neither, which is row-major (x, y, z) order, and a DFS child
restores its parent's state by rebinding the two ints.

Three families of facts propagate eagerly, each kept only where no other
one already forces it:

* the rotation law ``z~ in x o y <=> y- in z o x`` links each triple to
  an orbit of up to ``3k`` triples that must all agree, so one decision
  settles the whole orbit;
* monotonicity in the value slot: ``x o y`` is an up-set.  With the
  rotation law, whose maps reverse the order, this gives downward
  closure in both arguments;
* the identity law pins every cell ``i o x`` over an identity point
  ``i`` to a subset of the principal upset of ``x`` and demands a
  witness ``x in i o x`` for every ``x``, which unit-propagates like a
  clause.  The rotation law carries both onto the cells ``x o i``.

Propagation works a cell at a time: it ORs a cone-closed mask (an up-set
of true bits or a down-set of false ones) into a cell, and every new bit
``w`` of cell ``a o b`` sends the one cone of ``b-`` to cell ``w- o a``.
The root blocks each identity cell ``i o x`` with the one down-set outside
the principal upset of ``x``, and a decision sets the cone of its bit.

Associativity is used as an interval prune while the table is partial and
becomes the exact check once it is complete.  The prune unpacks the bits
set true and the bits not yet set false, both from one buffer, into two
0/1 cubes, and forms one bracketing of each with one batched boolean
tensor contraction, a float32 matmul; the rotation law makes the other
bracketing redundant and reads it off the first through an index built
once per branch.  Only poset automorphisms can witness an isomorphism
between two frames on the same poset, so a candidate is kept exactly when
its encoding is minimal in its automorphism orbit.

Lemma (one branch per orbit).  An encoding is compared with its
relabellings component by component: the identity set first, then
``tilde[0..n-1]``, then ``neg`` and the cells.  An automorphism g sends the
branch (I, ~) to (gI, g~g^-1), which are the first components of every
encoding of the branch relabelled by g.  (i) If some g gives a pair that
is lexicographically smaller, every table solved in the branch fails the
orbit check under g, for both signatures, so the branch is skipped
without a search.  (ii) Otherwise every g outside the stabiliser of
(I, ~) gives a strictly larger pair, which decides the comparison; only
the stabiliser can reject a table, and the orbit check runs over the
stabiliser alone, from ``neg`` on: ``g neg g^-1`` against ``neg``, then
the whole table relabelled by g (``iso.relabel_cells``) against the
table, built on first need and shared by the ``dinfl`` check and every
``neg``'s.  Skipped branches stay in the branch list, so branch indices
and checkpoints keep their meaning; they spend no nodes and read no clock.

``SearchStats`` counts nodes, prunes, leaves and calls to the prune with
the time spent in it, all over the searched branches.  ``labelled`` adds
each searched branch's leaves times its orbit size |Aut(P)| / |stabiliser|:
the labelled tables on the poset, which a search of every branch would
count as leaves.  ``labelled_dqra`` adds, in the same way, the pairs of a
solved table and a compatible negation.

A solved table and an order-reversing involution ``neg`` make a
DqRA-frame exactly when ``sigma = neg o tilde`` carries every cell
``x o y`` onto the cell ``sigma(y) o sigma(x)``; the negation filter
compares the table with its converse relabelled along sigma, one
``iso.relabel_cells`` call.

The relation search does not depend on the signature: a DqRA-frame is a
DInFL-frame with a compatible negation.  ``search_frames`` therefore runs
one search per branch for every requested signature; each solved table
goes through the ``dinfl`` orbit check and, for ``dqra``, through the
negation filter and the orbit check of each extended encoding.
``enumerate_frames`` asks for one signature, ``count_frames`` for both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import BudgetExhausted, PreconditionError
from .frame import Frame
from .iso import relabel_cells, relabel_map, set_image
from .order import Poset, bits


@dataclass
class SearchStats:
    """Counters of one search: DFS nodes, pruned children, solved tables,
    labelled tables (solved tables times the orbit size of their branch),
    labelled DqRA pairs (solved tables with a compatible negation, times
    the same orbit size, counted when ``dqra`` is searched), calls to the
    associativity cut and the time spent in it, and the wall time of the
    whole search."""

    nodes: int = 0
    prunes: int = 0
    leaves: int = 0
    labelled: int = 0
    labelled_dqra: int = 0
    cuts: int = 0
    cut_s: float = 0.0
    wall_s: float = 0.0

    def add(self, other: "SearchStats") -> None:
        """Add another run's counters and cut time; ``wall_s`` is left alone."""
        for item in fields(self):
            if item.name != "wall_s":
                setattr(self, item.name,
                        getattr(self, item.name) + getattr(other, item.name))


@dataclass
class Budget:
    max_nodes: int | None = None
    max_ms: float | None = None
    _deadline: float | None = field(default=None, repr=False)

    def start(self) -> "Budget":
        """A copy whose deadline is ``max_ms`` from now, so every search it
        is handed to stops at that one absolute time; a budget without
        ``max_ms`` is returned as it is."""
        if self.max_ms is None:
            return self
        return Budget(self.max_nodes, _deadline=time.monotonic() + self.max_ms / 1000.0)

    def exceeded(self, nodes: int) -> bool:
        if self.max_nodes is not None and nodes > self.max_nodes:
            return True
        if self._deadline is not None and time.monotonic() > self._deadline:
            return True
        return False


class _BranchSearch:
    """DFS over the undecided relation bits for one (identity, tilde) pair;
    ``t`` holds the bits set true and ``f`` the bits ruled out, each one int
    in the layout of the module docstring."""

    def __init__(self, poset: Poset, identity: int, tilde, stats: SearchStats,
                 budget: Budget | None):
        self.poset = poset
        self.n = poset.n
        self.carrier = poset.carrier
        self.identity = identity
        self.tilde = tuple(tilde)
        self.minus = tuple(self.tilde.index(i) for i in range(self.n))
        self.stats = stats
        self.budget = budget
        n = self.n
        self.up = poset.up
        self.down = poset.down
        self.identity_points = list(bits(identity))
        self.size = n ** 3
        self.full = (1 << self.size) - 1
        # right_hi, over [x, y, z, w] row-major: the flat position of
        # left(hi)[w-, x, y, z-], that is right(hi)[x, y, z, w], behind the
        # n**4 entries of left(lo) (lemma of _associativity_cut)
        m = np.array(self.minus, dtype=np.intp)
        x, y, z, w = np.ix_(*[np.arange(n)] * 4)
        self.right_hi = (self.size * n + ((m[w] * n + x) * n + y) * n + m[z]).ravel()
        # witnesses[x]: the bits 'x in i o x' over the identity points i
        self.witnesses = [sum(1 << (i * n + x) * n + x for i in self.identity_points)
                          for x in range(n)]
        self.t = self.f = 0
        self.solutions: list[tuple[tuple[int, ...], ...]] = []

    # -- propagation ---------------------------------------------------

    def _propagate(self, x, y, mask, value) -> bool:
        """OR a cone-closed mask (an up-set of true bits, a down-set of
        false ones) into cell x o y and close under rotation: every new bit
        w of a cell a o b sends the cone of ``b-`` to cell ``w- o a``."""
        n, minus = self.n, self.minus
        table, other = (self.t, self.f) if value else (self.f, self.t)
        cone = self.up if value else self.down
        stack = [(x, y, mask)]
        while stack:
            a, b, mask = stack.pop()
            shift = (a * n + b) * n
            new = mask & ~(table >> shift)
            if not new:
                continue
            if new & (other >> shift):
                return False
            table |= new << shift
            rotated = cone[minus[b]]
            while new:
                low = new & -new
                stack.append((minus[low.bit_length() - 1], a, rotated))
                new ^= low
        if value:
            self.t = table
        else:
            self.f = table
        return True

    def _assign(self, x, y, z, value) -> bool:
        """Set bit z of cell x o y: its up-set when true, its down-set when false."""
        return self._propagate(x, y, (self.up if value else self.down)[z], value)

    def _force_identity_witnesses(self) -> bool:
        """Unit-propagate 'x lies in i o x for some identity point i'; the
        rotation law carries the clause of x onto 'x- in x- o i'."""
        cell_bits = self.n * self.n
        changed = True
        while changed:
            changed = False
            for x, clause in enumerate(self.witnesses):
                if self.t & clause:
                    continue
                open_ = clause & ~self.f
                if not open_:
                    return False
                if not open_ & (open_ - 1):
                    i = (open_.bit_length() - 1) // cell_bits
                    if not self._assign(i, x, x, True):
                        return False
                    changed = True
        return True

    def _associativity_cut(self) -> bool:
        """Interval check of (x o y) o z = x o (y o z); exact when complete.

        ``lo[x, y, w]`` says w is set in x o y and ``hi[x, y, w]`` that it
        is not ruled out.  With ``left(a)[x, y, z, w] = OR_u a[x, y, u] and
        a[u, z, w]`` and ``right(a)[x, y, z, w] = OR_v a[y, z, v] and
        a[x, v, w]``, the node is cut exactly when ``left(lo)`` is not
        within ``right(hi)``.  Both cubes are unpacked from one buffer and
        ``left`` of each is one batched float32 matmul; an entry counts at
        most n witnesses, so it is exact.  ``right(hi)`` is read off
        ``left(hi)`` through ``right_hi``, by the lemma.

        Lemma: rotating the factors of a rotation-closed ``a`` gives
        ``left(a)[x, y, z, w] = right(a)[w-, x, y, z-]``, and the same with
        ``left`` and ``right`` swapped; ``lo`` and ``hi`` are rotation-closed,
        so the other half, ``right(lo)`` within ``left(hi)``, adds nothing.
        """
        start = time.perf_counter()
        n, width = self.n, (self.size + 7) // 8
        # f is within every bit, so full ^ f is the bits not ruled out
        packed = self.t.to_bytes(width, "little") + (self.full ^ self.f).to_bytes(width, "little")
        cubes = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little").reshape(
            2, 8 * width)[:, :self.size].astype(np.float32)
        # left(lo) then left(hi), each [x, y, z, w] row-major
        left = (np.matmul(cubes.reshape(2, n * n, n), cubes.reshape(2, n, n * n)) > 0).ravel()
        ok = not (left[:self.size * n] > left[self.right_hi]).any()
        self.stats.cuts += 1
        self.stats.cut_s += time.perf_counter() - start
        return ok

    def _next_undecided(self):
        """The lowest bit set in neither table: row-major (x, y, z) order."""
        decided = self.t | self.f
        pos = ((decided + 1) & ~decided).bit_length() - 1
        if pos == self.size:
            return None
        x, rest = divmod(pos, self.n * self.n)
        return (x, *divmod(rest, self.n))

    def run(self) -> list[tuple[tuple[int, ...], ...]]:
        if self.identity and not self.poset.is_upset(self.identity):
            return []
        # i o x lies in the principal upset of x; the rotation law carries
        # the blocked cells onto x o i
        ok = all(self._propagate(i, x, self.carrier & ~self.up[x], False)
                 for i in self.identity_points for x in range(self.n))
        if ok and self._force_identity_witnesses() and self._associativity_cut():
            self._dfs()
        return self.solutions

    def _dfs(self):
        self.stats.nodes += 1
        if self.budget is not None and self.budget.exceeded(self.stats.nodes):
            raise BudgetExhausted("frame search budget exceeded")
        pick = self._next_undecided()
        if pick is None:
            self.stats.leaves += 1
            n, t = self.n, self.t
            self.solutions.append(tuple(
                tuple((t >> cell) & self.carrier for cell in range(row, row + n * n, n))
                for row in range(0, self.size, n * n)))
            return
        x, y, z = pick
        t, f = self.t, self.f
        for value in (True, False):
            if (
                self._assign(x, y, z, value)
                and self._force_identity_witnesses()
                and self._associativity_cut()
            ):
                self._dfs()
            else:
                self.stats.prunes += 1
            self.t, self.f = t, f


def _neg_compatible(comp, tilde, neg, n) -> bool:
    """The negation condition: sigma = neg o tilde carries every cell
    x o y onto the cell sigma(y) o sigma(x)."""
    sigma = [neg[t] for t in tilde]
    return relabel_cells(comp, sigma, converse=True) == tuple(map(tuple, comp))


def _branch_stabiliser(poset, identity, tilde):
    """The automorphisms that fix the branch (identity, tilde), identity
    first, or None when one sends it to a lexicographically smaller pair
    (lemma (i) of the module docstring)."""
    own = (identity, *tilde)
    stabiliser = []
    # qra.iso lists the automorphisms in lexicographic order, identity first
    for g in poset.automorphisms:
        new = (set_image(identity, g), *relabel_map(tilde, g))
        if new < own:
            return None
        if new == own:
            stabiliser.append(g)
    return stabiliser


def _is_orbit_minimal(stabiliser, comp, neg, moved) -> bool:
    """No automorphism in the stabiliser of the branch relabels the
    encoding to a lexicographically smaller one; by lemma (ii) of the
    module docstring no other automorphism can.  ``moved[k]`` caches the
    table relabelled by ``stabiliser[k + 1]``."""
    for k, g in enumerate(stabiliser[1:]):
        new = None if neg is None else relabel_map(neg, g)
        if new == neg:  # the tables decide
            if moved[k] is None:
                moved[k] = relabel_cells(comp, g)
            if moved[k] < comp:
                return False
        elif new < neg:
            return False
    return True


@dataclass
class EnumerationResult:
    """The kept encodings of one signature, sorted; ``frames`` builds
    their frames on first access."""

    poset: Poset
    signature: str
    encodings: list
    stats: SearchStats

    @property
    def count(self) -> int:
        return len(self.encodings)

    @cached_property
    def frames(self) -> list[Frame]:
        return [_frame_from_encoding(self.poset, self.signature, enc, i)
                for i, enc in enumerate(self.encodings)]


SIGNATURES = ("dinfl", "dqra")


def search_branches(poset: Poset):
    """All (identity upset, tilde) pairs, in deterministic order."""
    if poset.n == 0:
        return []
    return [
        (identity, tilde)
        for identity in poset.upsets
        if identity
        for tilde in poset.order_reversing_bijections
    ]


def run_branch(poset: Poset, signatures, identity: int, tilde,
               stats: SearchStats | None = None, budget: Budget | None = None):
    """Frame encodings of one branch, one list per signature.

    A branch that an automorphism sends to a smaller one is skipped, with
    empty lists.  Otherwise the relation search is shared: every solved
    table is kept for ``dinfl`` when it is orbit-minimal, and for ``dqra``
    once per compatible negation whose encoding is orbit-minimal, both
    decided over the stabiliser of the branch.
    """
    stats = stats if stats is not None else SearchStats()
    n = poset.n
    out = {signature: [] for signature in signatures}
    stabiliser = _branch_stabiliser(poset, identity, tilde)
    if stabiliser is None:
        return tuple(out[signature] for signature in signatures)
    negs = poset.order_reversing_involutions if "dqra" in signatures else []
    comps = _BranchSearch(poset, identity, tilde, stats, budget).run()
    orbit = len(poset.automorphisms) // len(stabiliser)
    stats.labelled += len(comps) * orbit
    for comp in comps:
        moved = [None] * (len(stabiliser) - 1)
        if "dinfl" in out and _is_orbit_minimal(stabiliser, comp, None, moved):
            out["dinfl"].append((identity, tilde, comp, None))
        for neg in negs:
            if _neg_compatible(comp, tilde, neg, n):
                stats.labelled_dqra += orbit
                if _is_orbit_minimal(stabiliser, comp, neg, moved):
                    out["dqra"].append((identity, tilde, comp, neg))
    return tuple(out[signature] for signature in signatures)


def _branch_worker(args):
    """``run_branch`` on one branch with its node quota and the caller's
    deadline; None in place of the encodings when the budget ran out."""
    poset, signatures, branch, max_nodes, deadline = args
    budget = None
    if max_nodes is not None or deadline is not None:
        budget = Budget(max_nodes=max_nodes, _deadline=deadline)
    stats = SearchStats()
    identity, tilde = branch
    try:
        found = run_branch(poset, signatures, identity, tilde, stats, budget)
    except BudgetExhausted:
        found = None
    return found, stats


def _encoding_from_json(enc):
    """A checkpointed encoding with its lists turned back into tuples."""
    identity, tilde, comp, neg = enc
    return (identity, tuple(tilde), tuple(tuple(row) for row in comp),
            None if neg is None else tuple(neg))


def _frame_from_encoding(poset, signature, enc, index) -> Frame:
    identity, tilde, comp, neg = enc
    n = poset.n
    minus = tuple(tilde.index(i) for i in range(n))
    name = f"{poset.name or 'poset'}#{signature}{index}" if n else f"empty#{signature}"
    return Frame(poset, identity, comp, tilde, minus, neg=neg, name=name)


def search_frames(poset: Poset, signatures=SIGNATURES,
                  budget: Budget | None = None,
                  resume: dict | None = None,
                  jobs: int = 1) -> dict[str, EnumerationResult]:
    """All frames over the poset up to isomorphism, for each signature.

    One depth-first search per (identity, tilde) branch serves every
    requested signature; the results share one ``SearchStats``.  ``jobs``
    must be at least 1.  Sequential and ``jobs > 1`` runs map the same branch worker over the branches and
    merge in branch order.  A branch gets the node quota the branches
    merged before it left (the whole quota under ``jobs > 1``, where it
    starts before any merge) and the caller's deadline.  The merge stops at
    the first branch that ran out or took the summed node count past the
    quota, so a budget stops at the same branch for any ``jobs``.  The
    ``BudgetExhausted`` it raises carries a checkpoint of the completed
    branches; it survives a JSON round trip, and ``resume`` accepts it for
    any subset of its signatures.
    """
    signatures = tuple(signatures)
    for signature in signatures:
        if signature not in SIGNATURES:
            raise ValueError(f"unknown signature {signature!r}")
    if jobs < 1:
        raise PreconditionError(f"jobs must be at least 1, not {jobs}")
    stats = SearchStats()
    start = time.monotonic()
    if budget is not None:
        budget = budget.start()
    if poset.n == 0:
        # the one frame on the empty carrier
        return {signature: EnumerationResult(
                    poset, signature, [(0, (), (), None if signature == "dinfl" else ())], stats)
                for signature in signatures}

    branches = search_branches(poset)
    encodings = {signature: [] for signature in signatures}
    first_branch = 0
    if resume is not None:
        done = resume.get("encodings", {})
        if (tuple(resume.get("poset_key", ())) != poset.canonical_key
                or any(signature not in done for signature in signatures)):
            raise ValueError("resume checkpoint does not match this search")
        for signature in signatures:
            encodings[signature] = [_encoding_from_json(e) for e in done[signature]]
        first_branch = resume["next_branch"]

    max_nodes = None if budget is None else budget.max_nodes
    deadline = None if budget is None else budget._deadline
    todo = branches[first_branch:]
    if jobs > 1 and len(todo) > 1:
        import concurrent.futures as cf

        # computed once here, so the workers receive them with the poset
        poset.automorphisms, poset.order_reversing_involutions
        # every branch starts before any has merged, so each gets the
        # whole node quota
        args = [(poset, signatures, branch, max_nodes, deadline) for branch in todo]
        with cf.ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_branch_worker, args))
    else:
        # lazy, so a stop skips the remaining branches; each branch gets
        # the node quota the merged branches left
        outcomes = (_branch_worker((poset, signatures, branch,
                                    None if max_nodes is None else max_nodes - stats.nodes,
                                    deadline))
                    for branch in todo)
    for idx, (found, branch_stats) in enumerate(outcomes, first_branch):
        stats.add(branch_stats)
        if found is None or (max_nodes is not None and stats.nodes > max_nodes):
            stats.wall_s = time.monotonic() - start
            checkpoint = {
                "poset_key": poset.canonical_key,
                "encodings": encodings,
                "next_branch": idx,
            }
            raise BudgetExhausted(
                f"stopped before branch {idx + 1}/{len(branches)}",
                checkpoint=checkpoint,
            )
        for signature, encs in zip(signatures, found):
            encodings[signature].extend(encs)

    stats.wall_s = time.monotonic() - start
    return {signature: EnumerationResult(
                poset, signature,
                sorted(encodings[signature], key=lambda e: (e[0], e[1], e[2], e[3] or ())),
                stats)
            for signature in signatures}


def enumerate_frames(poset: Poset, signature: str = "dqra",
                     budget: Budget | None = None,
                     resume: dict | None = None,
                     jobs: int = 1) -> EnumerationResult:
    """All frames over the poset up to isomorphism, deterministically ordered.

    A non-self-dual poset admits no order reversing tilde, so the result
    is empty.  When the budget runs out a ``BudgetExhausted`` is raised
    whose checkpoint carries the completed branches; pass it back through
    ``resume`` to continue.
    """
    return search_frames(poset, (signature,), budget=budget, resume=resume,
                         jobs=jobs)[signature]
