"""Exhaustive, isomorphism-free enumeration of frames over a fixed poset.

The search fixes an identity upset and an order reversing bijection for
``tilde`` (its inverse is ``minus``), then fills the ternary relation
``z in x o y`` bit by bit.  Three families of facts propagate eagerly:

* monotonicity: the relation is downward closed in both arguments and
  upward closed in the value slot;
* the rotation law links each triple to an orbit of up to ``3k`` triples
  that must all agree, so one decision settles the whole orbit;
* the identity law pins every cell in an identity row or column to a
  subset of a principal upset and demands at least one witness per point,
  which unit-propagates like a clause.

Associativity is used as an interval prune while the table is partial and
becomes the exact check once it is complete.  The prune reads the bits set
true and the bits not yet set false as two 0/1 cubes and forms both
bracketings of each with one boolean tensor contraction per side, a
float32 matmul.  Only poset automorphisms can witness an isomorphism
between two frames on the same poset, so a candidate is kept exactly when
its encoding is minimal in its automorphism orbit; each relabelling is
compared component by component and stops at the first difference.
``SearchStats`` counts nodes, prunes, leaves and calls to the prune with
the time spent in it.

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

import numpy as np

from .errors import BudgetExhausted
from .frame import Frame, empty_frame
from .order import Poset, bits


@dataclass
class SearchStats:
    """Counters of one search: DFS nodes, pruned children, solved tables,
    calls to the associativity cut and the time spent in it, and the wall
    time of the whole search."""

    nodes: int = 0
    prunes: int = 0
    leaves: int = 0
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

    def start(self):
        if self.max_ms is not None:
            self._deadline = time.monotonic() + self.max_ms / 1000.0

    def exceeded(self, nodes: int) -> bool:
        if self.max_nodes is not None and nodes > self.max_nodes:
            return True
        if self._deadline is not None and time.monotonic() > self._deadline:
            return True
        return False


class _BranchSearch:
    """DFS over the undecided relation bits for one (identity, tilde) pair."""

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
        self.up_list = [list(bits(poset.up[x])) for x in range(n)]
        self.down_list = [list(bits(poset.down[x])) for x in range(n)]
        ibits = list(bits(identity))
        # witness_cells[x]: the (i, x) and the (x, i) cells over identity points i
        self.witness_cells = [(tuple((i, x) for i in ibits), tuple((x, i) for i in ibits))
                              for x in range(n)]
        self.cell_bytes = (n + 7) // 8
        self.t = [[0] * n for _ in range(n)]
        self.f = [[0] * n for _ in range(n)]
        self.solutions: list[tuple[tuple[int, ...], ...]] = []

    # -- propagation ---------------------------------------------------

    def _assign(self, x, y, z, value) -> bool:
        """Set one bit and close under rotation and monotonicity."""
        minus, up, down = self.minus, self.up, self.down
        t, f = self.t, self.f
        stack = [(x, y, z, value)]
        while stack:
            a, b, c, val = stack.pop()
            bit = 1 << c
            if val:
                if f[a][b] & bit:
                    return False
                if t[a][b] & bit:
                    continue
                t[a][b] |= bit
                stack.append((minus[c], a, minus[b], True))
                for a2 in self.down_list[a]:
                    for b2 in self.down_list[b]:
                        add = up[c] & ~t[a2][b2]
                        if add:
                            for c2 in bits(add):
                                stack.append((a2, b2, c2, True))
            else:
                if t[a][b] & bit:
                    return False
                if f[a][b] & bit:
                    continue
                f[a][b] |= bit
                stack.append((minus[c], a, minus[b], False))
                for a2 in self.up_list[a]:
                    for b2 in self.up_list[b]:
                        add = down[c] & ~f[a2][b2]
                        if add:
                            for c2 in bits(add):
                                stack.append((a2, b2, c2, False))
        return True

    def _force_identity_witnesses(self) -> bool:
        """Unit-propagate 'some identity point composes x back to x'."""
        t, f = self.t, self.f
        changed = True
        while changed:
            changed = False
            for x, sides in enumerate(self.witness_cells):
                for cells in sides:
                    if any((t[a][b] >> x) & 1 for a, b in cells):
                        continue
                    open_ = [(a, b) for a, b in cells if not (f[a][b] >> x) & 1]
                    if not open_:
                        return False
                    if len(open_) == 1:
                        a, b = open_[0]
                        if not self._assign(a, b, x, True):
                            return False
                        changed = True
        return True

    def _associativity_cut(self) -> bool:
        """Interval check of (x o y) o z = x o (y o z); exact when complete.

        ``lo[x, y, w]`` says w is set in x o y and ``hi[x, y, w]`` that it
        is not ruled out.  With ``left(a)[x, y, z, w] = OR_u a[x, y, u] and
        a[u, z, w]`` and ``right(a)[x, y, z, w] = OR_v a[y, z, v] and
        a[x, v, w]``, the node is cut exactly when ``left(lo)`` is not
        within ``right(hi)`` or ``right(lo)`` is not within ``left(hi)``.
        Each side is one float32 matmul over the stacked ``lo``/``hi``
        cubes; an entry counts at most n witnesses, so it is exact.
        """
        start = time.perf_counter()
        n, width = self.n, self.cell_bytes
        packed = b"".join([cell.to_bytes(width, "little")
                           for table in (self.t, self.f) for row in table for cell in row])
        cube = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
        cube = cube.reshape(2, n, n, 8 * width)[..., :n].astype(np.float32)
        cube[1] = 1.0 - cube[1]  # hi: the complement of the false bits
        rows = cube.reshape(2, n * n, n)
        # left[s, x, y, z, w], s = lo, hi; right comes out as [s, y, z, x, w]
        left = (np.matmul(rows, cube.reshape(2, n, n * n)) > 0).reshape(2, n, n, n, n)
        right = np.matmul(rows, cube.transpose(0, 2, 1, 3).reshape(2, n, n * n)) > 0
        right = right.reshape(2, n, n, n, n).transpose(0, 3, 1, 2, 4)
        ok = not ((left[0] > right[1]).any() or (right[0] > left[1]).any())
        self.stats.cuts += 1
        self.stats.cut_s += time.perf_counter() - start
        return ok

    def _snapshot(self):
        return [row[:] for row in self.t], [row[:] for row in self.f]

    def _restore(self, snap):
        ts, fs = snap
        self.t = [row[:] for row in ts]
        self.f = [row[:] for row in fs]

    def _next_undecided(self):
        for x in range(self.n):
            for y in range(self.n):
                open_ = self.carrier & ~(self.t[x][y] | self.f[x][y])
                if open_:
                    return x, y, (open_ & -open_).bit_length() - 1
        return None

    def run(self) -> list[tuple[tuple[int, ...], ...]]:
        if self.identity and not self.poset.is_upset(self.identity):
            return []
        ok = True
        for i in bits(self.identity):
            for x in range(self.n):
                blocked = self.carrier & ~self.up[x]
                for y in bits(blocked):
                    if not self._assign(i, x, y, False) or not self._assign(
                        x, i, y, False
                    ):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            ok = self._force_identity_witnesses() and self._associativity_cut()
        if ok:
            self._dfs()
        return self.solutions

    def _dfs(self):
        self.stats.nodes += 1
        if self.budget is not None and self.budget.exceeded(self.stats.nodes):
            raise BudgetExhausted("frame search budget exceeded")
        pick = self._next_undecided()
        if pick is None:
            self.stats.leaves += 1
            self.solutions.append(tuple(tuple(row) for row in self.t))
            return
        x, y, z = pick
        for value in (True, False):
            snap = self._snapshot()
            if (
                self._assign(x, y, z, value)
                and self._force_identity_witnesses()
                and self._associativity_cut()
            ):
                self._dfs()
            else:
                self.stats.prunes += 1
            self._restore(snap)


def _neg_compatible(comp, tilde, minus, neg, n) -> bool:
    for x in range(n):
        tx = neg[tilde[x]]
        for y in range(n):
            cell = comp[x][y]
            twisted = comp[neg[tilde[y]]][tx]
            for z in range(n):
                if ((cell >> minus[z]) & 1) != ((twisted >> neg[z]) & 1):
                    return False
    return True


def _relabelled_components(perm, identity, tilde, comp, neg, n):
    """Pairs (component relabelled by perm, own component) of an encoding,
    in its comparison order: identity, tilde, neg, then the comp cells
    row by row."""
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i

    def move(mask):
        out = 0
        for i in bits(mask):
            out |= 1 << perm[i]
        return out

    yield move(identity), identity
    for x in range(n):
        yield perm[tilde[inv[x]]], tilde[x]
    if neg is not None:
        for x in range(n):
            yield perm[neg[inv[x]]], neg[x]
    for x in range(n):
        row = comp[inv[x]]
        for y in range(n):
            yield move(row[inv[y]]), comp[x][y]


def _is_orbit_minimal(poset, identity, tilde, comp, neg) -> bool:
    """No automorphism relabels the encoding to a lexicographically smaller
    one; each relabelling stops at the first component that differs."""
    # qra.iso lists the automorphisms in lexicographic order, identity first
    for g in poset.automorphisms[1:]:
        for new, own in _relabelled_components(g, identity, tilde, comp, neg, poset.n):
            if new != own:
                if new < own:
                    return False
                break
    return True


@dataclass
class EnumerationResult:
    poset: Poset
    signature: str
    frames: list[Frame]
    stats: SearchStats

    @property
    def count(self) -> int:
        return len(self.frames)


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

    The relation search is shared: every solved table is kept for
    ``dinfl`` when it is orbit-minimal, and for ``dqra`` once per
    compatible negation whose encoding is orbit-minimal.
    """
    stats = stats if stats is not None else SearchStats()
    searcher = _BranchSearch(poset, identity, tilde, stats, budget)
    minus = searcher.minus
    negs = poset.order_reversing_involutions if "dqra" in signatures else []
    out = {signature: [] for signature in signatures}
    for comp in searcher.run():
        if "dinfl" in out and _is_orbit_minimal(poset, identity, tilde, comp, None):
            out["dinfl"].append((identity, tilde, comp, None))
        if "dqra" in out:
            for neg in negs:
                if (_neg_compatible(comp, tilde, minus, neg, poset.n)
                        and _is_orbit_minimal(poset, identity, tilde, comp, neg)):
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
    comp_rows = [list(row) for row in comp]
    return Frame(poset, identity, comp_rows, tilde, minus,
                 neg=list(neg) if neg is not None else None,
                 name=f"{poset.name or 'poset'}#{signature}{index}")


def search_frames(poset: Poset, signatures=SIGNATURES,
                  budget: Budget | None = None,
                  resume: dict | None = None,
                  jobs: int = 1) -> dict[str, EnumerationResult]:
    """All frames over the poset up to isomorphism, for each signature.

    One depth-first search per (identity, tilde) branch serves every
    requested signature; the results share one ``SearchStats``.  Sequential
    and ``jobs > 1`` runs map the same branch worker over the branches and
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
    stats = SearchStats()
    start = time.monotonic()
    if budget is not None:
        budget.start()
    if poset.n == 0:
        results = {}
        for signature in signatures:
            frame = empty_frame(name=f"empty#{signature}")
            if signature == "dqra":
                frame = frame.with_neg(())
            results[signature] = EnumerationResult(poset, signature, [frame], stats)
        return results

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
    results = {}
    for signature in signatures:
        encs = sorted(encodings[signature], key=lambda e: (e[0], e[1], e[2], e[3] or ()))
        frames = [_frame_from_encoding(poset, signature, enc, i)
                  for i, enc in enumerate(encs)]
        results[signature] = EnumerationResult(poset, signature, frames, stats)
    return results


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
