"""The three benchmark workloads, their inputs and their correctness checks.

A workload builds its inputs once (``setup``), then hands out one pass of
operations at a time (``ops``).  Every pass works on fresh copies of the
input objects, so caches the program keeps on an algebra or a poset are
cold in every pass, as they are for a user who loads an algebra once.

An operation is a callable that runs the program and returns a list of
problems, one string per output row that differs from the reference; it
is worth ``rows`` attempted operations.  All reference values come from
``reference.json``; nothing here computes an expected value with qra.

Why these workloads:

* ``census`` is the frame-search census ``census_table(8)``, the one behind
  ``qra count --max-size 8``: all of its time is in the search and order
  layers, none in filters or represent.
* ``tables`` is fixed-table work with no search in the timed section: the
  duality and filter-space round-trips on the catalogue and on the size-7
  DqRAs, and the 4-atom subreduct census.  Its carriers have at most 64
  elements, so law checks take the direct path.
* ``represent`` drives representation search three ways: a 2-point sweep
  that mostly ends in exhaustion, two 3-point searches that find
  certificates after many leaf homomorphism checks, and Dq(E) on k-chain
  bases whose carriers exceed 64 elements and set the peak memory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# Input sizes.  FULL is what the benchmark measures; SMOKE is the cut-down
# input the self-test runs.
FULL = {
    "census_max_size": 8,
    "catalog_max_size": 6,
    "dqra_size": 7,
    "atom_indices": None,
    "sweep_points": 2,
    "three_point": ("D4_2_3", "D6_4_2"),
    "chain_points": (3, 4, 5, 6),
}
SMOKE = {
    "census_max_size": 4,
    "catalog_max_size": 4,
    "dqra_size": 5,
    "atom_indices": (1, 3, 13),
    "sweep_points": 2,
    "three_point": ("D6_4_2",),
    "chain_points": (3, 4),
}


@dataclass
class Op:
    label: str
    rows: int
    fn: Callable[[], list]


def fresh_algebra(qra, alg):
    """A copy of ``alg`` that shares no cached derived tables with it."""
    return qra.FinAlgebra(alg.leq, alg.product, alg.one, alg.tilde, alg.minus,
                          neg=alg.neg, name=alg.name)


def fresh_base(qra, base):
    """A copy of ``base`` on a new poset object, so no poset cache is warm."""
    return qra.RepBase(qra.Poset(base.poset.up), base.equiv, base.alpha, base.beta)


def _expect(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


class Census:
    """``census_table`` at a fixed size; one op per table row.

    This is a single call, so the seed does not change it."""

    name = "census"

    def __init__(self, qra, reference, sizes):
        self.qra = qra
        self.max_size = sizes["census_max_size"]
        ref = reference["census"]
        self.per_poset = {
            name: tuple(row["counts"])
            for name, row in ref["per_poset"].items()
            if row["points"] <= self.max_size
        }
        self.by_size = {
            int(n): tuple(counts)
            for n, counts in ref["by_size"].items()
            if int(n) <= self.max_size
        }

    def setup(self):
        return None

    def ops(self, inputs, seed):
        def run():
            table = self.qra.census_table(self.max_size, jobs=1)
            problems = []
            got_rows = {name: tuple(v) for name, v in table["per_poset"].items()}
            for name, want in self.per_poset.items():
                _expect(problems, f"poset {name}", got_rows.get(name), want)
            for name in sorted(set(got_rows) - set(self.per_poset)):
                problems.append(f"poset {name}: unexpected row")
            got_sizes = {n: tuple(v) for n, v in table["by_size"].items()}
            for n, want in self.by_size.items():
                _expect(problems, f"size {n}", got_sizes.get(n), want)
            for n in sorted(set(got_sizes) - set(self.by_size)):
                problems.append(f"size {n}: unexpected row")
            return problems

        rows = len(self.per_poset) + len(self.by_size)
        return [Op(f"census_table({self.max_size})", rows, run)]


def _catalog_variants(qra, max_size):
    return [
        (entry, variant)
        for entry in qra.build_catalog()
        if entry.size <= max_size
        for variant in entry.variants
    ]


class Tables:
    """Duality and filter-space round-trips, then the subreduct census."""

    name = "tables"

    def __init__(self, qra, reference, sizes):
        self.qra = qra
        self.sizes = sizes
        self.dqra_counts = {int(n): c for n, c in reference["dqra_counts"].items()}
        self.family_of = {}
        for family, spec in reference["subreduct_families"].items():
            for index in spec["indices"]:
                self.family_of[index] = (family, spec["size"], spec["frame_poset"])

    def setup(self):
        qra = self.qra
        variants = [v.algebra for _, v in
                    _catalog_variants(qra, self.sizes["catalog_max_size"])]
        dqras = qra.enumerate_algebras(self.sizes["dqra_size"], "dqra", jobs=1)
        structs = list(qra.builtin_atom_structures())
        wanted = self.sizes["atom_indices"]
        if wanted is not None:
            structs = [s for s in structs if s.index in wanted]
        return variants, dqras, structs

    def ops(self, inputs, seed):
        qra = self.qra
        variants, dqras, structs = inputs
        variants = [fresh_algebra(qra, a) for a in variants]
        dqras = [fresh_algebra(qra, a) for a in dqras]
        ops = [Op("input counts", 1, lambda: self._check_counts(variants, dqras))]
        ops += [Op(f"roundtrips {a.name}", 1, self._roundtrips(a))
                for a in variants + dqras]
        ops += [Op(f"subreduct RA{s.index}", 1, self._subreduct(s)) for s in structs]
        random.Random(seed).shuffle(ops)
        return ops

    def _check_counts(self, variants, dqras):
        problems = []
        by_size = {}
        for a in variants:
            by_size[a.size] = by_size.get(a.size, 0) + 1
        want = {n: c for n, c in self.dqra_counts.items()
                if n <= self.sizes["catalog_max_size"]}
        _expect(problems, "catalogue variants per size", by_size, want)
        n = self.sizes["dqra_size"]
        _expect(problems, f"DqRAs of size {n}", len(dqras), self.dqra_counts[n])
        return problems

    def _roundtrips(self, alg):
        qra = self.qra

        def run():
            problems = []
            carrier = list(range(alg.size))
            psi = qra.roundtrip_algebra(alg)
            _expect(problems, "duality witness", sorted(psi), carrier)
            pf = qra.filter_frame(alg)
            report = qra.validate_pointed_frame(pf)
            if not report.ok:
                problems.append(f"filter frame invalid: {report.summary()}")
            witness = qra.priestley_roundtrip(alg)
            _expect(problems, "filter-space witness", sorted(witness), carrier)
            return problems

        return run

    def _subreduct(self, struct):
        qra = self.qra
        family, size, poset = self.family_of[struct.index]

        def run():
            problems = []
            _expect(problems, "family", qra.family_criteria(struct), family)
            sub = qra.max_proper_qra_subreduct(struct)
            got = None if sub is None else (sub.size, sub.frame_poset)
            want = None if size is None else (size, poset)
            _expect(problems, "subreduct", got, want)
            return problems

        return run


def verdict_kind(qra, result):
    if isinstance(result, qra.RepresentationCertificate):
        return "certificate"
    if result.filter_witness is not None:
        return "filter_witness"
    return "exhausted"


class Represent:
    """Representation search sweeps and Dq(E) on k-chain bases."""

    name = "represent"

    def __init__(self, qra, reference, sizes):
        self.qra = qra
        self.sizes = sizes
        self.kind_of = {
            name: kind
            for kind, names in reference["representation_kinds"].items()
            for name in names
        }
        self.certified_at_3 = set(reference["certificate_at_3_points"])
        self.chain_sizes = {int(k): n for k, n in reference["chain_dq_sizes"].items()}

    def setup(self):
        from qra.catalog_data import REPRESENTABILITY

        qra = self.qra
        sweep = [
            (v.algebra, REPRESENTABILITY[(e.name, v.neg_desc)][0])
            for e, v in _catalog_variants(qra, self.sizes["catalog_max_size"])
        ]
        by_name = {v.algebra.name: v.algebra for e in qra.build_catalog()
                   for v in e.variants}
        three = [by_name[name] for name in self.sizes["three_point"]]
        chains = []
        for k in self.sizes["chain_points"]:
            poset = qra.Poset.chain(k)
            chains.append(qra.RepBase(poset, tuple([poset.carrier] * k),
                                      tuple(range(k)), tuple(reversed(range(k)))))
        return sweep, three, chains

    def ops(self, inputs, seed):
        qra = self.qra
        sweep, three, chains = inputs
        points = self.sizes["sweep_points"]
        ops = [Op(f"represent {a.name} at {points}", 1,
                  self._sweep(fresh_algebra(qra, a), status, points))
               for a, status in sweep]
        ops += [Op(f"represent {a.name} at 3", 1, self._certify(fresh_algebra(qra, a)))
                for a in three]
        ops += [Op(f"Dq on the {b.points}-chain", 1, self._chain(fresh_base(qra, b)))
                for b in chains]
        random.Random(seed).shuffle(ops)
        return ops

    def _sweep(self, alg, status, points):
        qra = self.qra

        def run():
            problems = []
            result = qra.representation_search(alg, points)
            kind = verdict_kind(qra, result)
            _expect(problems, "verdict", kind, self.kind_of.get(alg.name))
            if status == "must_be_infinite" and kind != "filter_witness":
                problems.append(f"must_be_infinite variant got {kind}")
            if kind == "certificate" and not qra.verify_certificate(alg, result):
                problems.append("certificate fails verification")
            return problems

        return run

    def _certify(self, alg):
        qra = self.qra

        def run():
            problems = []
            result = qra.representation_search(alg, 3)
            kind = verdict_kind(qra, result)
            want = "certificate" if alg.name in self.certified_at_3 else None
            _expect(problems, "verdict at 3 points", kind, want)
            if kind == "certificate" and not qra.verify_certificate(alg, result):
                problems.append("certificate fails verification")
            return problems

        return run

    def _chain(self, base):
        qra = self.qra
        k = base.points

        def run():
            problems = []
            dq = qra.build_dq(base)
            _expect(problems, "carrier size", dq.algebra.size, self.chain_sizes[k])
            report = qra.validate_dqra(dq.algebra)
            if not report.ok:
                problems.append(f"Dq invalid: {report.summary()}")
            return problems

        return run


WORKLOADS = {w.name: w for w in (Census, Tables, Represent)}
