"""Command line front end.

Exit codes: 0 success, 1 validation failure (a law is violated and the
report says which), 2 structural or format error, 3 search budget
exhausted (the search can be resumed with a bigger budget).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import io as qio
from .algebra import FinAlgebra, algebra_iso, classify, validate_dinfl, validate_dqra
from .bundled import bundled_lookup
from .catalog import CatalogEntry, catalog as build_named_catalog
from .enumerate import census_table
from .errors import BudgetExhausted, QraError, StructuralError
from .filters import PointedFrame, filter_frame, priestley_roundtrip, validate_pointed_frame
from .frame import (
    Frame,
    complex_algebra,
    dual_frame,
    frame_iso,
    roundtrip_algebra,
    roundtrip_frame,
    validate_frame,
)
from .morphism import AlgHom, FrameMap, validate_frame_morphism, validate_homomorphism
from .order import CENSUS_ORDER, NAMED_POSETS
from .ra import (AtomStructure4, builtin_atom_structures, family_criteria,
                 max_proper_qra_subreduct, ra_from_atoms)
from .represent import (
    RepBase,
    RepresentationCertificate,
    SearchOptions,
    representation_search,
    verify_certificate,
)
from .search import Budget, enumerate_frames

OK, LAW_FAILURE, STRUCTURAL, BUDGET = 0, 1, 2, 3


def _budget_from_env() -> Budget | None:
    raw = os.environ.get("QRA_BUDGET_MS")
    if not raw:
        return None
    try:
        ms = float(raw)
    except ValueError:
        raise StructuralError(f"QRA_BUDGET_MS={raw!r} is not a number") from None
    return Budget(max_ms=ms)


def _load_input(spec: str):
    if os.path.exists(spec):
        return qio.load(spec)
    try:
        return bundled_lookup(spec)
    except KeyError:
        raise StructuralError(f"{spec}: no such file or bundled name") from None


def _emit(obj, args):
    print(qio.canonical_dumps(qio.to_obj(obj)), end="")


def cmd_check(args) -> int:
    thing = _load_input(args.input)
    if isinstance(thing, Frame):
        kind = "DqRA-frame" if thing.has_neg() else "DInFL-frame"
        reports = [(kind, validate_frame(thing))]
    elif isinstance(thing, PointedFrame):
        reports = [("doubly-pointed frame", validate_pointed_frame(thing))]
    elif isinstance(thing, FinAlgebra):
        kind = "DqRA" if thing.has_neg() else "DInFL-algebra"
        reports = [(kind, validate_dqra(thing) if thing.has_neg() else validate_dinfl(thing))]
    elif isinstance(thing, (CatalogEntry, AtomStructure4)):
        reports = [
            (kind, validate_dqra(alg) if alg.has_neg() else validate_dinfl(alg))
            for kind, alg in _named_algebras(thing)
        ]
    elif isinstance(thing, (FrameMap, AlgHom)):
        return cmd_morphism_check(args)
    elif isinstance(thing, RepBase):
        # the constructor has already run RepBase.check()
        print(f"{type(thing).__name__}: structurally well-formed")
        return OK
    else:
        raise StructuralError(f"check cannot validate a {type(thing).__name__}")
    return _print_reports(reports)


def _named_algebras(thing) -> list[tuple[str, FinAlgebra]]:
    """The algebras behind a bundled name, each with its label: a catalogue
    entry's base DInFL-algebra and every DqRA variant, or the 16-element
    algebra of an atom table."""
    if isinstance(thing, CatalogEntry):
        return [(f"DInFL-algebra {thing.name}", thing.base)] + [
            (f"DqRA {v.algebra.name}", v.algebra) for v in thing.variants
        ]
    return [(f"DqRA {thing.name}", ra_from_atoms(thing, check=False))]


def _print_reports(reports) -> int:
    """Print each (kind, report) pair; exit code 1 when any law failed."""
    status = OK
    for kind, rep in reports:
        if rep.ok:
            print(f"{kind}: ok")
            continue
        print(f"{kind}: FAILED")
        for law, witness in rep.failures:
            print(f"  {law}: witness {witness}")
        status = LAW_FAILURE
    return status


def cmd_complex(args) -> int:
    frame = _load_input(args.input)
    if isinstance(frame, PointedFrame):
        frame = frame.frame
    if not isinstance(frame, Frame):
        raise StructuralError("complex expects a frame")
    _emit(complex_algebra(frame), args)
    return OK


def cmd_dual(args) -> int:
    alg = _load_input(args.input)
    if not isinstance(alg, FinAlgebra):
        raise StructuralError("dual expects an algebra")
    _emit(dual_frame(alg), args)
    return OK


def cmd_roundtrip(args) -> int:
    thing = _load_input(args.input)
    if isinstance(thing, FinAlgebra):
        witness = roundtrip_algebra(thing)
        print(f"algebra round-trip ok; witness {list(witness)}")
    elif isinstance(thing, Frame):
        witness = roundtrip_frame(thing)
        print(f"frame round-trip ok; witness {list(witness)}")
    elif isinstance(thing, PointedFrame):
        witness = roundtrip_frame(thing.frame)
        print(f"frame round-trip ok; witness {list(witness)}")
    elif isinstance(thing, (CatalogEntry, AtomStructure4)):
        for kind, alg in _named_algebras(thing):
            witness = roundtrip_algebra(alg)
            print(f"{kind}: algebra round-trip ok; witness {list(witness)}")
    else:
        raise StructuralError("roundtrip expects an algebra or frame")
    return OK


def cmd_iso(args) -> int:
    a = _load_input(args.left)
    b = _load_input(args.right)
    if isinstance(a, FinAlgebra) and isinstance(b, FinAlgebra):
        witness = algebra_iso(a, b)
    elif isinstance(a, Frame) and isinstance(b, Frame):
        witness = frame_iso(a, b)
    else:
        raise StructuralError("iso expects two algebras or two frames")
    if witness is None:
        print("not isomorphic")
        return LAW_FAILURE
    print(f"isomorphic; witness {list(witness)}")
    return OK


def cmd_morphism_check(args) -> int:
    thing = _load_input(args.input)
    if isinstance(thing, FrameMap):
        rep = validate_frame_morphism(thing)
        kind = "frame morphism"
    elif isinstance(thing, AlgHom):
        rep = validate_homomorphism(thing)
        kind = "homomorphism"
    else:
        raise StructuralError("morphism-check expects a morphism file")
    return _print_reports([(kind, rep)])


def cmd_enumerate(args) -> int:
    if args.poset in NAMED_POSETS:
        poset = NAMED_POSETS[args.poset]
    elif os.path.exists(args.poset):
        poset = qio.load_poset(args.poset)
    else:
        raise StructuralError(f"unknown poset {args.poset!r}")
    result = enumerate_frames(
        poset, args.signature, budget=_budget_from_env(), jobs=args.jobs
    )
    label = poset.name or "poset"
    print(
        f"{label} {args.signature}: {result.count} frames "
        f"(nodes={result.stats.nodes}, wall={result.stats.wall_s:.2f}s)"
    )
    if args.emit:
        os.makedirs(args.emit, exist_ok=True)
        for i, frame in enumerate(result.frames):
            qio.save(frame, os.path.join(args.emit, f"{label}_{args.signature}_{i}.frame.json"))
        print(f"wrote {result.count} frames to {args.emit}")
    return OK


def cmd_count(args) -> int:
    table = census_table(args.max_size, budget=_budget_from_env(), jobs=args.jobs)
    if args.format == "json":
        print(json.dumps(table, indent=1))
        return OK
    names = [n for n in CENSUS_ORDER if n in table["per_poset"]]
    width = max((len(n) for n in names), default=4) + 2
    print("Frames per poset")
    print("  poset".ljust(14) + "".join(n.rjust(width) for n in names))
    for row, label in ((0, "DInFL"), (1, "DqRA")):
        print(
            f"  {label}".ljust(14)
            + "".join(str(table["per_poset"][n][row]).rjust(width) for n in names)
        )
    print("Algebras per cardinality")
    sizes = sorted(table["by_size"])
    print("  size".ljust(14) + "".join(str(n).rjust(6) for n in sizes))
    for row, label in ((0, "DInFL"), (1, "DqRA")):
        print(
            f"  {label}".ljust(14)
            + "".join(str(table["by_size"][n][row]).rjust(6) for n in sizes)
        )
    return OK


def cmd_catalog(args) -> int:
    entries = build_named_catalog(args.max_size)
    if args.format == "json":
        payload = []
        for e in entries:
            payload.append(
                {
                    "name": e.name,
                    "display": e.display_name,
                    "size": e.size,
                    "element_classes": e.element_classes,
                    "variants": [
                        {
                            "neg": v.neg_desc,
                            "status": v.status,
                            "note": v.note,
                            "algebra": qio.algebra_to_obj(v.algebra),
                        }
                        for v in e.variants
                    ],
                }
            )
        print(json.dumps(payload, indent=1))
        return OK
    for e in entries:
        flags = classify(e.base)
        tags = [t for t, on in (
            ("commutative", flags.commutative), ("cyclic", flags.cyclic),
            ("odd", flags.odd),
        ) if on]
        print(f"{e.display_name:18s} n={e.size} classes={e.element_classes} {' '.join(tags)}")
        for v in e.variants:
            print(f"    {v.display_neg:12s} {v.status:16s} {v.note}")
    return OK


def cmd_priestley(args) -> int:
    thing = _load_input(args.input)
    if args.roundtrip and isinstance(thing, (CatalogEntry, AtomStructure4)):
        for kind, alg in _named_algebras(thing):
            witness = priestley_roundtrip(alg)
            print(f"{kind}: filter-space round-trip ok; witness {list(witness)}")
        return OK
    if not isinstance(thing, FinAlgebra):
        raise StructuralError("priestley expects an algebra")
    if args.roundtrip:
        witness = priestley_roundtrip(thing)
        print(f"filter-space round-trip ok; witness {list(witness)}")
        return OK

    _emit(filter_frame(thing), args)
    return OK


def cmd_represent(args) -> int:
    alg = _load_input(args.input)
    if not isinstance(alg, FinAlgebra):
        raise StructuralError("represent expects an algebra")
    options = SearchOptions(
        full_e_only=args.full_E, alpha_id_only=args.cyclic_only
    )
    result = representation_search(alg, args.max_points, options)
    if isinstance(result, RepresentationCertificate):
        ok = verify_certificate(alg, result)
        payload = {
            "result": "certificate",
            "verified": ok,
            "base": qio.base_to_obj(result.base),
            "embedding": list(result.embedding),
            "carrier_size": result.carrier_size,
        }
        print(json.dumps(payload, indent=1))
        return OK if ok else LAW_FAILURE
    undecided = result.bases_undecided > 0
    payload = {
        "result": "undecided" if undecided else "exhausted",
        "max_points": result.max_points,
        "bases_tried": result.bases_tried,
        "bases_skipped_over_cap": result.bases_skipped_over_cap,
        "bases_undecided": result.bases_undecided,
        "filter_witness": result.filter_witness,
        "note": result.note,
    }
    print(json.dumps(payload, indent=1))
    return BUDGET if undecided else OK


def cmd_subreducts(args) -> int:
    structs = builtin_atom_structures()
    if args.index is not None:
        structs = [s for s in structs if s.index == args.index]
        if not structs:
            raise StructuralError(f"no atom structure with index {args.index}")
    rows = []
    for s in structs:
        family = family_criteria(s)
        sub = max_proper_qra_subreduct(s)
        rows.append(
            {
                "index": s.index,
                "family": family,
                "subreduct_size": None if sub is None else sub.size,
                "lattice": None if sub is None else
                    ("2x2x3" if sub.size == 12 else "2x4"),
                "frame_poset": None if sub is None else sub.frame_poset,
                "commutative": None if sub is None else sub.commutative,
                "annotation": None if sub is None else sub.annotation,
            }
        )
    if args.format == "json":
        print(json.dumps(rows, indent=1))
        return OK
    print("index  family  size  poset   commutative  annotation")
    for r in rows:
        print(
            f"{r['index']:5d}  {r['family']:6s}  {str(r['subreduct_size'] or '-'):4s}  "
            f"{str(r['frame_poset'] or '-'):6s}  {str(r['commutative'] if r['commutative'] is not None else '-'):11s}  "
            f"{r['annotation'] or '-'}"
        )
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qra",
        description="finite model engine for DInFL-algebras and quasi relation algebras",
    )
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for searches")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="validate an algebra, frame, base or morphism")
    p.add_argument("input")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("complex", help="complex algebra of a frame")
    p.add_argument("input")
    p.set_defaults(func=cmd_complex)

    p = sub.add_parser("dual", help="dual frame of an algebra")
    p.add_argument("input")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("roundtrip", help="verify the duality round-trip")
    p.add_argument("input")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("iso", help="isomorphism between two algebras or frames")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("morphism-check", help="validate a morphism file")
    p.add_argument("input")
    p.set_defaults(func=cmd_morphism_check)

    p = sub.add_parser("enumerate", help="enumerate frames over a poset")
    p.add_argument("--poset", required=True)
    p.add_argument("--signature", choices=("dinfl", "dqra"), default="dqra")
    p.add_argument("--emit", metavar="DIR")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count", help="frame and algebra censuses")
    p.add_argument("--max-size", type=int, default=6)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("catalog", help="named catalog of small algebras")
    p.add_argument("--max-size", type=int, default=6)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("priestley", help="filter-space construction")
    p.add_argument("input")
    p.add_argument("--roundtrip", action="store_true")
    p.set_defaults(func=cmd_priestley)

    p = sub.add_parser("represent", help="search for a finite representation")
    p.add_argument("input")
    p.add_argument("--max-points", type=int, default=2)
    p.add_argument("--full-E", action="store_true")
    p.add_argument("--cyclic-only", action="store_true")
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("subreducts", help="proper qRA subreducts of the 4-atom tables")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--index", type=int)
    group.add_argument("--all", action="store_true")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_subreducts)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return BUDGET
    except StructuralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STRUCTURAL
    except QraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
