"""JSON file formats for algebras, frames, morphisms and bases.

All formats are JSON with a fixed key order and sorted index arrays, so
parsing and re-serialising a canonical file is byte identical.  Parsers
reject ragged matrices and out-of-range indices with a structural error.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import FinAlgebra
from .errors import StructuralError
from .filters import PointedFrame
from .frame import Frame, empty_frame
from .morphism import AlgHom, FrameMap
from .order import Poset, bits, mask_of, row_masks
from .represent import RepBase


def _field(obj, key):
    try:
        return obj[key]
    except KeyError:
        raise StructuralError(f"missing key {key!r}") from None


def _matrix(rows, size, what, upper=None):
    if (not isinstance(rows, list) or len(rows) != size
            or any(not isinstance(r, list) or len(r) != size for r in rows)):
        raise StructuralError(f"{what} must be a {size}x{size} matrix")
    if upper is not None:
        for row in rows:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < upper:
                    raise StructuralError(f"{what} entry {v!r} out of range")
    return rows


def _index_array(values, size, what):
    if not isinstance(values, list) or any(
        not isinstance(v, int) or not 0 <= v < size for v in values
    ):
        raise StructuralError(f"{what} must list indices below {size}")
    return values


def _index(value, size, what):
    if not isinstance(value, int) or not 0 <= value < size:
        raise StructuralError(f"{what} must be an index below {size}")
    return value


def algebra_to_obj(alg: FinAlgebra) -> dict:
    return {
        "name": alg.name,
        "size": alg.size,
        "leq": [[int(v) for v in row] for row in alg.leq],
        "product": [[int(v) for v in row] for row in alg.product],
        "one": alg.one,
        "tilde": [int(v) for v in alg.tilde],
        "minus": [int(v) for v in alg.minus],
        "neg": None if alg.neg is None else [int(v) for v in alg.neg],
    }


def algebra_from_obj(obj: dict) -> FinAlgebra:
    size = obj.get("size")
    if not isinstance(size, int) or size < 1:
        raise StructuralError("size must be a positive integer")
    leq = _matrix(_field(obj, "leq"), size, "leq", upper=2)
    product = _matrix(_field(obj, "product"), size, "product", upper=size)
    one = _index(_field(obj, "one"), size, "one")
    tilde = _index_array(_field(obj, "tilde"), size, "tilde")
    minus = _index_array(_field(obj, "minus"), size, "minus")
    neg = obj.get("neg")
    if neg is not None:
        neg = _index_array(neg, size, "neg")
    return FinAlgebra(
        np.array(leq, dtype=bool), product, one, tilde, minus,
        neg=neg, name=obj.get("name"),
    )


def frame_to_obj(frame: Frame) -> dict:
    n = frame.size
    return {
        "name": frame.name,
        "size": n,
        "leq": frame.poset.matrix(),
        "identity": sorted(bits(frame.identity)),
        "comp": [[sorted(bits(frame.comp[x][y])) for y in range(n)] for x in range(n)],
        "tilde": list(frame.tilde),
        "minus": list(frame.minus),
        "neg": None if frame.neg is None else list(frame.neg),
    }


def frame_from_obj(obj: dict) -> Frame:
    size = obj.get("size")
    if not isinstance(size, int) or size < 0:
        raise StructuralError("size must be a non-negative integer")
    if size == 0:
        frame = empty_frame(name=obj.get("name"))
        return frame.with_neg(()) if obj.get("neg") is not None else frame
    leq = _matrix(_field(obj, "leq"), size, "leq", upper=2)
    poset = Poset.from_matrix(leq)
    identity = mask_of(_index_array(_field(obj, "identity"), size, "identity"))
    comp_rows = _matrix(_field(obj, "comp"), size, "comp")
    comp = [
        [mask_of(_index_array(cell, size, "comp entry")) for cell in row]
        for row in comp_rows
    ]
    tilde = _index_array(_field(obj, "tilde"), size, "tilde")
    minus = _index_array(_field(obj, "minus"), size, "minus")
    neg = obj.get("neg")
    if neg is not None:
        neg = _index_array(neg, size, "neg")
    return Frame(poset, identity, comp, tilde, minus, neg=neg, name=obj.get("name"))


def pointed_frame_to_obj(pf: PointedFrame) -> dict:
    obj = frame_to_obj(pf.frame)
    obj["bottom"] = pf.bottom
    obj["top"] = pf.top
    return obj


def pointed_frame_from_obj(obj: dict) -> PointedFrame:
    frame = frame_from_obj(obj)
    bottom = _index(_field(obj, "bottom"), frame.size, "bottom")
    top = _index(_field(obj, "top"), frame.size, "top")
    return PointedFrame(frame=frame, bottom=bottom, top=top)


def base_to_obj(base: RepBase) -> dict:
    n = base.points
    return {
        "points": n,
        "leq": base.poset.matrix(),
        "E": [[1 if (base.equiv[i] >> j) & 1 else 0 for j in range(n)] for i in range(n)],
        "alpha": list(base.alpha),
        "beta": None if base.beta is None else list(base.beta),
    }


def base_from_obj(obj: dict) -> RepBase:
    n = obj.get("points")
    if not isinstance(n, int) or n < 1:
        raise StructuralError("points must be a positive integer")
    leq = _matrix(_field(obj, "leq"), n, "leq", upper=2)
    emat = _matrix(_field(obj, "E"), n, "E", upper=2)
    equiv = row_masks(np.asarray(emat, dtype=bool))
    alpha = _index_array(_field(obj, "alpha"), n, "alpha")
    beta = obj.get("beta")
    if beta is not None:
        beta = _index_array(beta, n, "beta")
    return RepBase(Poset.from_matrix(leq), equiv, alpha, beta)


def morphism_to_obj(m) -> dict:
    if isinstance(m, FrameMap):
        return {
            "source": frame_to_obj(m.source),
            "target": frame_to_obj(m.target),
            "map": list(m.map),
        }
    return {
        "source": algebra_to_obj(m.source),
        "target": algebra_to_obj(m.target),
        "map": list(m.map),
    }


def _resolve_endpoint(value):
    if isinstance(value, str):
        from .bundled import bundled_lookup

        try:
            return bundled_lookup(value)
        except KeyError:
            raise StructuralError(f"no bundled object named {value!r}") from None
    if isinstance(value, dict):
        return detect_object(value)
    raise StructuralError("morphism endpoints must be names or inline objects")


def morphism_from_obj(obj: dict):
    source = _resolve_endpoint(_field(obj, "source"))
    target = _resolve_endpoint(_field(obj, "target"))
    mapping = _field(obj, "map")
    if not isinstance(mapping, list) or any(not isinstance(v, int) for v in mapping):
        raise StructuralError("map must be an array of indices")
    if isinstance(source, Frame) and isinstance(target, Frame):
        return FrameMap(source=source, target=target, map=tuple(mapping))
    if isinstance(source, FinAlgebra) and isinstance(target, FinAlgebra):
        return AlgHom(source=source, target=target, map=tuple(mapping))
    raise StructuralError("morphism endpoints must both be frames or both algebras")


def detect_object(obj: dict):
    """Route a parsed JSON object to its type by its keys."""
    if not isinstance(obj, dict):
        raise StructuralError("expected a JSON object")
    if "map" in obj:
        return morphism_from_obj(obj)
    if "points" in obj:
        return base_from_obj(obj)
    if "comp" in obj and "bottom" in obj:
        return pointed_frame_from_obj(obj)
    if "comp" in obj:
        return frame_from_obj(obj)
    if "product" in obj:
        return algebra_from_obj(obj)
    raise StructuralError("unrecognised object layout")


def to_obj(thing) -> dict:
    if isinstance(thing, FinAlgebra):
        return algebra_to_obj(thing)
    if isinstance(thing, PointedFrame):
        return pointed_frame_to_obj(thing)
    if isinstance(thing, Frame):
        return frame_to_obj(thing)
    if isinstance(thing, RepBase):
        return base_to_obj(thing)
    if isinstance(thing, (FrameMap, AlgHom)):
        return morphism_to_obj(thing)
    raise StructuralError(f"cannot serialise {type(thing).__name__}")


def canonical_dumps(obj: dict) -> str:
    return json.dumps(obj, indent=1) + "\n"


def save(thing, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(to_obj(thing)))


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StructuralError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{path}: invalid JSON at line {exc.lineno}") from None


def load(path):
    return detect_object(_read_json(path))


def load_poset(path) -> Poset:
    """A poset file: a JSON object with a square 0/1 matrix ``leq`` and an
    optional ``name``."""
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise StructuralError("expected a JSON object")
    leq = _field(obj, "leq")
    if not isinstance(leq, list):
        raise StructuralError("leq must be a square matrix")
    return Poset.from_matrix(_matrix(leq, len(leq), "leq", upper=2), name=obj.get("name"))
