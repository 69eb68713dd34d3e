"""Bundled named objects: the small frame catalog and lookups.

The frame names follow the W{u}_{m}_{i}[a|b] scheme where u counts the
upsets of the frame (equals the cardinality of the complex algebra).
Frames are stored with points listed bottom-to-top in the frame order;
``identity`` is the upset generated by the designated identity points.
``minus`` is the inverse of ``tilde`` throughout; for every frame here
the two happen to coincide, which the tests check rather than assume.
"""

from __future__ import annotations

from functools import lru_cache

from .frame import Frame, empty_frame
from .order import Poset, mask_of

# name -> (point names bottom-to-top, cover pairs, identity points,
#          comp by point name, tilde cycle notation, neg)
_FRAME_DATA = {
    "W2_1_1": (
        ["e"], [], ["e"],
        {("e", "e"): ["e"]},
        {"e": "e"}, {"e": "e"},
    ),
    "W3_1_1": (
        ["e", "u"], [(0, 1)], ["e"],
        {("u", "u"): [], ("u", "e"): ["u"], ("e", "u"): ["u"], ("e", "e"): ["e", "u"]},
        {"e": "u", "u": "e"}, {"e": "u", "u": "e"},
    ),
    "W3_1_2": (
        ["u", "e"], [(0, 1)], ["e"],
        {("e", "e"): ["e"], ("e", "u"): ["e", "u"], ("u", "e"): ["e", "u"],
         ("u", "u"): ["e", "u"]},
        {"e": "u", "u": "e"}, {"e": "u", "u": "e"},
    ),
    "W4_1_1": (
        ["e", "u", "v"], [(0, 1), (1, 2)], ["e"],
        {("v", "v"): [], ("v", "u"): [], ("v", "e"): ["v"],
         ("u", "v"): [], ("u", "u"): ["u", "v"], ("u", "e"): ["u", "v"],
         ("e", "v"): ["v"], ("e", "u"): ["u", "v"], ("e", "e"): ["e", "u", "v"]},
        {"v": "e", "u": "u", "e": "v"}, {"v": "e", "u": "u", "e": "v"},
    ),
    "W4_1_2": (
        ["e", "u", "v"], [(0, 1), (1, 2)], ["e"],
        {("v", "v"): [], ("v", "u"): [], ("v", "e"): ["v"],
         ("u", "v"): [], ("u", "u"): ["v"], ("u", "e"): ["u", "v"],
         ("e", "v"): ["v"], ("e", "u"): ["u", "v"], ("e", "e"): ["e", "u", "v"]},
        {"v": "e", "u": "u", "e": "v"}, {"v": "e", "u": "u", "e": "v"},
    ),
    "W4_1_3": (
        ["u", "e", "v"], [(0, 1), (1, 2)], ["e"],
        {("v", "v"): ["v"], ("v", "e"): ["v"], ("v", "u"): ["e", "u", "v"],
         ("e", "v"): ["v"], ("e", "e"): ["e", "v"], ("e", "u"): ["e", "u", "v"],
         ("u", "v"): ["e", "u", "v"], ("u", "e"): ["e", "u", "v"],
         ("u", "u"): ["e", "u", "v"]},
        {"v": "u", "e": "e", "u": "v"}, {"v": "u", "e": "e", "u": "v"},
    ),
    "W4_1_4": (
        ["u", "v", "e"], [(0, 1), (1, 2)], ["e"],
        {("e", "e"): ["e"], ("e", "v"): ["e", "v"], ("e", "u"): ["e", "u", "v"],
         ("v", "e"): ["e", "v"], ("v", "v"): ["e", "u", "v"],
         ("v", "u"): ["e", "u", "v"], ("u", "e"): ["e", "u", "v"],
         ("u", "v"): ["e", "u", "v"], ("u", "u"): ["e", "u", "v"]},
        {"e": "u", "v": "v", "u": "e"}, {"e": "u", "v": "v", "u": "e"},
    ),
    "W4_2_1a": (
        ["e", "f"], [], ["e", "f"],
        {("e", "e"): ["e"], ("e", "f"): [], ("f", "e"): [], ("f", "f"): ["f"]},
        {"e": "e", "f": "f"}, {"e": "e", "f": "f"},
    ),
    "W4_2_1b": (
        ["e", "f"], [], ["e", "f"],
        {("e", "e"): ["e"], ("e", "f"): [], ("f", "e"): [], ("f", "f"): ["f"]},
        {"e": "e", "f": "f"}, {"e": "f", "f": "e"},
    ),
    "W4_2_2": (
        ["e", "u"], [], ["e"],
        {("e", "e"): ["e"], ("e", "u"): ["u"], ("u", "e"): ["u"], ("u", "u"): ["e"]},
        {"e": "e", "u": "u"}, {"e": "e", "u": "u"},
    ),
    "W4_2_3": (
        ["e", "u"], [], ["e"],
        {("e", "e"): ["e"], ("e", "u"): ["u"], ("u", "e"): ["u"],
         ("u", "u"): ["e", "u"]},
        {"e": "e", "u": "u"}, {"e": "e", "u": "u"},
    ),
    "W4_3_1": (
        ["e", "u"], [], ["e"],
        {("e", "e"): ["e"], ("e", "u"): ["u"], ("u", "e"): ["u"], ("u", "u"): ["e"]},
        {"e": "u", "u": "e"}, {"e": "u", "u": "e"},
    ),
    "W4_3_2": (
        ["e", "u"], [], ["e"],
        {("e", "e"): ["e"], ("e", "u"): ["u"], ("u", "e"): ["u"], ("u", "u"): []},
        {"e": "u", "u": "e"}, {"e": "u", "u": "e"},
    ),
}


@lru_cache(maxsize=None)
def bundled_frames() -> dict[str, Frame]:
    out = {"W1_1_1": empty_frame(name="W1_1_1")}
    out["W1_1_1"] = out["W1_1_1"].with_neg(())
    for name, (points, covers, ident, comp, tilde, neg) in _FRAME_DATA.items():
        n = len(points)
        pos = {p: i for i, p in enumerate(points)}
        poset = Poset.from_covers(n, covers)
        identity = poset.upset_closure(mask_of(pos[p] for p in ident))
        table = [[0] * n for _ in range(n)]
        for (x, y), val in comp.items():
            table[pos[x]][pos[y]] = mask_of(pos[v] for v in val)
        tilde_perm = [pos[tilde[p]] for p in points]
        minus_perm = [tilde_perm.index(i) for i in range(n)]
        neg_perm = [pos[neg[p]] for p in points]
        out[name] = Frame(
            poset, identity, table, tilde_perm, minus_perm, neg=neg_perm, name=name
        )
    return out


def bundled_frame(name: str) -> Frame:
    frames = bundled_frames()
    if name not in frames:
        raise KeyError(f"no bundled frame named {name!r}")
    return frames[name]


def bundled_lookup(name: str):
    """Find any bundled object (frame, atom structure, catalog algebra)."""
    frames = bundled_frames()
    if name in frames:
        return frames[name]
    if name.startswith("RA"):
        from .ra import atom_structure

        try:
            return atom_structure(int(name[2:]))
        except (ValueError, KeyError):
            raise KeyError(f"no bundled object named {name!r}") from None
    from .catalog import catalog_lookup

    try:
        return catalog_lookup(name)
    except KeyError:
        raise KeyError(f"no bundled object named {name!r}") from None
