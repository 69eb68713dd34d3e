"""Malformed input files end in an exit code, never in a traceback.

Every field of every bundled data file, and the first entry of every
list in it, is replaced by values of the wrong type; each verb that reads
a file must then exit 0, 1 or 2 without raising.
"""

import copy
import json
from pathlib import Path

import pytest

from qra import cli
from qra.cli import main

DATA = Path(__file__).parent / "data"
WRONG = (None, "x", 2.5, -1, 2, [], [0], {}, True)
VERBS = ("check", "dual", "roundtrip", "priestley", "represent")


# a one-element algebra, whose size a JSON true would stand for
TRIVIAL = {"size": 1, "leq": [[1]], "product": [[0]], "one": 0, "tilde": [0], "minus": [0],
           "neg": [0]}


def _paths(node, path=()):
    """Every field of every object, and the first entry of every list."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list) and node:
        children = [(0, node[0])]
    else:
        return
    for step, child in children:
        yield path + (step,)
        yield from _paths(child, path + (step,))


def _mutants(obj):
    """Copies of ``obj`` with one field or entry replaced by a wrong-typed value."""
    for path in _paths(obj):
        for value in WRONG:
            mutant = copy.deepcopy(obj)
            target = mutant
            for step in path[:-1]:
                target = target[step]
            target[path[-1]] = value
            yield "/".join(map(str, path)), value, mutant


def _exit_code(argv):
    code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    return code


def test_mutated_data_files_exit_cleanly(tmp_path, capsys, monkeypatch):
    parser = cli.build_parser()  # building it dominates a run; parsing does not change it
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    path = tmp_path / "mutant.json"
    runs = 0
    for source in sorted(DATA.glob("*.json")):
        for where, value, mutant in _mutants(json.loads(source.read_text())):
            path.write_text(json.dumps(mutant))
            for verb in VERBS:
                try:
                    _exit_code([verb, str(path)])
                except Exception as exc:  # report the mutant, not just the traceback
                    raise AssertionError(
                        f"{verb} {source.name} with {where} = {value!r}: {exc!r}"
                    ) from exc
                runs += 1
    capsys.readouterr()
    assert runs > 2000


def test_broken_poset_files_exit_with_structural_code(tmp_path, capsys):
    path = tmp_path / "poset.json"
    for text in (
        "{not json",
        "[]",
        json.dumps({"name": "p"}),
        json.dumps({"leq": 5}),
        json.dumps({"leq": [[1, 0], [0]]}),
        json.dumps({"leq": [[1, "x"], [0, 1]]}),
        json.dumps({"leq": [[1, [0]], [0, 1]]}),
        json.dumps({"leq": [[1, 2], [0, 1]]}),
        json.dumps({"leq": [[1, 1], [1, 1]]}),
    ):
        path.write_text(text)
        assert _exit_code(["enumerate", "--poset", str(path)]) == 2, text
    path.write_text(json.dumps({"leq": [[1, 1], [0, True]], "name": "c2"}))
    assert _exit_code(["enumerate", "--poset", str(path)]) == 0
    assert "c2 dqra: 2 frames" in capsys.readouterr().out


def test_non_boolean_order_cells_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for source, key in (("d3_1_1.algebra.json", "leq"), ("w3_1_2.frame.json", "leq"),
                        ("chain2_full.base.json", "leq"), ("chain2_full.base.json", "E")):
        for cell in ("x", [1], 2, None, 1.0):
            obj = json.loads((DATA / source).read_text())
            obj[key][0][0] = cell
            path.write_text(json.dumps(obj))
            assert _exit_code(["check", str(path)]) == 2, (source, key, cell)
            assert f"{key} entry" in capsys.readouterr().err


def test_priestley_on_law_breaking_order_is_typed(tmp_path, capsys):
    obj = json.loads((DATA / "d3_1_1.algebra.json").read_text())
    obj["leq"][2][2] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert _exit_code(["check", str(path)]) == 1
    assert _exit_code(["priestley", str(path)]) == 2
    assert _exit_code(["priestley", "--roundtrip", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def _data(source):
    """A data file's object; "trivial" is ``TRIVIAL`` and "pointed" the
    2-chain frame W3_1_2 with its bounds."""
    if source == "trivial":
        return copy.deepcopy(TRIVIAL)
    if source == "pointed":
        return dict(_data("w3_1_2.frame.json"), bottom=0, top=1)
    return json.loads((DATA / source).read_text())


# each field holds 0 or 1, which the JSON boolean of the same value replaces,
# so only its type is wrong
@pytest.mark.parametrize("source, path", ids=str, argvalues=[
    ("trivial", ("size",)),
    ("d2_1_1.algebra.json", ("product", 1, 1)),
    ("d2_1_1.algebra.json", ("one",)),
    ("d2_1_1.algebra.json", ("tilde", 0)),
    ("d2_1_1.algebra.json", ("minus", 0)),
    ("d2_1_1.algebra.json", ("neg", 0)),
    ("w2_1_1.frame.json", ("size",)),
    ("w3_1_2.frame.json", ("identity", 0)),
    ("w3_1_2.frame.json", ("comp", 0, 0, 0)),
    ("w3_1_2.frame.json", ("tilde", 0)),
    ("w3_1_2.frame.json", ("minus", 0)),
    ("w3_1_2.frame.json", ("neg", 0)),
    ("pointed", ("bottom",)),
    ("pointed", ("top",)),
    ("point.base.json", ("points",)),
    ("chain2_full.base.json", ("alpha", 0)),
    ("chain2_full.base.json", ("beta", 0)),
    ("identity.morphism.json", ("map", 0)),
])
def test_boolean_indices_and_sizes_rejected(tmp_path, capsys, source, path):
    obj = _data(source)
    target = obj
    for step in path[:-1]:
        target = target[step]
    assert target[path[-1]] in (0, 1)
    target[path[-1]] = bool(target[path[-1]])
    file = tmp_path / "bool.json"
    file.write_text(json.dumps(obj))
    assert _exit_code(["check", str(file)]) == 2
    assert path[0] in capsys.readouterr().err


def test_boolean_order_cells_accepted(tmp_path, capsys):
    path = tmp_path / "bools.json"
    for source, keys in (("d2_1_1.algebra.json", ("leq",)),
                         ("chain2_full.base.json", ("leq", "E"))):
        obj = json.loads((DATA / source).read_text())
        for key in keys:
            obj[key] = [[bool(v) for v in row] for row in obj[key]]
        path.write_text(json.dumps(obj))
        assert _exit_code(["check", str(path)]) == 0, source
    capsys.readouterr()


def test_represent_refuses_a_law_breaking_algebra(tmp_path, capsys):
    obj = json.loads((DATA / "d3_1_1.algebra.json").read_text())
    obj["product"][2][2] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert _exit_code(["check", str(path)]) == 1
    capsys.readouterr()
    assert _exit_code(["represent", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "monoid_unit_left" in err
