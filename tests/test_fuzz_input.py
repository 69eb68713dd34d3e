"""Randomly mutated input files end in an exit code, never in a traceback.

Hypothesis edits the bundled data files: it replaces any value, at any
depth and including the whole document, by arbitrary JSON, drops a field
or a list entry, or repeats a list entry, one to three times over.  Each
command that reads a file must then exit 0, 1 or 2.  The examples are
derandomized, so every run tries the same inputs.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qra.cli import main

DATA = Path(__file__).parent / "data"
SOURCES = {path.name: json.loads(path.read_text()) for path in sorted(DATA.glob("*.json"))}
# every command that reads a file; the fuzzed path is appended to each
COMMANDS = (
    ("check",), ("complex",), ("dual",), ("roundtrip",), ("morphism-check",),
    ("priestley",), ("priestley", "--roundtrip"), ("enumerate", "--poset"),
    ("represent", "--max-points", "1"), ("iso", str(DATA / "d3_1_1.algebra.json")),
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=12,
)


def _paths(node, path=()):
    """Every position in a JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for step, child in children:
        yield from _paths(child, path + (step,))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(SOURCES[draw(st.sampled_from(sorted(SOURCES)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON_VALUES)
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        step = path[-1]
        edit = draw(st.sampled_from(("replace", "drop", "repeat")))
        if edit == "replace":
            parent[step] = draw(JSON_VALUES)
        elif edit == "drop":
            del parent[step]
        elif isinstance(parent, list):
            parent.insert(step, copy.deepcopy(parent[step]))
    return doc


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(doc=mutated_documents(), command=st.sampled_from(COMMANDS))
def test_fuzzed_data_files_exit_cleanly(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([*command, str(path)])
    assert code in (0, 1, 2), (command, doc, code)
