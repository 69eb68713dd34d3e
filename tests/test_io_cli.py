import json
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from qra import cli
from qra import io as qio
from qra.bundled import bundled_frame, bundled_frames, bundled_lookup
from qra.catalog import catalog_lookup
from qra.cli import main
from qra.algebra import validate_dqra
from qra.errors import StructuralError
from qra.filters import PointedFrame, priestley_roundtrip
from qra.frame import Frame, complex_algebra, frame_iso, roundtrip_algebra
from qra.morphism import AlgHom
from qra.represent import RepBase, SearchOptions
from qra.order import Poset
from qra.ra import ra_from_atoms

DATA = Path(__file__).parent / "data"


def test_bundled_files_reserialize_byte_identical():
    for path in sorted(DATA.glob("*.json")):
        raw = path.read_text()
        obj = qio.load(path)
        assert qio.canonical_dumps(qio.to_obj(obj)) == raw, path.name


def test_frame_file_roundtrip(tmp_path):
    frame = bundled_frame("W4_1_3")
    target = tmp_path / "frame.json"
    qio.save(frame, target)
    back = qio.load(target)
    assert frame_iso(back, frame) == list(range(frame.size))


def test_ragged_and_out_of_range_rejected(tmp_path):
    good = json.loads((DATA / "d2_1_1.algebra.json").read_text())
    bad = dict(good)
    bad["leq"] = [[1, 1], [0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(StructuralError):
        qio.load(path)
    bad2 = dict(good)
    bad2["product"] = [[0, 5], [0, 1]]
    path.write_text(json.dumps(bad2))
    with pytest.raises(StructuralError):
        qio.load(path)
    path.write_text("{not json")
    with pytest.raises(StructuralError):
        qio.load(path)


def test_base_file_roundtrip(tmp_path):
    base = RepBase(Poset.chain(2), (3, 3), (0, 1), (1, 0))
    path = tmp_path / "base.json"
    qio.save(base, path)
    back = qio.load(path)
    assert isinstance(back, RepBase)
    assert back.alpha == base.alpha and back.beta == base.beta


def test_bundled_lookup():
    assert bundled_lookup("W4_1_3").size == 3
    assert bundled_lookup("RA13").index == 13
    assert bundled_lookup("D3_1_2").name == "D3_1_2"
    with pytest.raises(KeyError):
        bundled_lookup("nope")


def run_cli(*argv):
    return main(list(argv))


def test_cli_check_ok(capsys):
    assert run_cli("check", str(DATA / "w3_1_2.frame.json")) == 0
    assert "DqRA-frame: ok" in capsys.readouterr().out


def test_cli_check_law_failure(tmp_path, capsys):
    frame = bundled_frame("W3_1_2")
    obj = qio.frame_to_obj(frame)
    obj["comp"][0][0] = [0]  # not an upset: breaks the composition law
    path = tmp_path / "broken.frame.json"
    path.write_text(qio.canonical_dumps(obj))
    assert run_cli("check", str(path)) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out and "witness" in out


def test_cli_check_structural_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"size": 2, "leq": [[1, 1], [0]]}')
    assert run_cli("check", str(path)) == 2


def test_cli_check_missing_key(tmp_path, capsys):
    obj = json.loads((DATA / "d2_1_1.algebra.json").read_text())
    del obj["leq"]
    path = tmp_path / "no_leq.algebra.json"
    path.write_text(json.dumps(obj))
    assert run_cli("check", str(path)) == 2
    assert "missing key 'leq'" in capsys.readouterr().err


def test_cli_roundtrip_all_bundled(capsys):
    for name in bundled_frames():
        assert run_cli("roundtrip", name) == 0, name


def test_cli_count(capsys):
    assert run_cli("count", "--max-size", "4") == 0
    out = capsys.readouterr().out
    assert "DqRA" in out and "10" in out


@pytest.mark.parametrize("argv", [
    ("count", "--max-size", "0"),
    ("count", "--max-size", "-1"),
    ("--jobs", "0", "count", "--max-size", "3"),
    ("--jobs", "-2", "count", "--max-size", "3"),
    ("--jobs", "0", "enumerate", "--poset", "2x2"),
])
def test_cli_rejects_sizes_and_jobs_below_one(argv, capsys):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be at least 1" in captured.err


def test_cli_count_json(capsys):
    assert run_cli("count", "--max-size", "3", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["by_size"]["3"] == [2, 2] or payload["by_size"][3] == [2, 2]


def test_cli_enumerate_and_emit(tmp_path, capsys):
    assert run_cli("enumerate", "--poset", "bowtie", "--signature", "dqra",
                   "--emit", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "12 frames" in out
    emitted = sorted(tmp_path.glob("*.frame.json"))
    assert len(emitted) == 12
    assert run_cli("check", str(emitted[0])) == 0


def test_cli_enumerate_emit_names_unnamed_poset_files(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"leq": [[1, 1], [0, 1]]}))
    out_dir = tmp_path / "frames"
    assert run_cli("enumerate", "--poset", str(path), "--signature", "dqra",
                   "--emit", str(out_dir)) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.startswith("poset dqra: 2 frames")
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "poset_dqra_0.frame.json", "poset_dqra_1.frame.json"]


def test_cli_enumerate_emit_refuses_a_poset_name_with_a_path(tmp_path, capsys):
    # the file names start with the poset name, so "../escaped" would put
    # the frames of the 2-antichain in the parent of the --emit directory
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"name": "../escaped", "leq": [[1, 0], [0, 1]]}))
    out_dir = tmp_path / "frames"
    assert run_cli("enumerate", "--poset", str(path), "--signature", "dqra",
                   "--emit", str(out_dir)) == 2
    assert "path separator" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json"]


def test_cli_catalog(capsys):
    assert run_cli("catalog", "--max-size", "3") == 0
    out = capsys.readouterr().out
    assert "D^3_{1,2}" in out
    assert run_cli("catalog", "--max-size", "4", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert sum(1 for e in payload if e["size"] == 4) == 9


def test_cli_priestley(capsys):
    assert run_cli("priestley", "--roundtrip", str(DATA / "d3_1_2.algebra.json")) == 0
    assert "round-trip ok" in capsys.readouterr().out


def test_cli_iso(capsys):
    assert run_cli("iso", "W4_2_1a", "W4_2_1b") == 1
    assert run_cli("iso", "W4_2_1a", "W4_2_1a") == 0


def test_cli_morphism_check(capsys):
    assert run_cli("morphism-check", str(DATA / "identity.morphism.json")) == 0


def test_cli_represent(capsys):
    assert run_cli("represent", str(DATA / "d2_1_1.algebra.json"),
                   "--max-points", "1") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "certificate" and payload["verified"]


def test_cli_represent_prints_the_pinned_certificates(capsys, tmp_path):
    # the bytes qra represent printed when its verifier still built Dq(E)
    d4_2_3 = tmp_path / "d4_2_3.algebra.json"
    qio.save(catalog_lookup("D4_2_3").variants[0].algebra, d4_2_3)
    cases = [
        (DATA / "d2_1_1.algebra.json", "1",
         {"points": 1, "leq": [[1]], "E": [[1]], "alpha": [0], "beta": [0]}, [0, 1], 2),
        (d4_2_3, "3",
         {"points": 3, "leq": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "E": [[1, 1, 1]] * 3,
          "alpha": [0, 1, 2], "beta": [0, 1, 2]}, [0, 108, 403, 511], 512),
    ]
    for path, points, base, embedding, size in cases:
        assert run_cli("represent", str(path), "--max-points", points) == 0
        payload = {"result": "certificate", "verified": True, "base": base,
                   "embedding": embedding, "carrier_size": size}
        assert capsys.readouterr().out == json.dumps(payload, indent=1) + "\n"


@pytest.mark.parametrize("points", ["0", "-1"])
def test_cli_represent_needs_a_point(capsys, points):
    assert run_cli("represent", str(DATA / "d2_1_1.algebra.json"), "--max-points", points) == 2
    assert "at least 1" in capsys.readouterr().err


def test_cli_represent_filtered(capsys):
    assert run_cli("represent", str(DATA / "d3_1_1.algebra.json"),
                   "--max-points", "2") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "exhausted"
    assert payload["filter_witness"] is not None


def test_cli_represent_undecided(capsys, monkeypatch):
    path = str(DATA / "d4_1_3.algebra.json")
    assert run_cli("represent", path, "--max-points", "2") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "exhausted" and payload["bases_undecided"] == 0
    monkeypatch.setattr(cli, "SearchOptions", partial(SearchOptions, embed_budget=12))
    assert run_cli("represent", path, "--max-points", "2") == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "undecided"
    assert (payload["bases_tried"], payload["bases_undecided"]) == (7, 5)


def test_cli_subreducts(capsys):
    assert run_cli("subreducts", "--index", "13") == 0
    out = capsys.readouterr().out
    assert "B8" in out and "1+3" in out
    assert run_cli("subreducts", "--all", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 37


def test_cli_unknown_input(capsys):
    assert run_cli("check", "definitely_not_here.json") == 2


def test_cli_budget_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QRA_BUDGET_MS", "0.0001")
    code = run_cli("enumerate", "--poset", "2x2", "--signature", "dqra")
    assert code == 3


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qra.cli", "check", "W2_1_1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_cli_check_bundled_algebras(capsys):
    assert run_cli("check", "D4_2_1_2") == 0
    assert capsys.readouterr().out.splitlines() == [
        "DInFL-algebra D4_2_1_2: ok",
        "DqRA D4_2_1_2: ok",
        "DqRA D4_2_1_2[a=a]: ok",
    ]
    assert run_cli("check", "RA13") == 0
    assert capsys.readouterr().out == "DqRA RA13: ok\n"


@pytest.mark.parametrize("argv, check, line", [
    (("roundtrip",), roundtrip_algebra, "algebra round-trip ok"),
    (("priestley", "--roundtrip"), priestley_roundtrip, "filter-space round-trip ok"),
])
def test_cli_roundtrips_on_bundled_names(capsys, argv, check, line):
    entry = bundled_lookup("D4_2_1_2")
    assert run_cli(*argv, "D4_2_1_2") == 0
    algebras = [("DInFL-algebra", entry.base)] + [("DqRA", v.algebra) for v in entry.variants]
    assert capsys.readouterr().out.splitlines() == [
        f"{kind} {alg.name}: {line}; witness {list(check(alg))}" for kind, alg in algebras
    ]
    assert run_cli(*argv, "RA13") == 0
    ra13 = ra_from_atoms(bundled_lookup("RA13"))
    assert capsys.readouterr().out == f"DqRA RA13: {line}; witness {list(check(ra13))}\n"


@pytest.mark.parametrize("argv", [("dual",), ("priestley",), ("represent",)])
def test_cli_other_verbs_reject_bundled_names(capsys, argv):
    for name in ("D4_1_3", "RA13"):
        assert run_cli(*argv, name) == 2
        assert "expects an algebra" in capsys.readouterr().err


def test_cli_check_broken_atom_structure_and_unknown_type(monkeypatch, capsys):
    from qra import cli
    from qra.ra import AtomStructure4

    good = bundled_lookup("RA13")
    broken = AtomStructure4(good.index, ((1, 2, 4, 8),) * 4)
    monkeypatch.setattr(cli, "_load_input", lambda spec: broken)
    assert run_cli("check", "RA13") == 1
    assert "DqRA RA13: FAILED" in capsys.readouterr().out
    monkeypatch.setattr(cli, "_load_input", lambda spec: object())
    assert run_cli("check", "anything") == 2
    assert "cannot validate" in capsys.readouterr().err


def _exit_cleanly(capsys, *argv):
    """Run the CLI; return its exit code after checking stderr holds no traceback."""
    code = run_cli(*argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def test_cli_complex_of_bundled_frame(capsys):
    assert run_cli("complex", "W3_1_2") == 0
    alg = qio.algebra_from_obj(json.loads(capsys.readouterr().out))
    assert alg.size == 3 and validate_dqra(alg).ok


def test_cli_complex_of_a_pointed_frame_file_and_not_of_an_algebra(tmp_path, capsys):
    # a pointed frame's complex algebra is its frame's; an algebra is refused
    assert run_cli("priestley", str(DATA / "d3_1_2.algebra.json")) == 0
    path = tmp_path / "filters.json"
    path.write_text(capsys.readouterr().out)
    assert run_cli("complex", str(path)) == 0
    got = capsys.readouterr().out
    assert got == qio.canonical_dumps(qio.to_obj(complex_algebra(qio.load(path).frame)))
    code, err = _exit_cleanly(capsys, "complex", str(DATA / "d3_1_2.algebra.json"))
    assert code == 2 and err == "error: complex expects a frame\n"


def test_cli_priestley_output_reads_back(tmp_path, capsys):
    assert run_cli("priestley", str(DATA / "d3_1_2.algebra.json")) == 0
    path = tmp_path / "filters.json"
    path.write_text(capsys.readouterr().out)
    assert isinstance(qio.load(path), PointedFrame)
    assert run_cli("check", str(path)) == 0
    assert run_cli("roundtrip", str(path)) == 0
    assert "frame round-trip ok" in capsys.readouterr().out


def test_cli_morphism_check_algebra_homomorphism(tmp_path, capsys):
    alg = qio.load(DATA / "d4_1_3.algebra.json")
    path = tmp_path / "hom.json"
    path.write_text(qio.canonical_dumps(qio.to_obj(AlgHom(alg, alg, tuple(range(alg.size))))))
    assert run_cli("morphism-check", str(path)) == 0
    assert "homomorphism: ok" in capsys.readouterr().out
    path.write_text(qio.canonical_dumps(qio.to_obj(AlgHom(alg, alg, (0,) * alg.size))))
    assert run_cli("morphism-check", str(path)) == 1
    out = capsys.readouterr().out
    assert "homomorphism: FAILED" in out and "unit_preserved" in out


def test_cli_iso_of_algebras(tmp_path, capsys):
    alg = qio.load(DATA / "d4_1_3.algebra.json")
    path = tmp_path / "relabelled.algebra.json"
    qio.save(alg.relabel([2, 0, 3, 1]), path)
    assert run_cli("iso", str(DATA / "d4_1_3.algebra.json"), str(path)) == 0
    assert capsys.readouterr().out.startswith("isomorphic; witness")
    assert run_cli("iso", str(DATA / "d3_1_1.algebra.json"),
                   str(DATA / "d3_1_2.algebra.json")) == 1
    assert capsys.readouterr().out == "not isomorphic\n"


def test_cli_os_errors_exit_2_without_traceback(tmp_path, capsys):
    # --emit names a directory to make, which an existing file cannot be
    taken = tmp_path / "taken"
    taken.write_text("")
    code, err = _exit_cleanly(capsys, "enumerate", "--poset", "2", "--emit", str(taken))
    assert code == 2 and err.startswith("error:")


def test_cli_complex_refuses_a_frame_past_memory_while_listing_upsets(tmp_path, capsys):
    # a 40-point antichain has 2^40 up-sets; listing stops past the most
    # whose product table fits in memory
    n = 40
    path = tmp_path / "antichain.frame.json"
    qio.save(Frame(Poset.antichain(n), 0, [[0] * n] * n, range(n), range(n)), path)
    code, err = _exit_cleanly(capsys, "complex", str(path))
    assert code == 2 and "physical memory" in err


def test_cli_bad_requests_exit_2_without_traceback(tmp_path, capsys, monkeypatch):
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    frame_file = str(DATA / "w3_1_2.frame.json")
    alg_file = str(DATA / "d3_1_2.algebra.json")
    for argv in (
        ("enumerate", "--poset", "nosuch"),
        ("represent", frame_file),
        ("subreducts", "--index", "99"),
        ("check", str(tmp_path / "missing.json")),
        ("check", str(array)),
        ("iso", frame_file, alg_file),
        ("morphism-check", alg_file),
    ):
        code, err = _exit_cleanly(capsys, *argv)
        assert code == 2 and err.startswith("error:"), argv
    monkeypatch.setenv("QRA_BUDGET_MS", "soon")
    code, err = _exit_cleanly(capsys, "enumerate", "--poset", "2x2")
    assert code == 2 and "QRA_BUDGET_MS" in err
    # a NaN deadline never passes and a negative one has always passed
    for raw in ("nan", "inf", "-5"):
        monkeypatch.setenv("QRA_BUDGET_MS", raw)
        code, err = _exit_cleanly(capsys, "count", "--max-size", "5")
        assert code == 2 and "QRA_BUDGET_MS" in err, raw
