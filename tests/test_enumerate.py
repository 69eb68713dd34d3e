import importlib
import itertools
import json
import time
from types import SimpleNamespace

import pytest

from qra import (
    Budget,
    census_table,
    classify,
    complex_algebra,
    count_algebras,
    count_frames,
    enumerate_frames,
    enumerate_posets,
    frame_iso,
    validate_frame,
)
from qra import search
from qra.catalog import build_catalog, match_dinfl, match_dqra
from qra.enumerate import enumerate_algebras, posets_with_upset_count
from qra.errors import BudgetExhausted, PreconditionError
from qra.oracle import brute_force_frames
from qra.order import CENSUS_ORDER, NAMED_POSETS, Poset, all_posets

PER_POSET = {
    "1": (1, 1), "2": (2, 2), "1+1": (5, 6), "3": (4, 4), "4": (8, 8),
    "1+2": (10, 10), "2x2": (16, 23), "bowtie": (11, 12),
}
PER_POSET_STRETCH = {
    "5": (17, 17), "6": (38, 36), "1+1+1": (25, 31), "1+3": (25, 25),
    "N": (22, 22), "X": (21, 23), "P": (28, 26), "d2x2": (70, 106),
    "7": (91, 81),
}


def test_per_poset_frame_counts():
    for name, (di, dq) in PER_POSET.items():
        poset = NAMED_POSETS[name]
        assert enumerate_frames(poset, "dinfl").count == di, name
        assert enumerate_frames(poset, "dqra").count == dq, name


def test_non_self_dual_posets_carry_no_frames():
    v_shape = [p for p in all_posets(3) if not p.is_self_dual][0]
    assert enumerate_frames(v_shape, "dinfl").count == 0
    assert enumerate_frames(v_shape, "dqra").count == 0


def test_kernel_matches_plain_oracle_up_to_size_three():
    for poset in all_posets(3):
        for signature in ("dinfl", "dqra"):
            slow = brute_force_frames(poset, signature)
            fast = enumerate_frames(poset, signature)
            assert len(slow) == fast.count, (poset.name, signature)
            # and the frame sets agree up to isomorphism
            for frame in fast.frames:
                assert any(frame_iso(frame, other) is not None for other in slow)


def test_emitted_frames_validate_and_are_pairwise_distinct():
    result = enumerate_frames(NAMED_POSETS["2x2"], "dqra")
    n_upsets = len(NAMED_POSETS["2x2"].upsets)
    for frame in result.frames:
        assert validate_frame(frame).ok
        assert complex_algebra(frame).size == n_upsets
    for i, a in enumerate(result.frames):
        for b in result.frames[i + 1:]:
            assert frame_iso(a, b) is None


def test_algebra_counts_up_to_six():
    expected = {1: (1, 1), 2: (1, 1), 3: (2, 2), 4: (9, 10), 5: (8, 8), 6: (43, 50)}
    for n, want in expected.items():
        assert count_algebras(n) == want, n


def test_size_four_count_decomposes_by_poset():
    chain3 = NAMED_POSETS["3"]
    pair = NAMED_POSETS["1+1"]
    assert enumerate_frames(chain3, "dqra").count == 4
    assert enumerate_frames(pair, "dqra").count == 6
    assert count_algebras(4)[1] == 10


@pytest.mark.stretch
def test_stretch_poset_rows():
    for name, (di, dq) in PER_POSET_STRETCH.items():
        poset = NAMED_POSETS[name]
        assert enumerate_frames(poset, "dinfl").count == di, name
        assert enumerate_frames(poset, "dqra").count == dq, name


def test_algebra_counts_seven_and_eight():
    assert count_algebras(7) == (49, 48)
    assert count_algebras(8) == (282, 314)


@pytest.mark.stretch
@pytest.mark.parametrize("n", (9, 10))
def test_dqra_count_past_the_cap_matches_the_negations_of_each_dinfl_algebra(n, monkeypatch):
    # a second route to the DqRA column: it shares the relation search with
    # the census, but neither the negation filter nor the orbit check of
    # the extended encodings.  Only the two routes are compared, no count
    # is pinned past size 8
    catalog = importlib.import_module("qra.catalog")  # qra.catalog is a function
    monkeypatch.setattr(importlib.import_module("qra.enumerate"), "MAX_POSET_SIZE", n - 1)
    dinfl, dqra = count_algebras(n)
    algebras = enumerate_algebras(n, "dinfl")
    assert len(algebras) == dinfl
    assert dqra == sum(len(catalog.dqra_negations(alg)) for alg in algebras)


@pytest.mark.stretch
def test_noncyclic_census():
    noncyclic7 = [a for a in enumerate_algebras(7, "dinfl") if not classify(a).cyclic]
    assert len(noncyclic7) == 1
    noncyclic7q = [a for a in enumerate_algebras(7, "dqra") if not classify(a).cyclic]
    assert len(noncyclic7q) == 2
    noncyclic8 = [a for a in enumerate_algebras(8, "dinfl") if not classify(a).cyclic]
    assert len(noncyclic8) == 1
    noncyclic8q = [a for a in enumerate_algebras(8, "dqra") if not classify(a).cyclic]
    assert len(noncyclic8q) == 2


def test_budget_checkpoint_and_resume():
    poset = NAMED_POSETS["2x2"]
    budget = Budget(max_nodes=10)
    with pytest.raises(BudgetExhausted) as excinfo:
        enumerate_frames(poset, "dqra", budget=budget)
    checkpoint = excinfo.value.checkpoint
    assert checkpoint is not None and checkpoint["next_branch"] >= 0
    resumed = enumerate_frames(poset, "dqra", resume=checkpoint)
    assert resumed.count == 23


@pytest.mark.parametrize("next_branch", (-1, 10**6, "0", True))
def test_resume_rejects_a_branch_outside_the_walk(next_branch):
    # the 3-chain has three branches, so a resume point runs from 0 to 3;
    # a slice from -1 would search the last branch alone and one past 3
    # none, each returned as a complete result
    chain = Poset.chain(3)
    with pytest.raises(BudgetExhausted) as excinfo:
        enumerate_frames(chain, "dqra", budget=Budget(max_nodes=0))
    checkpoint = excinfo.value.checkpoint
    assert enumerate_frames(chain, "dqra", resume=checkpoint).count == 4
    with pytest.raises(ValueError, match="does not match"):
        enumerate_frames(chain, "dqra", resume=dict(checkpoint, next_branch=next_branch))


def test_census_deadline_covers_the_whole_call(monkeypatch):
    # a clock that advances one millisecond at every reading: each poset
    # below finishes within 1,000 readings (d2x2 and the 7-chain take the
    # most, about 400), but no census call as a whole does
    ticks = itertools.count()
    monkeypatch.setattr(search, "time", SimpleNamespace(
        monotonic=lambda: next(ticks) / 1000.0, perf_counter=time.perf_counter))
    budget = Budget(max_ms=1000)
    assert count_frames(NAMED_POSETS["d2x2"], budget=budget) == (70, 106)
    assert count_frames(NAMED_POSETS["7"], budget=budget) == (91, 81)
    for census in (lambda: census_table(6, budget=budget),
                   lambda: count_algebras(8, budget=budget),
                   lambda: enumerate_algebras(8, "dqra", budget=budget)):
        with pytest.raises(BudgetExhausted):
            census()


def test_counting_builds_no_frames(monkeypatch):
    def refuse(*args):
        raise AssertionError("count_frames built a frame")

    monkeypatch.setattr(search, "_frame_from_encoding", refuse)
    assert count_frames(NAMED_POSETS["2x2"]) == (16, 23)


def test_resume_from_json_checkpoint():
    poset = NAMED_POSETS["2x2"]
    with pytest.raises(BudgetExhausted) as excinfo:
        enumerate_frames(poset, "dqra", budget=Budget(max_nodes=10))
    checkpoint = json.loads(json.dumps(excinfo.value.checkpoint))
    assert checkpoint["encodings"]["dqra"]  # resumed and fresh encodings mix
    resumed = enumerate_frames(poset, "dqra", resume=checkpoint)
    assert resumed.count == 23
    fresh = enumerate_frames(poset, "dqra")
    assert [f.encoding() for f in resumed.frames] == [f.encoding() for f in fresh.frames]


def test_resume_rejects_mismatched_checkpoint():
    poset = NAMED_POSETS["2x2"]
    budget = Budget(max_nodes=10)
    with pytest.raises(BudgetExhausted) as excinfo:
        enumerate_frames(poset, "dqra", budget=budget)
    with pytest.raises(ValueError):
        enumerate_frames(NAMED_POSETS["bowtie"], "dqra", resume=excinfo.value.checkpoint)


def test_parallel_jobs_match_sequential():
    poset = NAMED_POSETS["2x2"]
    seq = enumerate_frames(poset, "dqra")
    par = enumerate_frames(poset, "dqra", jobs=2)
    assert [f.encoding() for f in par.frames] == [f.encoding() for f in seq.frames]
    counters = [(r.stats.nodes, r.stats.prunes, r.stats.leaves, r.stats.cuts)
                for r in (seq, par)]
    assert counters[0] == counters[1] and seq.stats.cuts > 0


def test_count_frames_matches_enumerate_frames():
    for name in CENSUS_ORDER:
        poset = NAMED_POSETS[name]
        if poset.n > 6:
            continue
        want = (enumerate_frames(poset, "dinfl").count,
                enumerate_frames(poset, "dqra").count)
        assert count_frames(poset) == want, name


def test_census_table_parallel_matches_sequential():
    assert census_table(6, jobs=2) == census_table(6)


def test_pruned_growth_matches_full_poset_filter():
    for n in range(2, 8):
        want = [s.poset for s in enumerate_posets(n - 1)
                if s.upset_count == n and s.self_dual]
        got = posets_with_upset_count(n)
        assert [p.up for p in got] == [p.up for p in want], n
        assert [p.name for p in got] == [p.name for p in want], n


def test_count_algebras_range_guard():
    with pytest.raises(Exception):
        count_algebras(0)
    with pytest.raises(Exception):
        count_algebras(9)  # would need size-8 posets, beyond the census


@pytest.mark.parametrize("size", [0, -1])
def test_censuses_reject_sizes_below_one(size):
    for census in (census_table, count_algebras, enumerate_algebras):
        with pytest.raises(PreconditionError, match="cardinality must be at least 1"):
            census(size)


@pytest.mark.parametrize("jobs", [0, -2])
def test_searches_reject_fewer_than_one_job(jobs):
    for search_run in (lambda: enumerate_frames(Poset.chain(2), jobs=jobs),
                       lambda: count_algebras(3, jobs=jobs),
                       lambda: census_table(3, jobs=jobs)):
        with pytest.raises(PreconditionError, match="jobs must be at least 1"):
            search_run()


def test_poset_census():
    shapes = enumerate_posets(4)
    assert len(shapes) == 24
    by_name = {s.name: s for s in shapes}
    assert by_name["N"].self_dual
    assert by_name["bowtie"].upset_count == 7
    assert len(posets_with_upset_count(6)) == 3  # 5-chain, 1+2, 2x2
    assert len(posets_with_upset_count(4)) == 2  # 3-chain, 1+1


@pytest.mark.slow
def test_seventeen_selfdual_shapes():
    shapes = enumerate_posets(7)
    small = sorted(s.name for s in shapes if s.self_dual and s.upset_count <= 8)
    assert small == sorted(
        ["1", "2", "1+1", "3", "4", "1+2", "2x2", "5", "bowtie", "6",
         "1+1+1", "1+3", "N", "X", "P", "d2x2", "7"]
    )


def test_forgetting_neg_collapses_exactly_one_pair():
    # over the posets with at most four upsets the DqRA frames map onto
    # the DInFL frames with exactly one collision
    from qra.order import Poset

    posets = [Poset(()), NAMED_POSETS["1"], NAMED_POSETS["2"],
              NAMED_POSETS["3"], NAMED_POSETS["1+1"]]
    dq_frames = []
    for poset in posets:
        dq_frames.extend(enumerate_frames(poset, "dqra").frames)
    assert len(dq_frames) == 14
    stripped = [f.without_neg() for f in dq_frames]
    classes = []
    collisions = 0
    for frame in stripped:
        for cls in classes:
            if frame.size == cls.size and frame_iso(frame, cls) is not None:
                collisions += 1
                break
        else:
            classes.append(frame)
    assert len(classes) == 13
    assert collisions == 1


def test_catalog_enumeration_bijection():
    cat = build_catalog()
    for n in range(1, 7):
        names = {e.name for e in cat if e.size == n}
        seen = set()
        for alg in enumerate_algebras(n, "dinfl"):
            entry, _ = match_dinfl(alg)
            seen.add(entry.name)
        assert seen == names
        variant_keys = {
            (e.name, v.neg_desc) for e in cat if e.size == n for v in e.variants
        }
        seen_v = set()
        for alg in enumerate_algebras(n, "dqra"):
            entry, variant, _ = match_dqra(alg)
            seen_v.add((entry.name, variant.neg_desc))
        assert seen_v == variant_keys


def test_catalog_element_classes_match_computed():
    for entry in build_catalog():
        alg = entry.base
        for x in range(alg.size):
            idem = int(alg.product[x, x]) == x
            central = all(
                int(alg.product[x, y]) == int(alg.product[y, x])
                for y in range(alg.size)
            )
            want = {(True, True): "i", (True, False): "o",
                    (False, True): "I", (False, False): "O"}[(central, idem)]
            assert entry.element_classes[x] == want, (entry.name, x)


def test_catalog_k_values():
    plural = {e.name for e in build_catalog() if e.neg_count == 2}
    assert plural == {
        "D4_2_1_2", "D6_2_1_2", "D6_2_3_2", "D6_2_4_2", "D6_2_9_2",
        "D6_3_1_2", "D6_3_5_2", "D6_3_7_2",
    }


def test_budget_stops_at_the_same_branch_for_any_jobs():
    # every quota runs out part way through the search, which takes 349
    # nodes on d2x2 and 46 on 2x2
    for name, quotas in (("d2x2", (10, 50, 200, 300)), ("2x2", (1, 10, 40))):
        poset = NAMED_POSETS[name]
        for max_nodes in quotas:
            stops = []
            for jobs in (1, 2):
                with pytest.raises(BudgetExhausted) as excinfo:
                    enumerate_frames(poset, "dqra", budget=Budget(max_nodes=max_nodes),
                                     jobs=jobs)
                stops.append((str(excinfo.value),
                              json.loads(json.dumps(excinfo.value.checkpoint))))
            assert stops[0] == stops[1], (name, max_nodes)
