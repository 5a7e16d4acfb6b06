import io
import json

import pytest

from logcy.classify import classify
from logcy.divisor import (
    SphereCycle,
    Torus,
    canonical_form,
    cycle,
    descriptors,
    intersection_matrix,
    torus,
)
from logcy.divisor import PreconditionError
from logcy.enumeration import (
    Bounds,
    EnumRecord,
    UnknownWithinBounds,
    catalog,
    enumerate_anticanonical,
    is_anticanonical,
    minimal_model,
    sequence_obstructions,
    write_jsonl,
)
from logcy.linalg import determinant, inertia
from logcy.monodromy import monodromy
from logcy.moves import MoveWord


SMALL = Bounds(max_length=3, min_entry=-2, max_moves=2, param_range=(-1, 1))


def expected_catalog_sequence(case, p):
    return {
        "A": torus(0),
        "B1": torus(9),
        "B2": cycle(1, 4),
        "B3": cycle(1, 1, 1),
        "C1": torus(8),
        "C2": cycle(2 * p, 4 - 2 * p) if p is not None else None,
        "C3": cycle(2 * p, 0, 2 - 2 * p) if p is not None else None,
        "C4": cycle(2 * p, 0, -2 * p, 0) if p is not None else None,
        "D2a": cycle(2 * p + 1, 3 - 2 * p) if p is not None else None,
        "D2b": cycle(4, 0),
        "D3": cycle(2 * p + 1, 0, 1 - 2 * p) if p is not None else None,
        "D4": cycle(2 * p + 1, 0, -2 * p - 1, 0) if p is not None else None,
    }[case]


def test_catalog_sequences_match_graphs():
    for entry in catalog((-3, 3)):
        assert entry.pair.divisor == expected_catalog_sequence(entry.case, entry.param)


def test_catalog_param_guards():
    with pytest.raises(PreconditionError):
        minimal_model("C2")
    with pytest.raises(PreconditionError):
        minimal_model("B3", 1)
    with pytest.raises(PreconditionError):
        minimal_model("E8")


def test_small_bounds_membership():
    records = list(enumerate_anticanonical(SMALL))
    seqs = {r.divisor for r in records}
    # two non-toric blow-ups of the triple of unit spheres reach (1, 1, 0);
    # (0, 0, 2) is a minimal model itself; (7, -1) has s_total = 10
    assert canonical_form(cycle(1, 1, 0)) in seqs
    assert canonical_form(cycle(0, 0, 2)) in seqs
    assert canonical_form(cycle(7, -1)) not in seqs
    assert sequence_obstructions(cycle(7, -1)) == ("s_total_exceeds_9",)


def test_records_replay_and_invariants():
    for r in enumerate_anticanonical(SMALL):
        word = MoveWord(minimal_model(r.case, r.param).divisor, r.moves)
        final = word.replay()
        assert final == r.pair.divisor
        if isinstance(final, SphereCycle):
            assert canonical_form(final) == r.divisor
            assert r.trace == monodromy(r.divisor).trace
        else:
            assert final == r.divisor
            assert r.trace is None
        q = intersection_matrix(r.divisor)
        assert r.inertia == inertia(q)
        assert r.det == determinant(q)
        assert r.s_total == descriptors(r.divisor).s_total
        assert r.contact == classify(r.divisor).contact
        # each blow-up move drops the total self-intersection by one
        start = descriptors(minimal_model(r.case, r.param).divisor).s_total
        assert r.s_total == start - len(r.moves)


def test_records_satisfy_filters_and_dedup():
    records = list(enumerate_anticanonical(SMALL))
    keys = [r.divisor for r in records]
    assert len(keys) == len(set(keys))
    for r in records:
        assert sequence_obstructions(r.divisor) == ()
        assert r.s_total <= 9
        if isinstance(r.divisor, SphereCycle):
            assert r.divisor == canonical_form(r.divisor)


def test_output_sorted_by_length_then_sequence():
    records = list(enumerate_anticanonical(SMALL))
    def key(r):
        if isinstance(r.divisor, Torus):
            return (1, (r.divisor.s,))
        return (len(r.divisor.seq), r.divisor.seq)
    assert [key(r) for r in records] == sorted(key(r) for r in records)


def jsonl_bytes(bounds, workers=1):
    buf = io.StringIO()
    write_jsonl(enumerate_anticanonical(bounds, workers=workers), buf)
    return buf.getvalue()


def test_determinism_across_runs_and_workers():
    bounds = Bounds(max_length=4, min_entry=-4, max_moves=4, param_range=(-2, 2))
    first = jsonl_bytes(bounds)
    assert first == jsonl_bytes(bounds)
    assert first == jsonl_bytes(bounds, workers=3)


def test_jsonl_schema():
    line = jsonl_bytes(SMALL).splitlines()[0]
    obj = json.loads(line)
    assert list(obj.keys()) == [
        "seq", "case", "param", "moves", "inertia", "trace", "s_total", "contact",
    ]
    for r in enumerate_anticanonical(SMALL):
        obj = json.loads(json.dumps(r.to_obj()))
        if isinstance(r.divisor, Torus):
            assert obj["seq"] == {"torus": r.divisor.s}
            assert obj["trace"] is None
        else:
            assert obj["seq"] == list(r.divisor.seq)
        assert all(step["op"] in ("toric_up", "toric_down", "nontoric_up") for step in obj["moves"])


def test_is_anticanonical_witnesses():
    bounds = Bounds(max_length=4, min_entry=-5, max_moves=6, param_range=(-1, 1))
    w = is_anticanonical(cycle(0, 0, 0, -5), bounds)
    assert isinstance(w, EnumRecord)
    assert w.divisor == canonical_form(cycle(0, 0, 0, -5))

    w = is_anticanonical(torus(7), bounds)
    assert isinstance(w, EnumRecord)
    assert w.divisor == torus(7)


def test_is_anticanonical_obstructed():
    bounds = Bounds(max_length=4, min_entry=-5, max_moves=4, param_range=(-1, 1))
    res = is_anticanonical(cycle(10, 10), bounds)
    assert isinstance(res, UnknownWithinBounds)
    assert "s_total_exceeds_9" in res.obstructions
    res = is_anticanonical(cycle(7, -2), bounds)
    assert isinstance(res, UnknownWithinBounds)
    assert "excluded_two_component_shape" in res.obstructions
    res = is_anticanonical(torus(10), bounds)
    assert isinstance(res, UnknownWithinBounds)
    assert res.obstructions == ("s_total_exceeds_9",)


def test_is_anticanonical_matches_enumeration():
    # the early-stopping query returns the very record the full closure emits
    for r in enumerate_anticanonical(SMALL):
        w = is_anticanonical(r.divisor, SMALL)
        assert isinstance(w, EnumRecord)
        assert (w.divisor, w.case, w.param, w.moves) == (r.divisor, r.case, r.param, r.moves)


def test_unknown_within_bounds_is_not_a_disproof():
    # reachable sequence, but the move budget is too small to see it
    tight = Bounds(max_length=4, min_entry=-5, max_moves=1, param_range=(-1, 1))
    res = is_anticanonical(cycle(0, 0, 0, -5), tight)
    assert isinstance(res, UnknownWithinBounds)
    assert res.obstructions == ()


def test_memory_cap(monkeypatch):
    monkeypatch.setenv("LOGCY_MAX_MEM", "1024")
    with pytest.raises(RuntimeError, match="LOGCY_MAX_MEM"):
        list(enumerate_anticanonical(SMALL))
    monkeypatch.setenv("LOGCY_MAX_MEM", "not-a-number")
    with pytest.raises(PreconditionError):
        list(enumerate_anticanonical(SMALL))
