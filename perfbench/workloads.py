"""The three workloads: inputs from a seed, the timed run, and the answer checks.

Each workload provides ``generate(seed)``, ``run(inputs)`` and
``check(inputs, outputs)``.  ``run`` calls the library only through
module attributes, so a tracer installed after import sees every call,
and returns plain data (tuples, strings, ints) built after the clock
stops, so that ``digest`` can compare a traced run with an untraced one.
Layers each workload drives and bypasses are listed in README.md.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
import time
from fractions import Fraction

import oracle as O
# ``logcy.classify`` names both a module and, on the package, a function
lc_classify = importlib.import_module("logcy.classify")
lc_divisor = importlib.import_module("logcy.divisor")
lc_duality = importlib.import_module("logcy.duality")
lc_enumeration = importlib.import_module("logcy.enumeration")
lc_moves = importlib.import_module("logcy.moves")

clock = time.perf_counter


def _seq(d) -> tuple[int, ...]:
    return (d.s,) if isinstance(d, lc_divisor.Torus) else d.seq


def _moves(moves) -> list:
    out = []
    for m in moves:
        index = m.edge if isinstance(m, lc_moves.ToricBlowUp) else m.component
        op = {"ToricBlowUp": "toric_up", "ToricBlowDown": "toric_down",
              "NonToricBlowUp": "nontoric_up"}[type(m).__name__]
        out.append((op, index))
    return out


def digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# enumerate: the batch closure at the ROADMAP criterion-7 bounds.

ENUM_BOUNDS = (6, -9, 8, (-3, 3))
ENUM_RECORDS = 16781
ENUM_SHA256 = "ccc87b37a1d72e6ff85633c30b30b2b950699587a4a9511a2e525c7b0d897da5"


class Enumerate:
    """One operation is one emitted JSONL record.

    Its latency is the time from the start of the enumeration call to the
    moment its line is written, which is what a consumer of the stream waits.
    """

    @staticmethod
    def generate(seed: int):
        return lc_enumeration.Bounds(*ENUM_BOUNDS)

    @staticmethod
    def run(bounds):
        buf = io.StringIO()
        stamps = []
        t0 = clock()
        for record in lc_enumeration.enumerate_anticanonical(bounds):
            buf.write(lc_enumeration.jsonl_line(record))
            stamps.append(clock())
        wall = clock() - t0
        data = buf.getvalue().encode()
        outputs = {"records": len(stamps), "bytes": len(data),
                   "sha256": hashlib.sha256(data).hexdigest()}
        return outputs, [t - t0 for t in stamps], wall

    @staticmethod
    def check(bounds, outputs) -> tuple[int, int]:
        attempted = max(outputs["records"], ENUM_RECORDS)
        ok = outputs["records"] == ENUM_RECORDS and outputs["sha256"] == ENUM_SHA256
        return attempted, 0 if ok else attempted


# ---------------------------------------------------------------------------
# search: interactive bounded queries.

# (max_length, min_entry, max_steps) of the toric-equivalence queries
EQUIV = (7, -6, 8)
RIGID = (6, -6, 3)
MEMBER = (3, -4, 3, (-1, 1))
SEARCH_MIX = (("plant", 667), ("random", 333), ("rigid", 200), ("dual", 700), ("member", 100))


def _walk(rng: random.Random, seq, steps: int, max_length: int, min_entry: int):
    """A random toric walk of ``steps`` moves that stays inside the bounds."""
    for _ in range(steps):
        k = len(seq)
        options = []
        if k + 1 <= max_length:
            options += [("toric_up", e) for e in range(k)
                        if min(seq[e], seq[(e + 1) % k]) - 1 >= min_entry]
        if k >= 3:
            options += [("toric_down", i) for i in range(k) if seq[i] == -1]
        if not options:
            break
        seq = O.apply(seq, *rng.choice(options))
    return seq


def _dihedral_pick(rng: random.Random, seq):
    return rng.choice(O.dihedral(seq))


def _random_cycle(rng: random.Random, k: int, lo: int, hi: int):
    return tuple(rng.randint(lo, hi) for _ in range(k))


class Search:
    """One operation is one query; a dual round trip counts as one."""

    @staticmethod
    def generate(seed: int):
        rng = random.Random(seed)
        length, low, steps = EQUIV
        queries = []
        for kind, count in SEARCH_MIX:
            for i in range(count):
                if kind == "plant":
                    a = _random_cycle(rng, 2 + i % 3, low + 1, 2)
                    b = _dihedral_pick(rng, _walk(rng, a, steps, length, low))
                    queries.append(("plant", a, b))
                elif kind == "random":
                    k = 2 + i % 3
                    queries.append(("random", _random_cycle(rng, k, low, 2),
                                    _random_cycle(rng, k + rng.randint(0, 1), low, 2)))
                elif kind == "rigid":
                    if i % 2 == 0:
                        shape = rng.choice([(0, 0, 0, -3), (1, 1, 0), (1, -1, -2, -1),
                                            (0, 2), (1, 5), (-1, -3), (0, -1, 0)])
                        d = _walk(rng, shape, 1 + i % 3, RIGID[0], RIGID[1])
                    else:
                        d = _random_cycle(rng, 3 + i % 2, RIGID[1] + 1, 2)
                    queries.append(("rigid", _dihedral_pick(rng, d)))
                elif kind == "dual":
                    while True:
                        d = _random_cycle(rng, 2 + i % 7, -6, -2)
                        if O.dual_eligible(d):
                            break
                    queries.append(("dual", d))
                else:
                    if i % 2 == 0:
                        d = _member(rng)
                    else:
                        # entries <= 0 keep every sequence obstruction away, so
                        # each of these queries runs the whole closure
                        d = _random_cycle(rng, 2 + i % 2, MEMBER[1], 0)
                    queries.append(("member", _dihedral_pick(rng, d)))
        rng.shuffle(queries)
        member_set = O.closure(*MEMBER)
        lib = [(q[0],) + tuple(lc_divisor.SphereCycle(s) for s in q[1:]) for q in queries]
        return {"queries": queries, "lib": lib, "member_set": member_set,
                "member_bounds": lc_enumeration.Bounds(*MEMBER)}

    @staticmethod
    def run(inputs):
        length, low, steps = EQUIV
        member_bounds = inputs["member_bounds"]
        raw = []
        lat = []
        t0 = clock()
        for q in inputs["lib"]:
            t = clock()
            kind = q[0]
            if kind == "plant" or kind == "random":
                r = lc_moves.toric_equivalent(q[1], q[2], max_length=length,
                                              min_entry=low, max_steps=steps)
            elif kind == "rigid":
                r = lc_classify.rigidity_witness(q[1], max_length=RIGID[0],
                                                 min_entry=RIGID[1], max_steps=RIGID[2])
            elif kind == "dual":
                once = lc_duality.dual_cycle(q[1])
                r = (once, lc_duality.dual_cycle(once))
            else:
                r = lc_enumeration.is_anticanonical(q[1], member_bounds)
            lat.append(clock() - t)
            raw.append(r)
        wall = clock() - t0
        return [Search._plain(q[0], r) for q, r in zip(inputs["lib"], raw)], lat, wall

    @staticmethod
    def _plain(kind, r):
        if r is None:
            return None
        if kind in ("plant", "random"):
            return [list(r.initial.seq), _moves(r.moves)]
        if kind == "rigid":
            return [r.pattern, list(r.representative.seq), list(r.word.initial.seq),
                    _moves(r.word.moves)]
        if kind == "dual":
            return [list(r[0].seq), list(r[1].seq)]
        if isinstance(r, lc_enumeration.UnknownWithinBounds):
            return ["unknown", list(r.obstructions)]
        return ["record", list(_seq(r.divisor)), r.case, r.param, _moves(r.moves)]

    @staticmethod
    def check(inputs, outputs) -> tuple[int, int]:
        failed = 0
        for q, out in zip(inputs["queries"], outputs):
            try:
                ok = Search._check_one(q, out, inputs["member_set"])
            except (ValueError, TypeError, KeyError, IndexError):
                ok = False
            failed += not ok
        return len(outputs), failed

    @staticmethod
    def _replay(start, moves, max_length, min_entry):
        seq = tuple(start)
        for op, i in moves:
            seq = O.apply(seq, op, i)
            if not O.within(seq, max_length, min_entry):
                raise ValueError("word leaves the bounds")
        return seq

    @staticmethod
    def _check_one(q, out, member_set) -> bool:
        kind = q[0]
        length, low, steps = EQUIV
        if kind in ("plant", "random"):
            a, b = q[1], q[2]
            if out is None:
                return kind == "random" and O.canon(a) != O.canon(b)
            start, word = out
            return (tuple(start) == a and len(word) <= steps
                    and all(op != "nontoric_up" for op, _ in word)
                    and O.canon(Search._replay(a, word, length, low)) == O.canon(b))
        if kind == "rigid":
            d = q[1]
            if out is None:
                return O.rigid_name(d) is None
            pattern, rep, start, word = out
            rep = tuple(rep)
            return (tuple(start) == d and len(word) <= RIGID[2]
                    and O.rigid_name(rep) == pattern
                    and O.canon(Search._replay(d, word, RIGID[0], RIGID[1])) == O.canon(rep))
        if kind == "dual":
            d = q[1]
            once, twice = (tuple(x) for x in out)
            return (O.dual_eligible(once) and once == O.canon(once)
                    and twice == O.canon(d) and O.trace(once) == O.trace(d))
        target = O.canon(q[1])
        if out[0] == "unknown":
            return target not in member_set
        _, seq, case, param, word = out
        models = {(c, p): s for c, p, s in O.catalog(MEMBER[3])}
        reached = Search._replay(models[(case, param)], word, MEMBER[0], MEMBER[1])
        return (tuple(seq) == target and O.canon(reached) == target
                and len(word) <= MEMBER[2])


def _member(rng: random.Random):
    """A cycle reachable from the catalog by blow-ups inside MEMBER bounds."""
    length, low, moves, params = MEMBER
    while True:
        seq = rng.choice(O.catalog(params))[2]
        if not O.within(seq, length, low):
            continue
        for _ in range(rng.randint(1, moves)):
            options = O.blow_up_moves(seq, length, low)
            if not options:
                break
            seq = O.apply(seq, *rng.choice(options))
        if len(seq) >= 2:
            return seq


# ---------------------------------------------------------------------------
# invariants: the exact numeric kernel on one cycle at a time.

INV_SHORT = 2550  # lengths 2..8
INV_LONG = 450    # lengths 9..32


class Invariants:
    """One operation is one cycle: its report, and every tenth its exactness witness."""

    @staticmethod
    def generate(seed: int):
        rng = random.Random(seed)
        lengths = [2 + i % 7 for i in range(INV_SHORT)] + [9 + i % 24 for i in range(INV_LONG)]
        # every tenth cycle of each length also gets an area vector
        seen: dict[int, int] = {}
        shapes = []
        for k in lengths:
            shapes.append((k, seen.get(k, 0) % 10 == 0))
            seen[k] = seen.get(k, 0) + 1
        rng.shuffle(shapes)
        items = []
        for k, with_areas in shapes:
            seq = tuple(rng.randint(-6, -2) if rng.random() < 0.8 else rng.randint(-1, 3)
                        for _ in range(k))
            areas = None
            if with_areas:
                areas = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(k)]
            items.append((seq, areas))
        lib = [(lc_divisor.SphereCycle(s), a) for s, a in items]
        return {"items": items, "lib": lib}

    @staticmethod
    def run(inputs):
        outputs = []
        lat = []
        t0 = clock()
        for d, areas in inputs["lib"]:
            t = clock()
            try:
                report = lc_classify.classification_report(d)
            except lc_divisor.PreconditionError as exc:
                report = str(exc)
            witness = None if areas is None else lc_classify.exact_on_boundary(d, areas)
            lat.append(clock() - t)
            outputs.append((report, witness))
        wall = clock() - t0
        plain = [(r, None if w is None else [str(x) for x in w]) for r, w in outputs]
        return plain, lat, wall

    @staticmethod
    def check(inputs, outputs) -> tuple[int, int]:
        failed = 0
        for (seq, areas), (report, witness) in zip(inputs["items"], outputs):
            try:
                ok = Invariants._check_one(seq, areas, report, witness)
            except (ValueError, TypeError, KeyError, ZeroDivisionError):
                ok = False
            failed += not ok
        return len(outputs), failed

    @staticmethod
    def _check_one(seq, areas, report, witness) -> bool:
        k = len(seq)
        tr = O.trace(seq)
        det = (-1) ** k * (tr - 2)
        known = None
        if det != 0:
            for r in range(k):
                known = O.jacobi_inertia(seq[r:] + seq[:r])
                if known is not None:
                    break
        if isinstance(report, str):
            ok = "InvalidForLogCY" in report and (known is None or known[0] >= 2)
        else:
            bp, b0, bm = report["inertia"]
            contact = ("concave" if bp == 1 else "convex" if b0 == 0 else "none")
            bundle = ("elliptic" if abs(tr) < 2 else "parabolic" if abs(tr) == 2
                      else "hyperbolic")
            ok = (
                bp + b0 + bm == k and bp <= 1
                and report["det"] == det and report["trace"] == tr
                and (b0 == 0) == (det != 0)
                and (det == 0 or (det > 0) == (bm % 2 == 0))
                and (known is None or tuple(report["inertia"]) == known)
                and report["contact"] == contact and report["bundle_type"] == bundle
            )
        if areas is not None:
            if witness is None:
                ok = ok and det == 0
            else:
                z = [Fraction(x) for x in witness]
                ok = ok and O.mat_vec(O.matrix(seq), z) == list(areas)
        return ok


WORKLOADS = {"enumerate": Enumerate, "search": Search, "invariants": Invariants}
