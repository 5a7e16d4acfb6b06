import json
import os
import subprocess
import sys
from pathlib import Path

import logcy
from logcy.classify import classification_report
from logcy.cli import main
from logcy.divisor import cycle, divisor_to_obj
from logcy.duality import dual_cycle
from logcy.enumeration import Bounds, enumerate_anticanonical, jsonl_line


def write_divisor(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_matches_library(tmp_path, capsys):
    f = write_divisor(tmp_path, "d.json", {"kind": "cycle", "s": [-3, -3]})
    code, out = run(capsys, "classify", f)
    assert code == 0
    assert json.loads(out) == classification_report(cycle(-3, -3))
    assert json.loads(out)["contact"] == "convex"


def test_classify_invalid_exits_2(tmp_path, capsys):
    f = write_divisor(tmp_path, "d.json", {"kind": "cycle", "s": [1, 1, 1, 1]})
    code, out = run(capsys, "classify", f)
    assert code == 2
    assert "InvalidForLogCY" in out


def test_monodromy_output(tmp_path, capsys):
    f = write_divisor(tmp_path, "d.json", {"kind": "cycle", "s": [-2, -2]})
    code, out = run(capsys, "monodromy", f)
    assert code == 0
    assert json.loads(out) == {
        "matrix": [[3, 2], [-2, -1]], "trace": 2, "bundle_type": "parabolic",
    }


def test_monodromy_rejects_torus(tmp_path, capsys):
    f = write_divisor(tmp_path, "t.json", {"kind": "torus", "s": 5})
    code, out = run(capsys, "monodromy", f)
    assert code == 2
    assert json.loads(out)["error"] == "NotACycle"


def test_dual_and_not_eligible(tmp_path, capsys):
    f = write_divisor(tmp_path, "d.json", {"kind": "cycle", "s": [-3, -4]})
    code, out = run(capsys, "dual", f)
    assert code == 0
    assert json.loads(out) == divisor_to_obj(dual_cycle(cycle(-3, -4)))

    f = write_divisor(tmp_path, "t.json", {"kind": "torus", "s": 3})
    code, out = run(capsys, "dual", f)
    assert code == 0
    assert json.loads(out) == {"kind": "torus", "s": -3}

    f = write_divisor(tmp_path, "bad.json", {"kind": "cycle", "s": [-2, -2]})
    code, out = run(capsys, "dual", f)
    assert code == 2
    assert json.loads(out)["error"] == "NotEligible"


def test_reduce(tmp_path, capsys):
    f = write_divisor(tmp_path, "d.json", {"kind": "cycle", "s": [2, -2, -1, -1]})
    code, out = run(capsys, "reduce", f)
    assert code == 0
    obj = json.loads(out)
    assert obj["result"] == {"kind": "cycle", "s": [1, 3]}
    assert all(step["op"] == "toric_down" for step in obj["moves"])


def test_equiv_found_and_not_found(tmp_path, capsys):
    a = write_divisor(tmp_path, "a.json", {"kind": "cycle", "s": [3, -2, 0]})
    b = write_divisor(tmp_path, "b.json", {"kind": "cycle", "s": [2, -1, 0]})
    code, out = run(capsys, "equiv", a, b,
                    "--max-length", "5", "--min-entry", "-4", "--max-steps", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] is True and len(obj["path"]) == 2

    c = write_divisor(tmp_path, "c.json", {"kind": "cycle", "s": [-3, -4]})
    code, out = run(capsys, "equiv", a, c,
                    "--max-length", "5", "--min-entry", "-4", "--max-steps", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"found": False, "path": None, "reason": "NotFoundWithinBounds"}


def test_enumerate_streams_jsonl(tmp_path, capsys):
    out_path = tmp_path / "records.jsonl"
    code = main([
        "enumerate", "--max-length", "3", "--min-entry", "-2",
        "--max-moves", "2", "--param-range", "1", "--out", str(out_path),
    ])
    assert code == 0
    bounds = Bounds(max_length=3, min_entry=-2, max_moves=2, param_range=(-1, 1))
    expected = "".join(jsonl_line(r) for r in enumerate_anticanonical(bounds))
    assert out_path.read_text() == expected
    # --seed is accepted and ignored
    code = main([
        "--seed", "7", "enumerate", "--max-length", "3", "--min-entry", "-2",
        "--max-moves", "2", "--param-range=-1:1", "--out", str(out_path),
    ])
    assert code == 0
    assert out_path.read_text() == expected
    capsys.readouterr()


def test_check_pair(tmp_path, capsys):
    pair = {
        "divisor": {"kind": "cycle", "s": [1, 1, 1]},
        "basis": {"kind": "rational", "n": 0},
        "classes": [[1], [1], [1]],
        "c1": [3],
    }
    f = write_divisor(tmp_path, "p.json", pair)
    code, out = run(capsys, "check", f)
    assert code == 0
    obj = json.loads(out)
    assert obj["valid"] is True and obj["violations"] == []
    assert {"satisfied", "not_applicable"} >= {c["status"] for c in obj["constraints"]}

    pair["c1"] = [2]
    f = write_divisor(tmp_path, "p2.json", pair)
    code, out = run(capsys, "check", f)
    assert code == 0
    obj = json.loads(out)
    assert obj["valid"] is False and "class_sum" in obj["violations"]


def test_solve_exact(tmp_path, capsys):
    f = write_divisor(tmp_path, "d.json", {"kind": "cycle", "s": [0, 0, 0, 0]})
    code, out = run(capsys, "solve-exact", f, "--areas", "1,1,1,1")
    assert code == 0
    assert json.loads(out)["solvable"] is True

    f = write_divisor(tmp_path, "d2.json", {"kind": "cycle", "s": [-2, -2]})
    code, out = run(capsys, "solve-exact", f, "--areas", "1,1")
    assert code == 0
    assert json.loads(out) == {"solvable": False, "reason": "UNSOLVABLE"}

    # rational areas come back as exact p/q strings
    f = write_divisor(tmp_path, "d3.json", {"kind": "cycle", "s": [-3, -3]})
    code, out = run(capsys, "solve-exact", f, "--areas", "1/2,1/2")
    assert code == 0
    z = json.loads(out)["z"]
    assert z == ["-1/2", "-1/2"]
    assert not any("." in part for part in z)

    code, out = run(capsys, "solve-exact", f, "--areas", "1,-1")
    assert code == 2


def test_graph_dot(tmp_path, capsys):
    f = write_divisor(tmp_path, "d.json", {"kind": "cycle", "s": [0, 0, 0, 0]})
    code, out = run(capsys, "graph", f)
    assert code == 0
    assert out.count("label=") == 4
    assert out.count("--") == 4

    f = write_divisor(tmp_path, "d2.json", {"kind": "cycle", "s": [-3, -3]})
    code, out = run(capsys, "graph", f)
    assert out.count("--") == 2  # two intersection points, two parallel edges

    f = write_divisor(tmp_path, "t.json", {"kind": "torus", "s": 8})
    code, out = run(capsys, "graph", f)
    assert out.count("label=") == 1 and "--" not in out


def test_malformed_input_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["classify", str(path)]) == 1
    capsys.readouterr()
    assert main(["classify", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


def test_console_entry_point(tmp_path):
    path = tmp_path / "d.json"
    path.write_text('{"kind":"cycle","s":[-3,-3]}')
    # the child imports the same logcy as this process, installed or not
    src = str(Path(logcy.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "logcy.cli", "classify", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["contact"] == "convex"
