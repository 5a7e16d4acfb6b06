"""The logcy benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload {enumerate,search,invariants} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a logcy checkout; the library is imported from
that checkout's ``src``.  Every pass of a workload runs in a fresh
interpreter (``worker.py``) on the inputs the seed gives.  ``--trace 0``
repeats the pass until ``S`` seconds of timed work are done, times cold
starts (``setup_s``) between passes, and reports medians.
``--trace 1`` alternates two untraced and two traced passes, each in its
own interpreter, checks that they give the same outputs and the traced
ones the same call counts, and reports call counts and self time per
library function.
The last line of standard output is the JSON result; the lines before it
print each metric by name and unit, the run metadata and the checks.
Exit code 0 means every answer checked out, 1 a wrong answer, 2 an
unusable checkout or a failed worker.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle as O  # noqa: E402

WORKLOADS = ("enumerate", "search", "invariants")
SETUP_PER_PASS = 3
SETUP_MIN = 15
SETUP_CYCLE = (-3, -2, -4, 1, -2)
RUN_LIMIT_S = 170

# Library functions whose call counts and self times the traced run reports.
TRACED = (
    "divisor.canonical_form", "divisor.dihedral_images", "divisor.dihedral_index_maps",
    "divisor.intersection_matrix", "divisor.descriptors",
    "linalg.inertia", "linalg.determinant", "linalg.solve_rational",
    "monodromy.monodromy", "monodromy.bundle_type",
    "moves.toric_equivalent", "moves.apply_move", "moves.toric_blow_up",
    "moves.toric_blow_down", "moves.non_toric_blow_up",
    "homology.transport", "homology.validate_pair", "homology.check_constraints",
    "classify.classify", "classify.classification_report", "classify.exact_on_boundary",
    "classify.rigidity_witness", "classify.negative_definite", "classify.contact_from_inertia",
    "duality.dual_cycle", "duality.block_form",
    "enumeration.enumerate_anticanonical", "enumeration.is_anticanonical",
    "enumeration.catalog", "enumeration.sequence_obstructions", "enumeration.jsonl_line",
)

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "ops/s",
    "op_p50_ms": "ms", "op_p99_ms": "ms", "peak_rss_mb": "MB",
}


class WorkerFailed(RuntimeError):
    pass


def percentile(values: list[float], permille: int) -> float:
    """Nearest-rank percentile: 990 permille of 1000 values leaves 10 above it."""
    ordered = sorted(values)
    rank = max(1, -(-permille * len(ordered) // 1000))
    return ordered[rank - 1]


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def child_env(root: str, out_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PERFBENCH_OUT"] = out_dir
    return env


def worker(workload: str, seed: int, mode: str, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker did not finish before the run's deadline") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_report(seq: tuple[int, ...]) -> dict:
    tr = O.trace(seq)
    det = (-1) ** len(seq) * (tr - 2)
    bp, b0, bm = O.jacobi_inertia(seq)
    return {"inertia": [bp, b0, bm], "det": det, "trace": tr,
            "contact": "concave" if bp == 1 else "convex",
            "bundle_type": "hyperbolic" if abs(tr) > 2 else "parabolic" if abs(tr) == 2
            else "elliptic"}


def setup_launcher(env: dict, out_dir: str):
    """A function that times one fresh ``logcy classify`` launch and checks its answer.

    One untimed launch first lets the bytecode cache fill, a cost users pay
    once, not on every run.
    """
    path = os.path.join(out_dir, "setup_cycle.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "cycle", "s": list(SETUP_CYCLE)}) + "\n")
    cmd = [sys.executable, "-m", "logcy.cli", "classify", path]
    want = expected_report(SETUP_CYCLE)

    def launch() -> tuple[float, bool]:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        try:
            return elapsed, proc.returncode == 0 and json.loads(proc.stdout) == want
        except json.JSONDecodeError:
            return elapsed, False

    launch()
    return launch


def metadata(root: str, args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "logcy")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": sys.version.split()[0], "cpu": cpu,
        "git_commit": git_commit(root), "src_sha256": src.hexdigest(),
    }


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(args, env: dict, out_dir: str, deadline: float):
    launch = setup_launcher(env, out_dir)
    setup: list[tuple[float, bool]] = []
    passes = []
    timed = 0.0
    while timed < args.seconds:
        if passes and time.monotonic() + 2 * passes[-1]["wall_s"] > deadline:
            break
        setup += [launch() for _ in range(SETUP_PER_PASS)]
        passes.append(worker(args.workload, args.seed, "plain", env, deadline))
        timed += passes[-1]["wall_s"]
    while len(setup) < SETUP_MIN:
        setup.append(launch())
    # a cold-start launch is one operation of the cli layer
    attempted = sum(p["attempted"] for p in passes) + len(setup)
    failed = sum(p["failed"] for p in passes) + sum(not ok for _, ok in setup)
    notes = []
    if len({p["digest"] for p in passes}) != 1:
        notes.append("passes of one run gave different outputs")
        failed = attempted
    if any(not ok for _, ok in setup):
        notes.append("a cold-start launch gave a wrong classify report")
    samples = {
        "setup_s": [t for t, _ in setup],
        "wall_s": [p["wall_s"] for p in passes],
        "op_p50_ms": [percentile(p["lat_ms"], 500) for p in passes],
        "op_p99_ms": [percentile(p["lat_ms"], 990) for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    print("samples: " + json.dumps(samples))
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["ops_per_s"] = passes[0]["ops"] / metrics["wall_s"]
    print(f"passes: {len(passes)}, operations per pass: {passes[0]['ops']}, "
          f"cold-start launches: {len(setup)}")
    print(f"failed_ratio = {failed / attempted:.6f} ratio ({failed} of {attempted} operations)")
    out = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return out, attempted, failed, notes


def traced(args, env: dict, deadline: float):
    # untraced and traced passes alternate, so that a slow spell of the host
    # does not land on one side only
    runs = [worker(args.workload, args.seed, mode, env, deadline)
            for mode in ("plain", "traced", "plain", "traced")]
    plain, spans = runs[0::2], runs[1::2]
    notes = []
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if len({r["digest"] for r in runs}) != 1:
        notes.append("traced outputs differ from untraced outputs")
        failed = attempted
    calls = spans[0]["calls"]
    if spans[1]["calls"] != calls:
        notes.append("two traced runs gave different call counts")
        failed = attempted
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = {"value": calls[name], "unit": "count"}
        self_s = statistics.mean(r["self_s"][name] for r in spans)
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    transports = calls["homology.transport"]
    records = spans[0]["yields"]["enumeration.enumerate_anticanonical"]
    metrics["enumeration.useful_ratio"] = {
        "value": records / transports if transports else 0.0, "unit": "ratio"}
    metrics["enumeration.traced_peak_mb"] = {
        "value": max(r["peak_rss_mb"] for r in spans), "unit": "MB"}
    untraced_s = statistics.mean(r["wall_s"] for r in plain)
    traced_s = statistics.mean(r["wall_s"] for r in spans)
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    print(f"untraced wall_s = {untraced_s:.6f} s, traced wall_s = {traced_s:.6f} s "
          f"(means of two passes each), tracing overhead = {traced_s - untraced_s:.6f} s "
          f"over {spans[0]['spans']} spans a pass")
    print(f"failed_ratio = {failed / attempted:.6f} ratio ({failed} of {attempted} operations)")
    return metrics, attempted, failed, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SystemExit inside subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "logcy", "__init__.py")):
        return fail(f"{root} is not a logcy checkout: src/logcy is missing")
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = child_env(root, out_dir)
    print("meta: " + json.dumps(metadata(root, args)))
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            metrics, attempted, failed, notes = traced(args, env, deadline)
        else:
            metrics, attempted, failed, notes = end_to_end(args, env, out_dir, deadline)
    except WorkerFailed as exc:
        return fail(str(exc))
    for note in notes:
        print(f"check failed: {note}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    correct = failed == 0 and not notes
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
