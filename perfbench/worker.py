"""Run one pass of a workload in this fresh interpreter; print one JSON line.

    python3 perfbench/worker.py <workload> <seed> <mode>

Modes: ``plain`` times the pass; ``traced`` runs it with every public
library function wrapped by the tracer and writes the spans to
``$PERFBENCH_OUT``.  Inputs are generated before any clock starts.
``run.py`` starts this script from the root of a checkout, with the
checkout's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import os
import resource
import sys


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    import workloads
    w = workloads.WORKLOADS[name]
    inputs = w.generate(seed)
    result: dict = {"workload": name, "mode": mode}

    tracer = None
    if mode == "traced":
        import importlib
        import logcy
        import tracer as tr
        modules = {layer: importlib.import_module(f"logcy.{layer}") for layer in tr.LAYERS}
        tracer = tr.Tracer()
        tracer.install(modules, [logcy, *modules.values()])
    try:
        outputs, lat, wall = w.run(inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # before the spans are post-processed, which takes memory of its own
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["calls"] = dict(zip(tracer.names, tracer.calls))
        result["yields"] = dict(zip(tracer.names, tracer.yields))
        result["self_s"] = dict(zip(tracer.names, tracer.self_times()))
        result["spans"] = len(tracer.span_start)
        out_dir = os.environ.get("PERFBENCH_OUT")
        if out_dir:
            tracer.write(os.path.join(out_dir, f"spans-{name}.bin"))

    attempted, failed = w.check(inputs, outputs)
    result.update({
        "wall_s": wall, "ops": len(lat), "attempted": attempted, "failed": failed,
        "lat_ms": [x * 1e3 for x in lat],
        "digest": workloads.digest(outputs),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
