"""One fresh pipeline run in its own process, timed from outside the package.

    python3 bench/child.py SPAWNED CONFIG WORKSPACE RESULT [--setup-only] [--trace] [--check PLAN]

SPAWNED is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is shared by all processes), so setup time covers interpreter
start, `import korpus`, parse_config and PipelineRun construction. The run
ends when PipelineRun.run returns, after summary.json is written. Stage
boundaries come from the public log= callback. The result goes to RESULT as
JSON; a failing pipeline exits non-zero with its traceback on stderr.

The speed of one core of the host drifts by 10-40% over minutes, so
`probe()` times a fixed job on the same core right after setup and right
after the run; the parent scales the wall times by it (see run.py).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def probe() -> float:
    """Wall seconds of a fixed pure-Python job: string splitting and joining,
    dict counting and sorting, the kind of work the pipeline spends on."""
    start = time.perf_counter()
    words = " ".join(f"w{i * 7919 % 4001}" for i in range(40_000)).split()
    for _ in range(24):
        counts: dict[str, int] = {}
        for w in words:
            counts[w] = counts.get(w, 0) + 1
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        words = [w[::-1] for w in words]
    return time.perf_counter() - start


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("spawned", type=float)
    ap.add_argument("config", type=Path)
    ap.add_argument("workspace", type=Path)
    ap.add_argument("result", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", type=Path, help="plan.json of the workload; check the outputs")
    args = ap.parse_args()

    import numpy
    import korpus
    from korpus.pipeline import PipelineRun, parse_config

    stage_starts: dict[str, float] = {}

    def log(msg: str) -> None:
        # "[pipeline] <stage>: running"
        stage_starts.setdefault(msg.split()[1].rstrip(":"), time.monotonic())

    config, diags = parse_config(args.config)
    if config is None:
        raise SystemExit(f"invalid config: {diags}")
    run = PipelineRun(config, args.workspace, log=log)
    constructed = time.monotonic()
    result: dict = {"numpy": numpy.__version__, "korpus": korpus.__version__,
                    "probe_s": [probe()]}
    if args.setup_only:
        result["setup_s"] = constructed - args.spawned
        args.result.write_text(json.dumps(result), encoding="utf-8")
        return

    from spans import STAGES, Tracer, layer_metrics, top_level_seconds
    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        called = time.monotonic()
        run.run()
        end = time.monotonic()
    result["probe_s"].append(probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from checks import check_workspace, failed_documents, workspace_digest

    first = stage_starts[STAGES[0]]
    bounds = [stage_starts[s] for s in STAGES] + [end]
    result.update(
        setup_s=constructed - args.spawned + first - called,
        run_s=end - first,
        peak_rss_mb=peak_rss_mb,
        stages={s: bounds[i + 1] - bounds[i] for i, s in enumerate(STAGES)},
        digest=workspace_digest(args.workspace),
        failed_docs=failed_documents(args.workspace, args.config.parent / "inputs"),
    )
    if args.check:
        plan = json.loads(args.check.read_text(encoding="utf-8"))
        result["problems"] = check_workspace(args.workspace, args.config.parent / "inputs", plan)
    if tracer is not None:
        result["layers"] = {
            **{f"pipeline.stage.{s}.s": t for s, t in result["stages"].items()},
            **layer_metrics(tracer.spans, tracer.counts),
            "trace.coverage": top_level_seconds(tracer.spans) / (end - first),
        }
        result["spans"] = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
