"""Pipeline benchmark: seeded workloads, end-to-end metrics, a traced per-layer run.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

For one workload and seed this generates the inputs (bench/workloads.py), then
for --seconds runs a fresh, full pipeline again and again, each run in a new
Python process (bench/child.py) on an empty workspace. Closed loop, one
process at a time, all on one core: the pipeline is single-threaded and its
translator runs one child at a time.

Times are in seconds at a reference speed. The speed of each core of a shared
host drifts by 10-40% over minutes, independently of the other cores, so a
wall-time median mostly shows how fast the core was in that window. Each
child therefore times a fixed pure-Python job (child.probe) right after setup
and right after the run, and each wall time is scaled by PROBE_REF_S over the
probe time next to it. The raw wall times are printed and recorded too.

--trace 0 reports the end-to-end metrics, medians over the runs:
  setup_s      process start to the first stage starting (interpreter,
               `import korpus`, parse_config, PipelineRun construction)
  run_s        all seven stages, until summary.json is written
  tok_per_s    input tokens / run_s; the base (manifest tokens of every
               input shard, training corpora and KN reference included) is
               printed with it
  peak_rss_mb  peak RSS of the process that ran the pipeline
failed_share (documents lost to a translator failure or left unscored by the
KN filter, over input documents) is printed, and is `failed` / `attempted` in
the result line.

--trace 1 alternates untraced and traced runs and reports the per-layer
metrics of bench/spans.py (medians over the traced runs), the stage times,
the tracing overhead and the share of run_s covered by top-level spans.

Every run must leave the same workspace digest, traced or not, and the first
of each kind is checked against what the generator planted (bench/checks.py).
The last stdout line is the result as JSON; a failed check exits 1, a
failed run exits 2 without a result. A full record (machine, commit, input
sizes, every sample) goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
CHILD_TIMEOUT_S = 150
MIN_RUNS = 3
# About the median child.probe() time on the 2-core host this was tuned on, so
# scaled times read close to wall times there.
PROBE_REF_S = 0.5

END_TO_END = {"setup_s": "s", "run_s": "s", "tok_per_s": "1/s", "peak_rss_mb": "MB"}


class RunFailed(Exception):
    pass


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("chunks_per_start"):
        return "chunks/start"
    if name.endswith("coverage"):
        return "share"
    return "count"


def per_layer_names() -> list[str]:
    """Every metric --trace 1 reports, in order."""
    from spans import STAGES, layer_metrics
    return ([f"pipeline.stage.{s}.s" for s in STAGES] + list(layer_metrics([], Counter()))
            + ["trace.coverage", "trace.overhead_s"])


def _child(work: Path, name: str, config: Path, *flags: str) -> dict:
    """Run bench/child.py once on a fresh workspace, which is deleted afterwards."""
    ws = work / name
    out = work / f"{name}.json"
    cmd = [sys.executable, str(HERE / "child.py"), repr(time.monotonic()),
           str(config), str(ws), str(out), *flags]
    proc = subprocess.run(cmd, env=ENV, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    shutil.rmtree(ws, ignore_errors=True)
    if proc.returncode != 0:
        raise RunFailed(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return result


def _scaled(r: dict) -> tuple[float, float]:
    """(setup_s, run_s) of one run at the reference speed: each wall time times
    PROBE_REF_S over the probe time next to it."""
    before, after = r["probe_s"]
    return r["setup_s"] * PROBE_REF_S / before, r["run_s"] * 2 * PROBE_REF_S / (before + after)


def _machine() -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"nproc": os.cpu_count(), "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit}


def bench(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, full record)."""
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        gen = work / "gen"
        subprocess.run([sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(gen)],
                       env=ENV, check=True, timeout=CHILD_TIMEOUT_S)
        plan_path = gen / "plan.json"
        plan = json.loads(plan_path.read_text(encoding="utf-8"))
        config = gen / "config.json"
        # Untimed: compiles bytecode and fills the page cache, which users pay once.
        _child(work, "warmup", config, "--setup-only")

        untraced: list[dict] = []
        traced: list[dict] = []
        start = time.monotonic()
        i = 0
        while True:
            is_traced = trace and i % 2 == 1
            flags = ["--trace"] * is_traced + ["--check", str(plan_path)] * (i < 2)
            r = _child(work, f"run-{i}", config, *flags)
            (traced if is_traced else untraced).append(r)
            i += 1
            # Stop when one more run would end nearer after the deadline than before it.
            now = time.monotonic()
            if (now + (now - start) / i / 2 >= start + seconds and len(untraced) >= MIN_RUNS
                    and (traced or not trace)):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = untraced + traced
    problems = [p for r in runs for p in r.get("problems", [])]
    digests = sorted({r["digest"] for r in runs})
    if len(digests) > 1:
        problems.append(f"runs of one seed left {len(digests)} different workspaces")
    run_s = statistics.median(_scaled(r)[1] for r in untraced)
    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = statistics.median(_scaled(r)[1] for r in traced) - run_s
    else:
        metrics = {
            "setup_s": statistics.median(_scaled(r)[0] for r in runs),
            "run_s": run_s,
            "tok_per_s": plan["input_tokens"] / run_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
    source_docs = sum(plan["source_docs"].values())
    result = {
        "correct": not problems,
        "attempted": source_docs * len(runs),
        "failed": sum(r["failed_docs"] for r in runs),
        "metrics": {k: {"value": v, "unit": END_TO_END.get(k) or unit_of(k)}
                    for k, v in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": {**_machine(), "numpy": runs[0]["numpy"], "korpus": runs[0]["korpus"]},
        "input_tokens": plan["input_tokens"], "input_docs": plan["input_docs"],
        "source_docs": source_docs, "problems": problems, "digest": digests,
        "samples": {
            "setup_s": [_scaled(r)[0] for r in runs],
            "run_s": [_scaled(r)[1] for r in untraced],
            "traced_run_s": [_scaled(r)[1] for r in traced],
            "wall_setup_s": [r["setup_s"] for r in runs],
            "wall_run_s": [r["run_s"] for r in untraced],
            "probe_s": [r["probe_s"] for r in runs],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        },
        "result": result,
        "spans": traced[-1]["spans"] if traced else [],
    }
    return result, record


def _print_summary(workload: str, record: dict) -> None:
    res = record["result"]
    m = record["machine"]
    print(f"# {workload} seed={record['seed']} runs={len(record['samples']['run_s'])}"
          f"+{len(record['samples']['traced_run_s'])} traced"
          f" input_tokens={record['input_tokens']} input_docs={record['input_docs']}"
          f" nproc={m['nproc']} python={m['python']} numpy={m['numpy']}"
          f" korpus={m['korpus']} commit={m['commit']}")
    for name, v in res["metrics"].items():
        print(f"{workload:<18} {name:<40} {v['value']:>14.6g} {v['unit']}")
    share = res["failed"] / res["attempted"]
    print(f"{workload:<18} {'failed_share':<40} {share:>14.6g} share"
          f" ({res['failed']}/{res['attempted']} documents)")
    if not record["trace"]:
        print(f"{workload:<18} tok_per_s base: {record['input_tokens']} tokens per run")
        wall = {k: statistics.median(record["samples"][f"wall_{k}"]) for k in ("setup_s", "run_s")}
        probe = statistics.median(p for ps in record["samples"]["probe_s"] for p in ps)
        print(f"{workload:<18} wall medians: setup_s {wall['setup_s']:.4g} s, run_s"
              f" {wall['run_s']:.4g} s; probe {probe:.4g} s (reference {PROBE_REF_S} s)")
    else:
        layers = {k: v["value"] for k, v in res["metrics"].items()
                  if k.startswith("layer.")}
        top = max(layers, key=layers.get)
        print(f"{workload:<18} largest layer by self time: {top} ({layers[top]:.3f} s)")
    for p in record["problems"]:
        print(f"{workload:<18} CHECK FAILED: {p}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "korpus" / "pipeline.py").is_file():
        print(f"korpus sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    # Every child inherits this: the probe must run on the core the pipeline runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    results = {}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for name in names:
        try:
            result, record = bench(name, args.seed, args.seconds, bool(args.trace))
        except (RunFailed, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        _print_summary(name, record)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
