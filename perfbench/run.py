"""Benchmark of `exqual run`, end to end and per module.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout that holds src/exqual. Each measured run is
a fresh child process (child.py) doing `run_experiment` + `emit_report` on the
workload's config, with the seed as `global_seed`. Child runs repeat until the
next one would overrun --seconds (at least one). With --trace 1 one more,
traced child follows; it gives the per-layer metrics, and its run time
against the untraced median gives the tracing overhead.

Every child's outputs are checked, and all children of one invocation must
write the same bundle.json (determinism). The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the lines before it say
what was measured. Exit code 0 when every check passed, 1 when one failed,
2 when the checkout holds no exqual source.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src", "exqual")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
DEADLINE_S = 170.0  # the whole invocation must end within 180 s


def spawn_child(run_dir: str, config_path: str, workers: int, trace: bool,
                timeout: float) -> dict:
    """One child run in run_dir; its result plus setup_s and wall_s."""
    os.makedirs(run_dir)
    shutil.copy(config_path, os.path.join(run_dir, "config.json"))
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), ROOT, run_dir,
         str(workers), "1" if trace else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    wall = time.monotonic() - spawned
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child run in {run_dir} exited with {proc.returncode}")
    with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - spawned
    result["wall_s"] = wall
    return result


def measure(workload, seed: int, seconds: int, trace: bool):
    """Untraced children until the next would overrun `seconds` (leaving room
    for the traced one when tracing), then the traced child."""
    base = os.path.join(RUNS_DIR, workload.name)
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    config_path = os.path.join(base, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(workload.config(seed), fh, indent=2, sort_keys=True)

    started = time.monotonic()

    def child(name: str, traced: bool) -> dict:
        timeout = DEADLINE_S - (time.monotonic() - started)
        return spawn_child(os.path.join(base, name), config_path,
                           workload.workers, traced, timeout)

    untraced = []
    while True:
        untraced.append(child(f"run-{len(untraced)}", False))
        estimate = statistics.median(r["wall_s"] for r in untraced)
        if seconds - (time.monotonic() - started) < estimate * (2 if trace else 1):
            break
    traced = child("traced", True) if trace else None
    return untraced, traced


def end_to_end(untraced: list[dict]) -> dict:
    seconds = [s for r in untraced for _, s in r["explain_seconds"]]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in untraced), "s"),
        "run_s": (statistics.median(r["run_s"] for r in untraced), "s"),
        "explanations_per_s": (statistics.median(r["explanations"] / r["run_s"]
                                                 for r in untraced), "1/s"),
        "explain_p50_s": (statistics.median(seconds), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in untraced), "MiB"),
    }


def per_layer(untraced: list[dict], traced: dict) -> dict:
    layers = {name: tuple(pair) for name, pair in traced["layers"].items()}
    base = statistics.median(r["run_s"] for r in untraced)
    layers["trace.overhead_frac"] = (traced["run_s"] / base - 1.0, "ratio")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCE, "__init__.py")):
        print(f"no exqual source under {SOURCE}: run from a full checkout",
              file=sys.stderr)
        return 2
    # the build: byte-compile once so no child run pays for it
    if not compileall.compile_dir(SOURCE, quiet=1):
        print("byte-compiling the exqual source failed", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    untraced, traced = measure(workload, args.seed, args.seconds, bool(args.trace))
    children = untraced + ([traced] if traced else [])

    errors = [f"child {i}: {e}" for i, r in enumerate(children) for e in r["errors"]]
    if traced:
        errors += [f"efficiency: {e}" for e in traced["efficiency"]["errors"]]
    digests = sorted({r["bundle_sha256"] for r in children})
    if len(digests) != 1:
        errors.append(f"bundle.json differs between runs of one seed: {digests}")

    for i, r in enumerate(children):
        kind = "traced" if r is traced else "untraced"
        print(f"child {i} ({kind}): setup_s {r['setup_s']:.4f} run_s {r['run_s']:.4f} "
              f"wall_s {r['wall_s']:.3f} rss_mb {r['rss_mb']:.1f} "
              f"records {r['records']}/{r['tasks']} bundle.json sha256 {r['bundle_sha256']}")
    seconds = sorted(s for r in untraced for _, s in r["explain_seconds"])
    line = f"explain seconds per instance: n={len(seconds)} p50={statistics.median(seconds):.4f}"
    if len(seconds) >= 100:
        line += f" p90={statistics.quantiles(seconds, n=10)[-1]:.4f}"
    print(line)
    by_d = {}
    for r in untraced:
        for d, s in r["explain_seconds"]:
            by_d.setdefault(d, []).append(s)
    print("explain seconds per instance by d: " + ", ".join(
        f"d={d} {statistics.median(v):.4f} (n={len(v)})" for d, v in sorted(by_d.items())))
    if traced:
        eff = traced["efficiency"]
        print(f"shapley efficiency checked on {eff['exact']} exact and "
              f"{eff['sampled']} sampled explanations")
    for e in errors:
        print(f"CHECK FAILED: {e}")

    metrics = per_layer(untraced, traced) if traced else end_to_end(untraced)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["tasks"] for r in children),
        "failed": sum(r["failures"] for r in children),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
