"""One benchmark run of `exqual run` in a fresh interpreter.

    python3 perfbench/child.py <checkout root> <run dir> <workers> <trace 0|1>

Reads <run dir>/config.json, runs `run_experiment` then `emit_report` (the
work of `exqual run --format csv`) into <run dir>/out, checks the outputs and
writes <run dir>/result.json for run.py. With trace 1 the run is wrapped in
layer spans (tracing.py) and the Shapley efficiency check is made.

Only the standard library is imported before exqual, so the set-up time that
run.py measures (spawn to `ready`) is interpreter start, `import exqual` and
config parsing.
"""

import csv
import hashlib
import json
import math
import os
import resource
import sys
import time

EFFICIENCY_TOL = 1e-6  # acceptance criterion 3's bound on sum(phi) = f(x) - E_b f(b)
HULL_TOL = 1e-9  # rounding slack for the sampled-regime bound


def main(argv: list[str]) -> int:
    root, run_dir, workers, trace = argv[0], argv[1], int(argv[2]), argv[3] == "1"
    sys.path.insert(0, os.path.join(root, "src"))
    from exqual import harness

    config = harness.ExperimentConfig.from_json(os.path.join(run_dir, "config.json"))
    ready = time.monotonic()

    out_dir = os.path.join(run_dir, "out")
    result = {"ready": ready}
    if trace:
        import tracing

        tracer = tracing.Tracer()
        shapley_calls = []
        targets = tracing.layer_targets(
            tracer, on_shapley=lambda args, kwargs, res: shapley_calls.append((args, res)))
        with tracing.patched(targets):
            started = time.perf_counter()
            bundle = harness.run_experiment(config, workers=workers)
            harness.emit_report(bundle, out_dir, "csv")
            result["run_s"] = time.perf_counter() - started
        with open(os.path.join(run_dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump([s.to_dict() for s in tracer.spans], fh)
        layers = tracing.layer_metrics(tracer.spans, workers)
        flagged = sum("interval_fallback" in r.flags for r in bundle.records)
        layers["metrics.fallback_frac"] = (flagged / max(len(bundle.records), 1), "ratio")
        result["layers"] = layers
        result["efficiency"] = check_efficiency(shapley_calls)
    else:
        started = time.perf_counter()
        bundle = harness.run_experiment(config, workers=workers)
        harness.emit_report(bundle, out_dir, "csv")
        result["run_s"] = time.perf_counter() - started
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result.update(check_outputs(bundle, out_dir))
    result["explanations"] = config.m * len(bundle.records)
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def check_outputs(bundle, out_dir: str) -> dict:
    """Every task gave a record, nothing failed, every score is finite.
    by_subset is not range-checked: it may legitimately fall below 0."""
    counts = bundle.manifest["counts"]
    errors = []
    if counts["records"] != counts["tasks"]:
        errors.append(f"records {counts['records']} != tasks {counts['tasks']}")
    if counts["failures"] or bundle.failures:
        errors.append(f"{counts['failures']} failures: "
                      + "; ".join(f.error for f in bundle.failures[:3]))
    bad = [r for r in bundle.records
           if not all(math.isfinite(v) for v in (r.by_subset, r.by_weight, r.fidelity))]
    if bad:
        errors.append(f"{len(bad)} records with a non-finite score")
    with open(os.path.join(out_dir, "bundle.json"), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(out_dir, "timing.csv"), encoding="utf-8") as fh:
        seconds = [(int(row["d"]), float(row["seconds_per_explanation"]))
                   for row in csv.DictReader(fh)]
    return {"tasks": counts["tasks"], "records": counts["records"],
            "failures": counts["failures"] + len(bad), "errors": errors,
            "bundle_sha256": digest, "explain_seconds": seconds}


def check_efficiency(calls) -> dict:
    """sum(phi) against f(x) - mean_b f(b) for every explain_shapley call.

    Exact enumeration (d <= exact_max_d) must meet it within EFFICIENCY_TOL.
    Permutation sampling averages f(x) - f(b) over the sampled background
    rows, so its sum must lie in [f(x) - max_b f(b), f(x) - min_b f(b)]."""
    from exqual.model import predict_proba_rows

    errors = []
    exact = sampled = 0
    for args, explanation in calls:
        model, row, config = args[0], args[1], args[2]
        fx = float(predict_proba_rows(model, row[None, :])[0])
        fb = predict_proba_rows(model, config.background)
        total = float(explanation.weight_vector().sum())
        if explanation.n_features <= config.exact_max_d:
            exact += 1
            gap = abs(total - (fx - float(fb.mean())))
            if gap > EFFICIENCY_TOL:
                errors.append(f"exact d={explanation.n_features}: |gap| {gap:.3g}")
        else:
            sampled += 1
            lo, hi = fx - float(fb.max()) - HULL_TOL, fx - float(fb.min()) + HULL_TOL
            if not lo <= total <= hi:
                errors.append(f"sampled d={explanation.n_features}: "
                              f"sum {total:.6g} outside [{lo:.6g}, {hi:.6g}]")
    return {"exact": exact, "sampled": sampled, "errors": errors}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
