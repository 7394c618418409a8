"""Golden records: the bundles of two small experiment configs, committed
under tests/golden/ so that every change to a record is a reviewed diff.

    PYTHONPATH=src python tests/golden_records.py

rewrites tests/golden/<name>.json from the current code. A change that
alters records on purpose rewrites them in the same commit;
tests/test_golden_records.py recomputes them and compares. The manifest's
`versions` (Python, numpy) are left out, so the files hold on any platform.
"""

import json
import pathlib

from exqual.errors import write_json
from exqual.harness import ExperimentConfig, run_experiment

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

_GEN_SPEC = {
    "n_traces": 120,
    "activities": ["a", "b", "c", "d"],
    "trace_length": {"min": 2, "max": 6},
    "label_rule": {"kind": "activity_occurs", "activity": "a"},
    "static_attrs": [{"name": "amount", "dtype": "numeric",
                      "distribution": {"kind": "uniform", "lo": 0.0, "hi": 10.0}}],
    "dynamic_attrs": [{"name": "cost", "dtype": "numeric",
                       "distribution": {"kind": "normal", "mean": 5.0, "std": 2.0}}],
}
_COMBOS = [{"bucketing": "single", "encoding": "aggregate"},
           {"bucketing": "prefix_length", "encoding": "index_based"}]

CONFIGS = {
    # buckets of d = 10 and 13 enumerate coalitions, d = 19 samples walks
    "shapley": {
        "datasets": [{"name": "golden", "gen_spec": _GEN_SPEC}],
        "combos": _COMBOS,
        "explainers": [{"id": "shapley", "n_background": 8, "n_permutations": 200,
                        "reference_size": 8}],
        "min_prefix_length": 2, "max_prefix_length": 3,
        "m": 3, "top_k": 4, "sample_size": 4, "n_perturbations": 5,
        "global_seed": 3, "model": {"n_trees": 20, "max_depth": 3},
    },
    "surrogate": {
        "datasets": [{"name": "golden", "gen_spec": _GEN_SPEC}],
        "combos": _COMBOS,
        "explainers": [{"id": "surrogate", "n_samples": 500, "k": 4}],
        "min_prefix_length": 2, "max_prefix_length": 4,
        "m": 3, "top_k": 4, "sample_size": 4, "n_perturbations": 5,
        "global_seed": 5, "model": {"n_trees": 20, "max_depth": 3},
    },
}


def path_of(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.json"


def compute(name: str) -> dict:
    """The bundle document of CONFIGS[name] as bundle.json holds it, without
    the manifest's versions."""
    doc = run_experiment(ExperimentConfig.from_dict(CONFIGS[name])).to_dict()
    doc["manifest"] = {k: v for k, v in doc["manifest"].items() if k != "versions"}
    return json.loads(json.dumps(doc))


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in CONFIGS:
        write_json(str(path_of(name)), compute(name))
        print(f"wrote {path_of(name)}")


if __name__ == "__main__":
    main()
