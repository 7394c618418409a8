"""The benchmark's workloads: experiment configs generated from a seed.

Each workload is one `exqual run` config. The seed given to the benchmark
becomes `global_seed`, so it picks the synthetic log, the split, the models
and every explainer stream; the program sees only the generated config.

Only `sample_size` and `reference_size` are scaled down from the configs the
workloads are modelled on, so that a child run fits the benchmark's run
length; everything that sets the per-call cost (widths, trees, m, explainer
options) is kept. Why each workload exists is in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

_STATIC_AMOUNT = {"name": "amount", "dtype": "numeric",
                  "distribution": {"kind": "uniform", "lo": 0.0, "hi": 10.0}}
_DYNAMIC_COST = {"name": "cost", "dtype": "numeric",
                 "distribution": {"kind": "normal", "mean": 5.0, "std": 2.0}}


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    doc: dict  # experiment config without global_seed

    def config(self, seed: int) -> dict:
        return {**self.doc, "global_seed": int(seed)}


def _shapley_demo() -> dict:
    # The README quick-start config with only the Shapley explainer: buckets
    # of d = 10 and 13 run exact enumeration, d = 19, 25 and 31 sample.
    return {
        "datasets": [{"name": "demo", "gen_spec": {
            "n_traces": 200,
            "activities": ["a", "b", "c", "d"],
            "trace_length": {"min": 2, "max": 6},
            "label_rule": {"kind": "activity_occurs", "activity": "a"},
            "static_attrs": [_STATIC_AMOUNT],
            "dynamic_attrs": [_DYNAMIC_COST],
        }}],
        "combos": [{"bucketing": "single", "encoding": "aggregate"},
                   {"bucketing": "prefix_length", "encoding": "index_based"}],
        "explainers": [{"id": "shapley", "n_background": 16, "reference_size": 2}],
        "min_prefix_length": 2,
        "max_prefix_length": 5,
        "m": 10,
        "top_k": 5,
        "sample_size": 1,
        "n_perturbations": 10,
        "model": {"n_trees": 30, "max_depth": 3},
    }


def _surrogate_wide() -> dict:
    # The widest criterion-7 sweep point (index-based, prefixes 2..25, k 80):
    # d = 801 from 30 activities over 25 positions plus the static amount.
    rule = {
        "kind": "score_threshold",
        "terms": [
            {"feature": {"kind": "activity_count", "activity": "a00"}, "weight": 2.5},
            {"feature": {"kind": "activity_count", "activity": "a01"}, "weight": 2.0},
            {"feature": {"kind": "activity_count", "activity": "a02"}, "weight": 1.5},
            {"feature": {"kind": "activity_count", "activity": "a03"}, "weight": 1.0},
            {"feature": {"kind": "static_numeric", "name": "amount"}, "weight": 0.6},
        ],
        "threshold": 9.3,
    }
    return {
        "datasets": [{"name": "sweep", "gen_spec": {
            "n_traces": 160,
            "activities": [f"a{i:02d}" for i in range(30)],
            "trace_length": {"min": 25, "max": 30},
            "label_rule": rule,
            "static_attrs": [_STATIC_AMOUNT],
            "dynamic_attrs": [_DYNAMIC_COST],
        }}],
        "combos": [{"bucketing": "single", "encoding": "index_based"}],
        "explainers": [{"id": "surrogate", "n_samples": 1500, "k": 80}],
        "min_prefix_length": 2,
        "max_prefix_length": 25,
        "m": 4,
        "top_k": 80,
        "sample_size": 2,
        "n_perturbations": 5,
        "model": {"n_trees": 40, "max_depth": 3},
    }


def _many_small() -> dict:
    # 13 buckets (one single bucket plus prefix lengths 1..12), all d = 18:
    # 12 activity counts, the static amount and the dynamic cost aggregates.
    return {
        "datasets": [{"name": "tall", "gen_spec": {
            "n_traces": 1000,
            "activities": [f"x{i:02d}" for i in range(12)],
            "trace_length": {"min": 3, "max": 12},
            "label_rule": {"kind": "activity_occurs", "activity": "x00"},
            "static_attrs": [_STATIC_AMOUNT],
            "dynamic_attrs": [_DYNAMIC_COST],
        }}],
        "combos": [{"bucketing": "single", "encoding": "aggregate"},
                   {"bucketing": "prefix_length", "encoding": "aggregate"}],
        "explainers": [{"id": "surrogate", "n_samples": 200, "k": 5}],
        "min_prefix_length": 1,
        "max_prefix_length": 12,
        "m": 3,
        "top_k": 5,
        "sample_size": 8,
        "n_perturbations": 50,
        "model": {"n_trees": 60, "max_depth": 3},
    }


WORKLOADS = {w.name: w for w in (
    Workload("shapley_demo", workers=2, doc=_shapley_demo()),
    Workload("surrogate_wide", workers=1, doc=_surrogate_wide()),
    Workload("many_small", workers=1, doc=_many_small()),
)}
