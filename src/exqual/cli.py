"""Command-line interface: generate logs, encode, train, explain, evaluate
explanation quality, and drive full experiments.

Exit codes: 0 success, 1 usage error, 2 data error, 3 partial failure
(some instances or datasets failed but results were still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .encoding import (
    INDEX_BASED,
    BucketingStrategy,
    bucket,
    build_vocabulary,
    encode,
    read_matrix,
    write_matrix,
)
from .errors import (
    DataError,
    EmptyInput,
    ExqualError,
    UsageError,
    check_options,
    read_json,
    write_json,
)
from .eventlog import LogSchema, extract_prefixes, parse_log, write_log
from .explain import (
    SHAPLEY_ID,
    SURROGATE_ID,
    ExplanationSet,
    derive_seed,
    read_explanation_set,
    repeat_explanations,
    write_explanation_set,
)
from .harness import (
    ExperimentConfig,
    ExplainerSpec,
    _sc,
    _write_csv,
    build_explain_fn,
    build_explainer_assets,
    emit_report,
    read_bundle,
    run_experiment,
)
from .metrics import (
    build_perturbation_plan,
    build_subset_matrix,
    build_weight_matrix,
    fidelity,
    score_stability,
    select_perturbation_targets,
)
from .model import (
    MODEL_OPTIONS,
    GBTConfig,
    descriptor_fingerprint,
    evaluate_accuracy,
    read_model,
    train_gbt,
    write_model,
)
from .synthetic import check_gen_spec, generate_synthetic_log


def _model_matrix(model, basepath: str):
    """The matrix at basepath, once its columns are the ones model was
    trained on (the model records a fingerprint of them)."""
    matrix = read_matrix(basepath)
    if model.descriptors_fingerprint != descriptor_fingerprint(matrix.descriptors):
        raise DataError(f"matrix {basepath} has other columns than the model "
                        f"was trained on (descriptor fingerprints differ)")
    return matrix


def _instance_row(matrix, case_id: str, prefix_length: int):
    try:
        return matrix.rows[matrix.row_index(case_id, prefix_length)]
    except KeyError:
        raise DataError(f"instance ({case_id!r}, prefix {prefix_length}) "
                        f"not in matrix") from None


def _explanation_paths(directory: str) -> list[str]:
    if not os.path.isdir(directory):
        raise UsageError(f"explanations directory not found: {directory}")
    paths = sorted(os.path.join(directory, name)
                   for name in os.listdir(directory) if name.endswith(".json"))
    if not paths:
        raise EmptyInput(f"no explanation JSON files under {directory}")
    return paths


# ---------------------------------------------------------------- commands

def _cmd_synth(args) -> int:
    gen_spec = read_json(args.gen_spec, "generator spec", check_gen_spec)
    log = generate_synthetic_log(gen_spec, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "log.csv")
    write_log(log, log_path)
    write_json(os.path.join(args.out, "schema.json"), log.schema.to_dict())
    write_json(os.path.join(args.out, "meta.json"), log.metadata)
    pos, neg = log.class_counts()
    print(f"wrote {len(log.traces)} traces ({pos} deviant / {neg} regular) "
          f"to {log_path}")
    return 0


def _cmd_encode(args) -> int:
    schema = LogSchema.from_json(args.schema)
    log = parse_log(args.log, schema)
    prefixes = extract_prefixes(log, args.min_prefix, args.max_prefix)
    vocab = build_vocabulary(prefixes, schema)
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "vocab.json"), vocab.to_dict())
    for bucket_id, bucket_log in bucket(prefixes, BucketingStrategy(args.bucketing)):
        padding = None
        if args.encoding == INDEX_BASED:
            padding = bucket_log.max_prefix_length()
        matrix = encode(bucket_log, schema, args.encoding, vocab, bucket_id,
                        index_padding_len=padding)
        basepath = os.path.join(args.out, f"bucket_{bucket_id}")
        write_matrix(matrix, basepath)
        print(f"bucket {bucket_id}: {matrix.n} rows x {matrix.d} features "
              f"-> {basepath}.csv")
    return 0


def _cmd_train(args) -> int:
    matrix = read_matrix(args.matrix)
    options = {}
    if args.config:  # the model seed comes from --seed
        options = read_json(args.config, "model config",
                            lambda doc: check_options(doc, MODEL_OPTIONS, "model"))
    config = GBTConfig(**options, seed=args.seed)
    model = train_gbt(matrix, config)
    write_model(model, args.out)
    acc = evaluate_accuracy(model, matrix)
    print(f"trained {config.n_trees} trees on {matrix.n} rows "
          f"(train accuracy {acc:.4f}) -> {args.out}")
    return 0


def _cmd_explain(args) -> int:
    model = read_model(args.model)
    matrix = _model_matrix(model, args.matrix)
    row = _instance_row(matrix, args.case, args.prefix_length)
    train_matrix = _model_matrix(model, args.train_matrix) if args.train_matrix else matrix
    names = (("n_samples", "k") if args.explainer == SURROGATE_ID
             else ("n_background", "n_permutations"))
    # only the flags given: each default lives in its explainer's config
    options = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    spec = ExplainerSpec.from_dict({"id": args.explainer, **options}, args.explainer)
    explain_fn, _ = build_explain_fn(spec, train_matrix, global_seed=args.seed)
    es = repeat_explanations(explain_fn, model, row, m=args.m, base_seed=args.seed)
    es = ExplanationSet(explanations=es.explanations,
                        case_ref=(args.case, args.prefix_length),
                        explainer_spec=spec.to_dict(), assets_seed=args.seed)
    write_explanation_set(es, args.out)
    print(f"wrote {es.m} {args.explainer} explanations for "
          f"({args.case}, prefix {args.prefix_length}) -> {args.out}")
    return 0


def _eval_loop(paths: list[str], evaluate) -> tuple[list[list[str]], list[str]]:
    rows, errors = [], []
    for path in paths:
        try:
            es = read_explanation_set(path)
            if es.case_ref is None:
                raise DataError("explanation set has no case reference")
            rows.append(evaluate(es))
        except ExqualError as exc:
            errors.append(f"{os.path.basename(path)}: {type(exc).__name__}: {exc}")
    return rows, errors


def _finish_eval(rows, errors, out, header) -> int:
    if not rows and errors:
        raise DataError("; ".join(errors))
    _write_csv(out, header, rows)
    for line in errors:
        print(f"skipped {line}", file=sys.stderr)
    print(f"wrote {len(rows)} rows -> {out}")
    return 3 if errors else 0


def _cmd_eval_stability(args) -> int:
    paths = _explanation_paths(args.explanations)

    def evaluate(es):
        score = score_stability(es, build_subset_matrix(es, args.k),
                                build_weight_matrix(es))
        return [es.case_ref[0], str(es.case_ref[1]), repr(score.by_subset),
                repr(score.by_weight), "|".join(score.flags)]

    rows, errors = _eval_loop(paths, evaluate)
    return _finish_eval(rows, errors, args.out,
                        ["case_id", "prefix_length", "by_subset", "by_weight", "flags"])


def _cmd_eval_fidelity(args) -> int:
    paths = _explanation_paths(args.explanations)
    model = read_model(args.model)
    matrix = _model_matrix(model, args.matrix)
    train_matrix = _model_matrix(model, args.train_matrix) if args.train_matrix else matrix
    built = {}  # (spec JSON, assets seed) -> ExplainerAssets

    def evaluate(es):
        if es.explainer_spec is None or es.assets_seed is None:
            raise DataError("explanation set records no explainer spec and assets "
                            "seed; write it again with exqual explain")
        key = (json.dumps(es.explainer_spec, sort_keys=True), es.assets_seed)
        if key not in built:
            spec = ExplainerSpec.from_dict(es.explainer_spec, es.explainer_id)
            built[key] = build_explainer_assets(spec, train_matrix, matrix, model,
                                                global_seed=es.assets_seed)
        assets = built[key]
        row = _instance_row(matrix, *es.case_ref)
        targets = select_perturbation_targets(build_subset_matrix(es, args.k),
                                              build_weight_matrix(es))
        plan = build_perturbation_plan(es, targets, assets.region_matrix,
                                       train_stats=assets.train_stats,
                                       n_perturbations=args.n_perturbations,
                                       row=row,
                                       attribution_matrix=assets.attribution_matrix)
        rng = np.random.default_rng(
            derive_seed(args.seed, _sc(es.case_ref[0]), es.case_ref[1]))
        score = fidelity(model, row, plan, rng=rng)
        return [es.case_ref[0], str(es.case_ref[1]), repr(score.y_original),
                repr(score.f), "|".join(plan.flags)]

    rows, errors = _eval_loop(paths, evaluate)
    return _finish_eval(rows, errors, args.out,
                        ["case_id", "prefix_length", "y_original", "fidelity", "flags"])


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, global_seed=args.seed)
    out_dir = args.out or config.out_dir
    if out_dir is None:
        raise UsageError("no output directory: pass --out or set out_dir in the config")
    bundle = run_experiment(config, workers=args.workers)
    emit_report(bundle, out_dir, args.format)
    print(f"run complete: {len(bundle.records)} instance records, "
          f"{len(bundle.failures)} failures -> {out_dir}")
    return 3 if bundle.failures else 0


def _cmd_report(args) -> int:
    bundle = read_bundle(args.bundle)
    written = emit_report(bundle, args.out, args.format)
    print(f"wrote {len(written)} files -> {args.out}")
    return 0


# ------------------------------------------------------------------ parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exqual",
        description="Evaluate the quality of local explanations for "
                    "process-outcome predictions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic event log")
    p.add_argument("--gen-spec", required=True, help="generator spec JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("encode", help="encode an event log into feature matrices")
    p.add_argument("--log", required=True, help="event log CSV")
    p.add_argument("--schema", required=True, help="log schema JSON")
    p.add_argument("--bucketing", choices=["single", "prefix_length"],
                   default="single")
    p.add_argument("--encoding", choices=["aggregate", "index_based"],
                   default="aggregate")
    p.add_argument("--min-prefix", type=int, default=1)
    p.add_argument("--max-prefix", type=int, default=8)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("train", help="train a gradient-boosted tree model")
    p.add_argument("--matrix", required=True, help="matrix basepath (no extension)")
    p.add_argument("--config", help="model options JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("explain", help="explain one instance M times")
    p.add_argument("--model", required=True)
    p.add_argument("--matrix", required=True, help="matrix holding the instance")
    p.add_argument("--train-matrix",
                   help="matrix for stats/background (default: --matrix)")
    p.add_argument("--case", required=True, help="case id")
    p.add_argument("--prefix-length", type=int, required=True)
    p.add_argument("--explainer", choices=[SURROGATE_ID, SHAPLEY_ID],
                   default=SURROGATE_ID)
    p.add_argument("--m", type=int, default=10, help="repeated explanations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-samples", type=int, help="surrogate neighborhood size")
    p.add_argument("--k", type=int, help="surrogate selection size")
    p.add_argument("--n-background", type=int, help="Shapley background rows")
    p.add_argument("--n-permutations", type=int,
                   help="sampled Shapley walk budget, split evenly over the "
                        "background rows")
    p.add_argument("--out", required=True, help="explanation set JSON path")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("eval-stability",
                       help="score stability of stored explanation sets")
    p.add_argument("--explanations", required=True,
                   help="directory of explanation set JSON files")
    p.add_argument("--k", type=int, default=10, help="top-k subset size")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_eval_stability)

    p = sub.add_parser("eval-fidelity",
                       help="score fidelity of stored explanation sets")
    p.add_argument("--explanations", required=True,
                   help="directory of explanation set JSON files")
    p.add_argument("--model", required=True)
    p.add_argument("--matrix", required=True, help="matrix holding the instances")
    p.add_argument("--train-matrix",
                   help="matrix for stats/background (default: --matrix)")
    p.add_argument("--k", type=int, default=10, help="top-k subset size")
    p.add_argument("--n-perturbations", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_eval_fidelity)

    p = sub.add_parser("run", help="run a full experiment from a config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int, help="override the config's global seed")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="output directory (overrides config out_dir)")
    p.add_argument("--format", choices=["csv", "json", "markdown"], default="csv")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="re-render a stored bundle")
    p.add_argument("--bundle", required=True, help="bundle.json path")
    p.add_argument("--format", choices=["csv", "json", "markdown"],
                   default="markdown")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return int(args.func(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:  # a path named on the command line
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ExqualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
