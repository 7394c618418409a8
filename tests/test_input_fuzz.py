"""Property-based checks of the input boundary: any JSON value in any config
option, and any JSON document in any artifact file, either parses or raises
an ExqualError (which the CLI turns into exit 1 or 2), never anything else."""

import copy
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from exqual.encoding import (  # noqa: E402
    SINGLE,
    BucketingStrategy,
    bucket,
    build_vocabulary,
    encode,
    read_matrix,
    write_matrix,
)
from exqual.errors import ExqualError  # noqa: E402
from exqual.eventlog import LogSchema, extract_prefixes  # noqa: E402
from exqual.explain import (  # noqa: E402
    ExplanationSet,
    read_explanation_set,
    write_explanation_set,
)
from exqual.harness import (  # noqa: E402
    ExperimentConfig,
    ExplainerSpec,
    build_explainer_assets,
    emit_report,
    read_bundle,
    run_experiment,
)
from exqual.model import GBTConfig, read_model, train_gbt, write_model  # noqa: E402
from exqual.synthetic import generate_synthetic_log  # noqa: E402

from test_harness import small_gen_spec, tiny_config  # noqa: E402

# bounded and derandomized so that the suite stays fast and reproducible
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)


def _config_doc() -> dict:
    return tiny_config(explainers=[
        {"id": "surrogate", "n_samples": 300, "k": 4},
        {"id": "shapley", "n_background": 4, "reference_size": 5}])


# where in the config a value is drawn into
SURFACES = {
    "top-level": lambda doc: doc,
    "model": lambda doc: doc["model"],
    "dataset": lambda doc: doc["datasets"][0],
    "surrogate": lambda doc: doc["explainers"][0],
    "shapley": lambda doc: doc["explainers"][1],
}


@pytest.mark.parametrize("surface", sorted(SURFACES))
@FUZZ
@given(data=st.data())
def test_config_option_parses_or_raises(surface, data):
    doc = _config_doc()
    target = SURFACES[surface](doc)
    key = data.draw(st.sampled_from(sorted(target) + ["unknown"]), label="key")
    target[key] = data.draw(JSON_VALUES, label="value")
    try:
        ExperimentConfig.from_dict(doc)
    except ExqualError:
        pass


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """reader name -> (reader, path its JSON document goes to, a valid document)."""
    root = tmp_path_factory.mktemp("fuzz")
    config = ExperimentConfig.from_dict(tiny_config(model={"n_trees": 3, "max_depth": 2}))
    bundle = run_experiment(config)
    emit_report(bundle, str(root / "run"), "json")

    log = generate_synthetic_log(small_gen_spec(n_traces=30), seed=1)
    (_, prefixes), = bucket(extract_prefixes(log, 2, 3), BucketingStrategy(SINGLE))
    matrix = encode(prefixes, log.schema, "aggregate",
                    build_vocabulary(prefixes, log.schema), "all")
    write_matrix(matrix, str(root / "matrix"))
    model = train_gbt(matrix, GBTConfig(n_trees=2, max_depth=2))
    write_model(model, str(root / "model.json"))
    spec = ExplainerSpec.from_dict({"id": "surrogate", "n_samples": 100, "k": 3}, "s")
    assets = build_explainer_assets(spec, matrix, matrix, model, global_seed=1)
    es = ExplanationSet(
        (assets.explain_fn(model, matrix.rows[0], 1),
         assets.explain_fn(model, matrix.rows[0], 2)),
        case_ref=(matrix.case_ids[0], int(matrix.prefix_lengths[0])),
        explainer_spec=spec.to_dict(), assets_seed=1)
    write_explanation_set(es, str(root / "expl.json"))
    (root / "config.json").write_text(json.dumps(tiny_config()), encoding="utf-8")
    (root / "schema.json").write_text(json.dumps(log.schema.to_dict()), encoding="utf-8")

    def load(path):
        return json.loads(path.read_text(encoding="utf-8"))

    readers = {
        "config": (ExperimentConfig.from_json, root / "config.json"),
        "schema": (LogSchema.from_json, root / "schema.json"),
        "matrix": (lambda p: read_matrix(p[:-len(".json")]), root / "matrix.json"),
        "model": (read_model, root / "model.json"),
        "explanation set": (read_explanation_set, root / "expl.json"),
        "bundle": (read_bundle, root / "run" / "bundle.json"),
    }
    return {name: (reader, path, load(path)) for name, (reader, path) in readers.items()}


def _mutated(data, doc):
    """A copy of doc with one node, at a drawn path, replaced by any JSON value."""
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))), label="path")
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        node[key] = data.draw(JSON_VALUES, label="value")
        return doc


@pytest.mark.parametrize("name", ["bundle", "config", "explanation set", "matrix",
                                  "model", "schema"])
@FUZZ
@given(data=st.data())
def test_reader_parses_or_raises(artifacts, name, data):
    reader, path, valid = artifacts[name]
    if data.draw(st.booleans(), label="whole document"):
        doc = data.draw(JSON_VALUES, label="document")
    else:
        doc = _mutated(data, valid)
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        reader(str(path))
    except ExqualError:
        pass
