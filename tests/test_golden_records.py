"""The committed golden records (tests/golden/) recompute: strings, ints
and flags equal, floats within a relative 1e-9, which leaves room for BLAS
rounding across machines and nothing else. Rewrite them with
`PYTHONPATH=src python tests/golden_records.py` when records change on
purpose."""

import math

import pytest

from exqual.errors import read_json

from golden_records import CONFIGS, compute, path_of

REL_TOL = 1e-9


def _mismatches(got, want, where="") -> list[str]:
    if type(want) is float and type(got) is float:
        return [] if math.isclose(got, want, rel_tol=REL_TOL) else \
            [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in sorted(want)
                for m in _mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: {len(got)} items != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


@pytest.mark.filterwarnings("ignore:subset stability")
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_records_recompute(name):
    want = read_json(str(path_of(name)), "golden records")
    got = compute(name)
    assert got["records"] and got["accuracy"] and not got["failures"]
    mismatches = _mismatches(got, want)
    assert not mismatches, "\n".join(mismatches[:20])


def test_mismatches_tolerate_only_float_rounding():
    assert _mismatches({"x": 1.0, "f": ["a"]}, {"x": 1.0 + 1e-12, "f": ["a"]}) == []
    assert _mismatches({"x": 1.0}, {"x": 1.0 + 1e-6}) != []
    assert _mismatches({"n": 3}, {"n": 3.0}) != []
    assert _mismatches({"f": ["a"]}, {"f": ["b"]}) != []
    assert _mismatches({"f": []}, {"f": ["a"]}) != []
