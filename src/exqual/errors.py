"""Exception hierarchy shared across the toolkit, and the input boundary:
every JSON artifact is read by `read_json` and written by `write_json`, and
every option object is checked against an exact-type table by `check_options`.

DataError subclasses map to CLI exit code 2; UsageError maps to exit code 1.
"""

import json


class ExqualError(Exception):
    """Base class for all toolkit errors."""


class UsageError(ExqualError):
    """Bad invocation: unknown flags, malformed config, missing files."""


class DataError(ExqualError):
    """Input data violates a documented precondition."""


# event log ingestion
class MissingColumn(DataError):
    def __init__(self, name):
        super().__init__(f"declared column not found in source: {name!r}")
        self.name = name


class TypeMismatch(DataError):
    def __init__(self, row, column, value):
        super().__init__(f"row {row}: column {column!r} has unparseable value {value!r}")
        self.row = row
        self.column = column
        self.value = value


class EmptySource(DataError):
    pass


class NonConstantStatic(DataError):
    def __init__(self, case_id, attr):
        super().__init__(f"case {case_id!r}: static attribute {attr!r} varies across events")
        self.case_id = case_id
        self.attr = attr


class TooFewTraces(DataError):
    pass


class SingleClass(DataError):
    pass


class InvalidSpec(DataError):
    pass


# encoding
class EmptyBucket(DataError):
    pass


class AllMissingColumn(DataError):
    def __init__(self, column_index):
        super().__init__(f"column {column_index} has no observed values")
        self.column_index = column_index


# models
class DegenerateMatrix(DataError):
    pass


class WidthMismatch(DataError):
    def __init__(self, expected, got):
        super().__init__(f"feature width mismatch: model expects {expected}, row has {got}")
        self.expected = expected
        self.got = got


class EmptyMatrix(DataError):
    pass


class NonConvergence(ExqualError):
    def __init__(self, iterations, grad_norm):
        super().__init__(f"no convergence after {iterations} iterations (grad norm {grad_norm:.3e})")
        self.iterations = iterations
        self.grad_norm = grad_norm


# explainers
class EmptyBackground(DataError):
    pass


# metrics
class DegenerateSubsetSize(DataError):
    pass


class EmptySet(DataError):
    pass


class EmptyInput(DataError):
    pass


class EmptySamplingDomain(ExqualError):
    pass


# ----------------------------------------------------------- input boundary

def read_json(path: str, what: str, parse=dict):
    """parse(doc) for the JSON object stored at path.

    A missing file is a UsageError. Invalid JSON, a top level that is not an
    object, and a malformed document (parse raising InvalidSpec, or the
    lookup, attribute, type, value or arithmetic error that a value of the
    wrong shape raises) are an InvalidSpec naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"{what} not found: {path}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise InvalidSpec(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidSpec(f"{what} {path} must hold a JSON object, "
                          f"not {type(doc).__name__}")
    try:
        return parse(doc)
    except InvalidSpec as exc:
        raise InvalidSpec(f"{what} {path}: {exc}") from exc
    except (LookupError, AttributeError, TypeError, ValueError,
            ArithmeticError) as exc:
        raise InvalidSpec(f"{what} {path} is malformed: "
                          f"{type(exc).__name__}: {exc}") from exc


def write_json(path: str, doc) -> None:
    """Write doc as sorted, 2-space-indented JSON with a final newline."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def check_options(doc, types: dict, what: str) -> dict:
    """doc, once it is an object whose keys all appear in types and whose
    values have one of the types listed for their key. Types are matched
    exactly, so that true/false is not taken for an int."""
    if not isinstance(doc, dict):
        raise InvalidSpec(f"{what} must be an object, got {doc!r}")
    unknown = set(doc) - set(types)
    if unknown:
        raise InvalidSpec(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in doc.items():
        if type(value) not in types[key]:
            raise InvalidSpec(f"{what} key {key!r} has the wrong type: {value!r}")
    return doc
