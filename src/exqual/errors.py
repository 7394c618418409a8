"""Exception hierarchy shared across the toolkit.

DataError subclasses map to CLI exit code 2; UsageError maps to exit code 1.
"""


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
