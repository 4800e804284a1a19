"""Exception types shared across the package."""


class ContractViolationError(ValueError):
    """An argument violates a documented precondition."""


class BudgetExhaustedError(RuntimeError):
    """A query would reveal a new Gram entry beyond the ledger budget.

    Recoverable: callers may catch this to measure accuracy-at-budget. A
    batched ordered read (MeteredGram.query_pairs) that the budget cuts
    short charges its longest affordable prefix: `prefix` is that prefix's
    length and `values` its kernel values. Other reads leave both None.
    """

    def __init__(self, message: str, prefix=None):
        super().__init__(message)
        self.prefix = prefix
        self.values = None


class GenerationFailureError(RuntimeError):
    """An instance generator could not satisfy its constraints."""


class DegenerateInstanceError(ValueError):
    """An instance lacks the structure an operation requires."""


class NumericalDegeneracyError(RuntimeError):
    """A factorization failed beyond the tolerated eigenvalue slack."""


class EstimationFailureError(RuntimeError):
    """Too few samples for the requested estimation accuracy."""


class DegenerateSketchError(RuntimeError):
    """Sketch rows are linearly dependent; projection is not defined."""


class PipelineStageError(RuntimeError):
    """Failure inside a multi-stage pipeline, tagged with the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
