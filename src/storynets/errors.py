"""Exception hierarchy shared across the pipeline.

The CLI maps these onto exit codes: bad or malformed input -> 2,
missing upstream stage output -> 3, numerical non-convergence -> 4.
"""


class StorynetsError(Exception):
    pass


class InputFormatError(StorynetsError):
    """Unreadable or malformed input file (CSV/TSV/CoNLL-U/lexicon/config)."""


class MissingUpstreamError(StorynetsError):
    """A pipeline stage was invoked before the stage it depends on."""

    def __init__(self, missing_path, stage_to_run):
        self.missing_path = str(missing_path)
        self.stage_to_run = stage_to_run
        super().__init__(
            f"missing upstream artifact {self.missing_path!r}: "
            f"run the {stage_to_run!r} stage first"
        )


class ConvergenceError(StorynetsError):
    """An iterative numerical routine exhausted its iteration budget."""

    def __init__(self, message, residual=None):
        self.residual = residual
        if residual is not None:
            message = f"{message} (residual={residual:.3e})"
        super().__init__(message)
