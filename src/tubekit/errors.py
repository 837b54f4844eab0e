"""Exception hierarchy shared across the pipeline. Bad input of any kind (a
malformed record, a schema violation, an unknown video, a bad config value)
is an `InvalidInputError`, a `ParseError` when it names path:line, and the
CLI exits 1 on it; it exits 2 on any other error, a stage failure."""


class TubekitError(Exception):
    """Base class for all pipeline errors."""


class InvalidInputError(TubekitError):
    """Raised when an input or a value violates a documented precondition."""


class ParseError(InvalidInputError):
    """Raised on malformed file input; carries the file and the line number."""

    def __init__(self, message, path, line):
        self.path, self.line = path, line
        super().__init__(f"{path}:{line}: {message}")


class ScoringError(TubekitError):
    """Raised when a scorer fails on a proposal; carries the proposal id."""

    def __init__(self, message, proposal_id=None):
        self.proposal_id = proposal_id
        if proposal_id is not None:
            message = f"proposal {proposal_id}: {message}"
        super().__init__(message)
