"""Exception types shared across the package.

There is one type per CLI exit code: `ParseError` (exit 2) for malformed
tabular input and `ValidationError` (exit 3) for every other failed
precondition, both `RatiomarkerError`s. The message says which precondition
failed. `DegenerateDesign`, a `ValidationError`, stays only because
`perfbench/selftest.py` checks that a traced GLM fit re-raises that type.
"""


class RatiomarkerError(Exception):
    """Base class for every error raised by this package."""


class ParseError(RatiomarkerError):
    """Malformed tabular input. Carries 1-based row/column positions."""

    def __init__(self, message, path=None, row=None, column=None):
        loc = []
        if path is not None:
            loc.append(str(path))
        if row is not None:
            loc.append(f"row {row}")
        if column is not None:
            loc.append(f"column {column}")
        prefix = ", ".join(loc)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.path = path
        self.row = row
        self.column = column


class ValidationError(RatiomarkerError):
    """A precondition on inputs or configuration does not hold."""


class DegenerateDesign(ValidationError):
    """No variation to fit or decompose (the rule of `metrics._flat`)."""
