"""Exception types shared across the package."""


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


class AllFeaturesRemoved(ValidationError):
    """Zero handling removed so many features that no analysis is possible."""


class ZeroRemains(ValidationError):
    """Zeros survive zero handling: replacement is disabled, or no entry is
    positive."""


class DimensionMismatch(ValidationError):
    """Arrays that must agree in length or shape do not."""


class UnknownFeature(ValidationError):
    """A feature label is not present in the matrix."""


class InvalidSize(ValidationError):
    """A requested size parameter is out of range."""


class DegenerateDesign(ValidationError):
    """No variation to fit or decompose (the rule of `metrics._flat`): a
    constant score or singular design in a GLM fit, a matrix or block pair
    in PCA or PLS, or the original in variance explained."""


class TooManyFeatures(ValidationError):
    """Feature count exceeds the all-pairs analysis cap."""


class IndexOutOfRange(ValidationError):
    """A feature index does not exist in the matrix."""


class OverlappingSets(ValidationError):
    """Numerator and denominator index sets intersect."""


class NoImprovingPair(ValidationError):
    """No candidate pair produces a fittable, scoreable model."""


class FeatureMismatch(ValidationError):
    """New data does not carry the features the model was trained on."""

