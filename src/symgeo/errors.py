"""Exception types shared across the package."""


class SymgeoError(ValueError):
    """Base class for all domain errors raised by this package."""


class LatticeError(SymgeoError):
    """Invalid bilinear-form data or mismatched bases."""


class ConstructionError(SymgeoError):
    """A constructor or surgery operation was called outside its domain."""


class InadmissibleError(ConstructionError):
    """An existence constructor was given parameters it does not build."""


class CoveringError(SymgeoError):
    """Invalid branched-covering data."""


class RecipeError(SymgeoError):
    """Malformed recipe document.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def decimal(value: int, error: type[SymgeoError]) -> str:
    """The decimal text of ``value``; ``error`` when it has more digits
    than the interpreter converts (``sys.get_int_max_str_digits``)."""
    try:
        return str(value)
    except ValueError:
        raise error("integer has more digits than the interpreter converts") from None
