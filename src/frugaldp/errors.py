"""Exception types shared across the package."""


class FrugalDPError(Exception):
    """Base class for all package-specific errors."""


class InternalError(FrugalDPError):
    """A fault inside the package rather than in the caller's input or parameters."""


class EntropySourceError(InternalError):
    """The OS entropy backend failed; the tape cannot continue."""


class ParameterDomainError(FrugalDPError, ValueError):
    """Mechanism parameters violate a validity precondition."""


class MathDomainError(FrugalDPError, ValueError):
    """Input outside the mathematical domain of an enclosure function."""


class EnclosureContractError(InternalError, RuntimeError):
    """A probability oracle violated monotone refinement or ordering."""


class DatasetFormatError(FrugalDPError, ValueError):
    """The input dataset could not be parsed as binary predicate rows."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column
