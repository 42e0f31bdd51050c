"""Exception types shared across the library, and the parameter check
that raises one."""


class NDistalError(Exception):
    """Base class for all library errors."""


class ParameterError(NDistalError):
    """A numeric or structural parameter is outside its allowed range."""


class InvalidPointError(NDistalError):
    """A point representation does not belong to the system's space."""


class ConjugacyError(NDistalError):
    """The supplied maps fail the mutual-inverse check on the sample."""


class HomomorphismError(NDistalError):
    """The supplied projection fails the semiconjugacy check."""


class MeasureError(NDistalError):
    """Weights are negative or do not sum to one."""


class RefinementError(NDistalError):
    """A mapped point cannot be snapped back onto the cloud."""


class ConstructionError(NDistalError):
    """A nested-ball mass condition cannot be met on the given measure."""


class BudgetExceededError(NDistalError):
    """Exact enumeration would exceed the subset budget; use the bounded solver."""


def check_positive(name, value):
    """Raise ParameterError unless value is a number > 0 (NaN is not)."""
    if not float(value) > 0.0:
        raise ParameterError(f"{name} must be positive, got {value!r}")
