"""Exception types shared across the package."""


class NeqCasimirError(Exception):
    """Base class for package errors."""


class MaterialError(NeqCasimirError):
    """Invalid material definition or parameters."""


class SchemaError(NeqCasimirError):
    """Malformed scenario, material file, or data table."""


class TMatrixError(NeqCasimirError):
    """Scattering block could not be evaluated (bad arguments, a
    numerically singular boundary system, or Bessel tables that
    overflow)."""


class QuadratureError(NeqCasimirError):
    """Adaptive integration failed to reach the requested tolerance.

    Carries diagnostics of the worst remaining panel so the caller can
    see where the integrand resisted refinement.
    """

    def __init__(self, message, worst_panel=None, reached=None, target=None):
        super().__init__(message)
        self.worst_panel = worst_panel  # (a, b, value, error) of worst panel
        self.reached = reached          # error estimate actually reached
        self.target = target            # error that was requested
