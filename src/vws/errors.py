"""Exception and warning types shared across the package."""


class NonConvergence(RuntimeError):
    """A solve ran out of iterations or missed its tolerance.

    Carries the best iterate seen so far together with its residual so a
    caller can inspect or keep it.
    """

    def __init__(self, message, best_x=None, residual=None, iterations=None):
        super().__init__(message)
        self.best_x = best_x
        self.residual = residual
        self.iterations = iterations


class IncompatibleBoundaryData(ValueError):
    """Boundary data whose net flux through the boundary is not zero."""


class ZeroBoundaryData(ValueError):
    """An estimate ratio was requested for identically zero boundary data."""


class NonTangentialData(ValueError):
    """Stream-function route requires boundary data with zero normal part."""


class RecipeMismatch(ValueError):
    """Two experiment runs cannot be compared: different recipes."""


class UnderResolvedWarning(UserWarning):
    """The grid is coarser than a layer of width eps needs: n < resolved_n(eps)."""
