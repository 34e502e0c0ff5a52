"""Exception types shared across the package."""


class PopucError(Exception):
    """Base class for every domain error raised here."""


class ShapeError(PopucError):
    """Structurally invalid input: wrong arity, degree, ordering or monicity."""


class ConvergenceError(PopucError):
    """A solve missed its residual contract; carries the residual reached."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (best residual {residual:.3e})")
        self.residual = residual


class DegenerateNodesError(PopucError):
    """Nodes too close to separate (interpolation, node-only recovery)."""


class SpectralValidityError(PopucError):
    """A computed spectrum left the unit circle by more than the allowed slack, or two nodes coincide."""


class WeightError(PopucError):
    """Weights came out non-real, non-positive or badly normalized."""


class SzegoClassError(PopucError):
    """A recovered coefficient left the open unit disc."""


class SpectrumInconsistencyError(PopucError):
    """Input spectrum contradicts the stated unimodular closure parameter."""


class NotPersymmetricError(PopucError):
    """Data that should describe a persymmetric system does not."""


class PersymmetryViolationError(PopucError):
    """A persymmetry-only identity failed beyond tolerance."""
