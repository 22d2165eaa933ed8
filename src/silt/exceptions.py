"""Shared exception types."""


class SingularityError(ValueError):
    """A Jacobian determinant vanished (or fell below its declared bound) at a point."""

    def __init__(self, point, message=""):
        self.point = point
        super().__init__(message or f"singular Jacobian determinant at point {point}")


class NotPositiveSemidefiniteError(ValueError):
    """A covariance/Gram matrix has an eigenvalue below the allowed tolerance."""


class ConfigError(ValueError):
    """Invalid configuration; ``violations`` lists every problem found."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
