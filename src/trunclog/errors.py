"""Exception types shared across the package."""


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a root of its reduced denominator.

    Carries the offending point and, when raised while specializing a
    polynomial coefficient by coefficient, the index of that coefficient.
    """

    def __init__(self, point, index=None):
        self.point = point
        self.index = index
        where = f"coefficient {index}, " if index is not None else ""
        super().__init__(f"pole at {where}point {point}")


class NonSplitError(ValueError):
    """A polynomial expected to split into linear factors over F_p does not."""

    def __init__(self, remainder):
        self.remainder = remainder
        super().__init__(
            f"non-split factor of degree {remainder.degree}: {remainder}"
        )


class TheoremViolationError(RuntimeError):
    """Two independent routes that must agree disagree.  Never expected."""

