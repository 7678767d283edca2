"""Exceptions that separate bound violations from plain usage errors."""


class VerificationError(RuntimeError):
    """A numerically checked bound or clearance failed to hold.

    Raised when a verifier or refuter produces a point that does not satisfy
    the guarantee it was asked to certify, or when a zero of a trigonometric
    polynomial cannot be placed to the residual every reported zero meets.
    Since the underlying statements are proved, this signals an optimizer or
    root-finder miss or a genuine bug, never an expected runtime condition.
    """
