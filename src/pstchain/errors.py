"""Exception types shared across the toolkit."""


class NumericalError(Exception):
    """A numerical failure of a well-posed request (command-line exit 3)."""


class NotCommensurateError(NumericalError):
    """The gap structure of a spectrum admits no common odd-multiple base."""


class DegenerateGapsError(NotCommensurateError):
    """Some spectral gap is too small, relative to the largest one, to resolve."""


class ReconstructionUnstableError(NumericalError):
    """The coupling-reconstruction recursion broke down.

    `site_index` is the 1-based bond index at which the breakdown occurred
    (0 if the failure is not attached to a specific bond).
    """

    def __init__(self, message: str, site_index: int = 0):
        super().__init__(message)
        self.site_index = site_index


class NoWindowError(NumericalError):
    """No contiguous region of the fidelity trace reaches the requested threshold."""


class NoEchoError(NumericalError):
    """No local fidelity maximum above the detection floor was found."""
