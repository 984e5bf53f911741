"""Exception types shared across the package.

Each domain error names the `code` the CLI reports for it, next to the
message and the keyword `detail` given when it is raised.
"""


class PrimeDiffError(Exception):
    """Base class for package-specific errors."""

    def __init__(self, message: str, **detail):
        super().__init__(message)
        self.detail = detail


class Infeasible(PrimeDiffError):
    """The requested structure provably does not exist for these parameters."""

    code = "infeasible"


class NonEdge(PrimeDiffError):
    """The given vertex pair is not an edge: its difference is not prime."""

    code = "non_edge"


class NotFound(PrimeDiffError):
    """A bounded search exhausted its limit without an answer."""

    code = "not_found"


class OrderCapExceeded(PrimeDiffError):
    """A brute-force query was asked about a graph above the configured cap."""

    code = "order_cap_exceeded"

    def __init__(self, order: int, cap: int):
        super().__init__(f"order {order} exceeds brute-force cap {cap}", order=order, cap=cap)
        self.order = order
        self.cap = cap


class ConstructionError(PrimeDiffError):
    """A constructor produced a witness that failed its own verifier."""

    code = "construction_error"
