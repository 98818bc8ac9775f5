"""Exception hierarchy shared across the package."""


class RlfolioError(Exception):
    """Base class for all package-specific errors."""


class InputEmpty(RlfolioError):
    pass


class InputInvalid(RlfolioError):
    pass


class RejectionRateExceeded(RlfolioError):
    def __init__(self, rejected: int, total: int, ceiling: float):
        super().__init__(
            f"{rejected}/{total} rows rejected, above ceiling {ceiling:.2%}"
        )
        self.rejected = rejected
        self.total = total
        self.ceiling = ceiling


class InsufficientData(RlfolioError):
    def __init__(self, needed, available):
        super().__init__(f"needed {needed}, available {available}")
        self.needed = needed
        self.available = available


class SingularCovariance(RlfolioError):
    pass


class ShapeError(RlfolioError, ValueError):
    pass


class GradInvalid(RlfolioError):
    pass


class EpisodeFinished(RlfolioError):
    pass


class BufferUnderflow(RlfolioError):
    pass


class ZeroVolatility(RlfolioError):
    pass


class NoScores(RlfolioError):
    pass
