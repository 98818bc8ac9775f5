"""Exception hierarchy shared across the package. A `UserError` is bad
input: a config value, an input or index file, or data too short for the
run. Every other error is a program fault."""


class RlfolioError(Exception):
    """Base class for all package-specific errors."""


class UserError(RlfolioError):
    """Bad input from the user; the CLI prints it and exits 2."""


class InputEmpty(UserError):
    pass


class InputInvalid(UserError):
    pass


class SettingInvalid(InputInvalid, ValueError):
    """Config field `name` has a value out of its range."""

    def __init__(self, name: str, problem: str):
        super().__init__(f"{name} {problem}")
        self.name, self.problem = name, problem


class RejectionRateExceeded(UserError):
    def __init__(self, rejected: int, total: int, ceiling: float):
        super().__init__(
            f"{rejected}/{total} rows rejected, above ceiling {ceiling:.2%}"
        )


class InsufficientData(UserError):
    def __init__(self, needed, available):
        super().__init__(f"needed {needed}, available {available}")


# program faults: the CLI exits 1
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
