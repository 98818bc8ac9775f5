"""User errors. A `UserError` is bad input: a config value, an input or
index file, or data too short for the run. A program fault raises one of
Python's own exception types."""


class UserError(Exception):
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

