"""User errors. A `UserError` is bad input: a config value, an input or
index file, or data too short for the run. A program fault raises one of
Python's own exception types."""


class UserError(Exception):
    """Bad input from the user; the CLI prints it and exits 2."""


class SettingInvalid(UserError, ValueError):
    """Config field `name` has a value out of its range."""

    def __init__(self, name: str, problem: str):
        super().__init__(f"{name} {problem}")
        self.name, self.problem = name, problem
