"""Source hygiene checks over the package, done with `ast` because the
project ships no linter."""
import ast
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import rlfolio
from rlfolio import errors
from rlfolio.agents import AgentConfig
from rlfolio.config import RunConfig
from rlfolio.env import EnvConfig, ObsScaling
from rlfolio.indicators import IndicatorConfig
from rlfolio.settings import setting

PACKAGE = Path(rlfolio.__file__).parent


def exported(tree: ast.Module) -> set[str]:
    """The names a module lists in `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but neither uses nor lists in `__all__`."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported(tree) - {"*"})


def public_definitions(tree: ast.Module) -> set[str]:
    """Public top-level classes, functions and assigned names, except
    functions registered by a decorator (the click commands)."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) or (
                isinstance(node, ast.FunctionDef) and not node.decorator_list):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.add(node.target.id)
    return {n for n in names if not n.startswith("_")}


# Public names no package module reads that stay for a stated reason.
ALLOWED_UNREFERENCED = {
    # perfbench's fingerprint reads it; ROADMAP item 1 deletes both
    "__init__.py": {"KERNEL_BACKEND"},
}


def references(tree: ast.Module) -> set[str]:
    """Names a module reads, as a name, an attribute or an import. A
    definition is none of these, and neither is an `__all__` entry: a name
    only listed there is exported for no caller."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {a.name for a in node.names}
    return refs


def unreferenced(trees: dict[str, ast.Module],
                 allowed: dict[str, set[str]]) -> dict[str, list[str]]:
    """Per module, the public top-level names nothing in `trees` reads,
    but those `allowed` for that module."""
    refs = set().union(*map(references, trees.values()))
    found = {name: sorted(public_definitions(tree) - refs
                          - allowed.get(name, set()))
             for name, tree in trees.items()}
    return {name: names for name, names in found.items() if names}


def package_trees() -> dict[str, ast.Module]:
    return {path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text())
            for path in sorted(PACKAGE.rglob("*.py"))}


def test_unused_imports_are_caught():
    tree = ast.parse("import os\nimport numpy as np\n"
                     "from x import a, b\n__all__ = ['b']\nnp.zeros(a)\n")
    assert unused_imports(tree) == ["os"]


def test_no_unused_imports():
    offenders = {}
    for name, tree in package_trees().items():
        unused = unused_imports(tree)
        if unused:
            offenders[name] = unused
    assert offenders == {}


def test_unreferenced_names_are_caught():
    trees = {"a.py": ast.parse(
                 "import click\nX = 1\n_y = 2\n__all__ = ['f', 'listed']\n"
                 "def f(): return helper()\ndef helper(): pass\n"
                 "def listed(): pass\ndef kept(): pass\n"
                 "def dead(): return X\nclass Dead: pass\n"
                 "@click.command()\ndef cmd(): pass\n"),
             "b.py": ast.parse("from a import f\n")}
    assert unreferenced(trees, {"a.py": {"kept"}}) == {
        "a.py": ["Dead", "dead", "listed"]}


def test_every_public_name_is_referenced():
    assert unreferenced(package_trees(), ALLOWED_UNREFERENCED) == {}


def readers_of(trees: dict[str, ast.Module], name: str) -> list[str]:
    """The modules of `trees` that read `name` (see `references`)."""
    return sorted(module for module, tree in trees.items()
                  if name in references(tree))


def test_date_slice_readers_are_caught():
    trees = {"a.py": ast.parse("rows = panel.date_slice(start, end)\n"),
             "b.py": ast.parse("lookup = panel.date_slice\n"),
             "c.py": ast.parse("def date_slice(start, end): pass\n"
                               "date_slices = panel.rows\n")}
    assert readers_of(trees, "date_slice") == ["a.py", "b.py"]


def test_only_the_window_plan_turns_dates_into_rows():
    # `build_window_plan` resolves each interval's `rows` once; every other
    # module reads those rows instead of looking the dates up again
    assert readers_of(package_trees(), "date_slice") == ["market_data.py"]


# The only `except` clauses that may name a package error, by module and
# enclosing function: the CLI's exit-code boundary, and the config reader,
# which re-raises a field's error under its INI key. Anywhere else an
# outcome such as an undefined ratio is a value, not an exception.
ALLOWED_CATCHES = {
    "cli.py": {("_exit_codes", "UserError")},
    "config.py": {("_build", "SettingInvalid")},
}
ERROR_CLASSES = {name for name, obj in vars(errors).items()
                 if isinstance(obj, type) and issubclass(obj, Exception)
                 and obj.__module__ == errors.__name__}


def caught_errors(tree: ast.Module, names: set[str]) -> list[tuple[str, str]]:
    """(enclosing function, class) for each class of `names` that an
    `except` clause in `tree` names, bare or as an attribute."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and child.type:
                types = (child.type.elts if isinstance(child.type, ast.Tuple)
                         else [child.type])
                found.extend((function, n) for n in (
                    getattr(t, "id", getattr(t, "attr", None)) for t in types)
                    if n in names)
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(tree, "<module>")
    return found


def test_caught_errors_are_flagged():
    tree = ast.parse("def validate(r):\n"
                     "    try:\n        score = sharpe(r)\n"
                     "    except ZeroVolatility:\n        score = None\n"
                     "    try:\n        pass\n"
                     "    except (OSError, errors.SettingInvalid):\n"
                     "        pass\n"
                     "    except ValueError:\n        pass\n")
    assert caught_errors(tree, {"ZeroVolatility", "SettingInvalid"}) == [
        ("validate", "ZeroVolatility"), ("validate", "SettingInvalid")]


def test_package_errors_are_caught_only_at_the_boundaries():
    found = {name: sorted(set(caught_errors(tree, ERROR_CLASSES))
                          - ALLOWED_CATCHES.get(name, set()))
             for name, tree in package_trees().items()}
    assert {name: f for name, f in found.items() if f} == {}


def test_every_package_error_is_a_user_error():
    # a program fault raises one of Python's own exception types: the CLI
    # tells the two kinds apart by `UserError` alone
    defined = {name: obj for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    assert sorted(name for name, obj in defined.items()
                  if not issubclass(obj, errors.UserError)) == []


# The modules that read outside input: a config, bars or index file, a run
# directory, and the settings and lookback checked against it. Only these
# may raise a user error; elsewhere a failed check is a program fault.
USER_INPUT_MODULES = {"cli.py", "config.py", "settings.py", "market_data.py",
                      "turbulence.py", "indicators.py"}


def raisers_of(trees: dict[str, ast.Module], names: set[str]) -> list[str]:
    """The modules of `trees` with a `raise` of a class of `names`, called
    or not, bare or as an attribute."""
    def raised(node: ast.Raise) -> str | None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", getattr(exc, "attr", None))

    return sorted(module for module, tree in trees.items()
                  if any(isinstance(node, ast.Raise) and node.exc is not None
                         and raised(node) in names
                         for node in ast.walk(tree)))


def test_raised_errors_are_caught():
    trees = {"a.py": ast.parse("def f():\n    raise UserError('x')\n"),
             "b.py": ast.parse("raise errors.SettingInvalid('k', 'p')\n"),
             "c.py": ast.parse("raise UserError\n"),
             "d.py": ast.parse("try:\n    pass\nexcept UserError:\n"
                               "    raise\nraise ValueError('x')\n"),
             "e.py": ast.parse("exc = UserError('x')\n")}
    assert raisers_of(trees, {"UserError", "SettingInvalid"}) == [
        "a.py", "b.py", "c.py"]


def test_only_input_readers_raise_user_errors():
    raisers = raisers_of(package_trees(), ERROR_CLASSES)
    assert [m for m in raisers if m not in USER_INPUT_MODULES] == []


CONFIG_CLASSES = (RunConfig, EnvConfig, ObsScaling, IndicatorConfig,
                  AgentConfig)


def undeclared_ranges(cls) -> list[str]:
    """Fields of dataclass `cls` typed `int`, `float`, `int | None`,
    `float | None` or `tuple[int, ...]` that declare no range with
    `settings.setting`."""
    def numeric(tp) -> bool:
        args = typing.get_args(tp)
        if typing.get_origin(tp) is tuple:
            return args[:1] == (int,)
        return tp in (int, float) or (type(None) in args
                                      and bool({int, float} & set(args)))

    hints = typing.get_type_hints(cls)
    return sorted(f.name for f in fields(cls)
                  if numeric(hints[f.name]) and "interval" not in f.metadata)


def test_undeclared_ranges_are_caught():
    @dataclass
    class Example:
        declared: int = setting(1, "[1, inf)")
        optional_declared: float | None = setting(None, "[0, inf)")
        count: int = 1
        rate: float = 0.5
        ridge: float | None = None
        widths: tuple[int, ...] = (1,)
        name: str = "x"
        path: str | None = None

    assert undeclared_ranges(Example) == ["count", "rate", "ridge", "widths"]


def test_every_numeric_setting_declares_its_range():
    assert {cls.__name__: undeclared_ranges(cls) for cls in CONFIG_CLASSES
            if undeclared_ranges(cls)} == {}
