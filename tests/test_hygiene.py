"""Source hygiene checks over the package, done with `ast` because the
project ships no linter."""
import ast
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import rlfolio
from rlfolio import config, errors
from rlfolio.agents import AGENT_KINDS, AgentConfig
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
    functions registered by a decorator (the click commands), and the
    public methods of those classes as `Class.method`."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.add(node.name)
            names |= {f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not item.name.startswith("_")}
        elif isinstance(node, ast.FunctionDef) and not node.decorator_list:
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
    # the no-lookahead gates turn it on to log every date an env reads
    "market_data.py": {"PricePanel.enable_access_tracking"},
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
    """Per module, the public top-level names and methods nothing in
    `trees` reads, but those `allowed` for that module. A method counts as
    read where any attribute of its name is."""
    refs = set().union(*map(references, trees.values()))
    found = {name: sorted(d for d in public_definitions(tree)
                          if d.rpartition(".")[2] not in refs
                          and d not in allowed.get(name, set()))
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


def test_unreferenced_methods_are_caught():
    trees = {"a.py": ast.parse(
                 "class Panel:\n"
                 "    def __init__(self): self._cache()\n"
                 "    def _cache(self): pass\n"
                 "    def read(self): pass\n"
                 "    def unread(self): pass\n"
                 "    def kept(self): pass\n"
                 "    @property\n    def size(self): return 1\n"
                 "    @property\n    def shape(self): return 1\n"),
             "b.py": ast.parse("from a import Panel\n"
                               "p = Panel()\np.read()\nprint(p.size)\n")}
    assert unreferenced(trees, {"a.py": {"Panel.kept"}}) == {
        "a.py": ["Panel.shape", "Panel.unread"]}


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


def callers_of(trees: dict[str, ast.Module], name: str) -> list[str]:
    """`module:definition` of each call of `name`, bare or as an attribute,
    by the top-level function or class around it (`<module>` outside
    any)."""
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            around = node.name if isinstance(
                node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            found.extend(f"{module}:{around}" for call in ast.walk(node)
                         if isinstance(call, ast.Call) and name in (
                             getattr(call.func, "id", None),
                             getattr(call.func, "attr", None)))
    return sorted(found)


def test_dict_reader_callers_are_caught():
    trees = {"a.py": ast.parse("def f(fh):\n    return csv.DictReader(fh)\n"
                               "def g(fh):\n    return DictReader(fh)\n"),
             "b.py": ast.parse("reader = csv.DictReader(open('x'))\n"
                               "def h():\n    return csv.DictReader\n")}
    assert callers_of(trees, "DictReader") == ["a.py:f", "a.py:g",
                                                "b.py:<module>"]


def test_only_the_levels_reader_parses_date_value_files():
    # the index file and every equity curve go through one reader, so each
    # fault in a `date,value` file has one message
    assert callers_of(package_trees(), "DictReader") == ["cli.py:_read_levels"]


def module_bindings(tree: ast.Module) -> set[str]:
    """The names a module's top-level statements define or import."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def stale_exports(trees: dict[str, ast.Module]) -> dict[str, list[str]]:
    """Per module, the `__all__` entries it does not define or import."""
    found = {name: sorted(exported(tree) - module_bindings(tree))
             for name, tree in trees.items()}
    return {name: names for name, names in found.items() if names}


def test_stale_exports_are_caught():
    trees = {"a.py": ast.parse("from x import y\nimport z.w\nN: int = 1\n"
                               "__all__ = ['f', 'C', 'K', 'N', 'y', 'z', "
                               "'gone']\n"
                               "def f(): pass\nclass C: pass\nK = 2\n")}
    assert stale_exports(trees) == {"a.py": ["gone"]}


def test_every_export_is_defined():
    assert stale_exports(package_trees()) == {}


def dataclass_fields(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Per class of `trees` decorated `@dataclass` or `@dataclass(...)`,
    the names its body annotates."""
    def is_dataclass(cls: ast.ClassDef) -> bool:
        names = set()
        for dec in cls.decorator_list:
            dec = getattr(dec, "func", dec)      # `@dataclass(...)`
            names |= {getattr(dec, "id", None), getattr(dec, "attr", None)}
        return "dataclass" in names

    return {node.name: {item.target.id for item in node.body
                        if isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)}
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and is_dataclass(node)}


def late_field_stores(trees: dict[str, ast.Module]) -> list[str]:
    """`module:line target` of each store to a dataclass field after its
    object is built. Outside a class's own methods, that is any store to an
    attribute named after a field of a dataclass of `trees`; in a
    dataclass's methods, a store to one of its fields on `self` anywhere
    but `__post_init__`."""
    own = dataclass_fields(trees)
    every = set().union(*own.values())
    found = []

    def visit(node: ast.AST, cls: str | None, method: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
                continue
            if isinstance(child, ast.FunctionDef):
                # a function nested in a method is part of that method
                visit(child, cls, child.name if cls and not method
                      else method)
                continue
            if (isinstance(child, ast.Attribute)
                    and isinstance(child.ctx, ast.Store)):
                if method and getattr(child.value, "id", None) == "self":
                    late = (child.attr in own.get(cls, set())
                            and method != "__post_init__")
                else:
                    late = child.attr in every
                if late:
                    found.append(f"{module}:{child.lineno} "
                                 f"{ast.unparse(child)}")
            visit(child, cls, method)

    for module, tree in trees.items():
        visit(tree, None, None)
    return found


def test_late_field_stores_are_caught():
    trees = {"a.py": ast.parse(
                 "from dataclasses import dataclass\n"
                 "@dataclass\nclass Report:\n"
                 "    total: int\n    dropped: int = 0\n"
                 "    def __post_init__(self):\n"
                 "        self.dropped = max(self.dropped, 0)\n"
                 "    def bump(self):\n        self.total += 1\n"
                 "@dataclasses.dataclass(frozen=True)\nclass Point:\n"
                 "    x: float\n"
                 "class Plain:\n    def __init__(self, report):\n"
                 "        self.total = 0\n        report.total = 1\n"
                 "def load(rows):\n    report = Report(len(rows))\n"
                 "    report.dropped = 2\n    report.other = 3\n"
                 "    def mark(self):\n        self.x = 1\n"),
             "b.py": ast.parse("def f(p, r):\n    r.total -= 1\n"
                               "    p.x, p.y = 1, 2\n")}
    assert late_field_stores(trees) == [
        "a.py:9 self.total", "a.py:16 report.total", "a.py:19 report.dropped",
        "a.py:22 self.x", "b.py:2 r.total", "b.py:3 p.x"]


def test_dataclass_fields_are_set_only_when_built():
    # `EnvState` caches `portfolio_value` at construction, and the slotted
    # states are not frozen: a field assigned later would leave it stale
    assert late_field_stores(package_trees()) == []


# The only `except` clauses that may name a package error, by module and
# enclosing function: the CLI's exit-code boundary, the CLI's bars-file
# reader, which re-raises a load error under the file's path, and the config
# reader, which re-raises a field's error under its INI section. Anywhere
# else an outcome such as an undefined ratio is a value, not an exception.
ALLOWED_CATCHES = {
    "cli.py": {("_exit_codes", "UserError"), ("_load_panel", "UserError")},
    "config.py": {("_build", "UserError")},
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
                     "    except (OSError, errors.UserError):\n"
                     "        pass\n"
                     "    except ValueError:\n        pass\n")
    assert caught_errors(tree, {"ZeroVolatility", "UserError"}) == [
        ("validate", "ZeroVolatility"), ("validate", "UserError")]


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
             "b.py": ast.parse("raise errors.UserError('k')\n"),
             "c.py": ast.parse("raise UserError\n"),
             "d.py": ast.parse("try:\n    pass\nexcept UserError:\n"
                               "    raise\nraise ValueError('x')\n"),
             "e.py": ast.parse("exc = UserError('x')\n")}
    assert raisers_of(trees, {"UserError"}) == [
        "a.py", "b.py", "c.py"]


def test_only_input_readers_raise_user_errors():
    raisers = raisers_of(package_trees(), ERROR_CLASSES)
    assert [m for m in raisers if m not in USER_INPUT_MODULES] == []


# one dataclass per INI section
CONFIG_CLASSES = tuple(config._SECTIONS.values())


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


def config_reads(trees: dict[str, ast.Module],
                 names: set[str]) -> dict[str, set[str]]:
    """Per learner class of `trees` (one that assigns `kind`), keyed by that
    kind: the `names` read as an attribute in the class, its bases within
    `trees`, or `train_agent`, which every learner runs through."""
    classes = {node.name: node for tree in trees.values()
               for node in tree.body if isinstance(node, ast.ClassDef)}

    def reads(node: ast.AST) -> set[str]:
        return {n.attr for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and n.attr in names}

    def lineage(cls: ast.ClassDef) -> list[ast.ClassDef]:
        return [cls] + [c for base in cls.bases
                        if getattr(base, "id", None) in classes
                        for c in lineage(classes[base.id])]

    def kind(cls: ast.ClassDef) -> str | None:
        return next((node.value.value for node in cls.body
                     if isinstance(node, ast.Assign)
                     and isinstance(node.value, ast.Constant)
                     and any(getattr(t, "id", None) == "kind"
                             for t in node.targets)), None)

    shared = set().union(*(reads(node) for tree in trees.values()
                           for node in tree.body
                           if isinstance(node, ast.FunctionDef)
                           and node.name == "train_agent"))
    return {kind(cls): shared.union(*map(reads, lineage(cls)))
            for cls in classes.values() if kind(cls)}


def test_config_reads_are_caught():
    trees = {"base.py": ast.parse(
                 "class Base:\n    kind = '?'\n"
                 "    def lr(self): return self.config.lr\n"
                 "class Store:\n    def f(self): return self.config.tau\n"),
             "a.py": ast.parse(
                 "from base import Base\nclass A(Base):\n    kind = 'A'\n"
                 "    def f(self):\n        cfg = self.config\n"
                 "        return cfg.epochs, self.other\n"),
             "b.py": ast.parse("class B:\n    kind = 'B'\n"
                               "def train_agent(config): config.steps\n")}
    assert config_reads(trees, {"lr", "tau", "epochs", "steps"}) == {
        "?": {"lr", "steps"}, "A": {"epochs", "lr", "steps"}, "B": {"steps"}}


def test_each_learner_reads_exactly_the_settings_declared_for_it():
    # `[agents.<kind>]` and the snapshot take their keys from the
    # declarations, so a key a learner never reads is a setting that does
    # nothing, and one it reads undeclared cannot be set for it
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((PACKAGE / "agents").glob("*.py"))}
    declared = {kind: {f.name for f in fields(AgentConfig)
                       if kind in (f.metadata.get("kinds") or AGENT_KINDS)}
                for kind in AGENT_KINDS}
    reads = config_reads(trees, {f.name for f in fields(AgentConfig)})
    assert {kind: reads.get(kind) for kind in AGENT_KINDS} == declared


CONVERSIONS = {"asarray", "atleast_2d", "array", "ascontiguousarray"}

# The only parameters a package function converts with one of
# `CONVERSIONS`, as `module:function parameter`. Every other internal call
# passes the form its callee computes with, so a conversion there would
# only hide a caller that passes another.
ALLOWED_CONVERSIONS = [
    # the one bound on an action: a float32 policy mean, a DDPG action or a
    # test's list, cast to float64 before the clip
    "env.py:resolve_action action",
    # a carried portfolio's holdings, copied so the env owns its state
    "env.py:TradingEnv.reset holdings",
    # float64 observations and store rows, cast to the net's float32
    "neural.py:Mlp._check_input x",
    # float64 loss gradients, cast to the net's float32
    "neural.py:Mlp.backward upstream",
    # `np.cov` of a single asset's returns is 0-d
    "evaluation.py:min_variance_weights cov",
    # the index file's levels arrive as a Python list
    "evaluation.py:run_index_baseline index_levels",
]


def parameter_conversions(trees: dict[str, ast.Module]) -> list[str]:
    """`module:function parameter` of each `np.<conversion>` call of
    `CONVERSIONS` whose first argument is a parameter of the function
    around it: a method as `Class.method`, a nested function as
    `outer.inner`, which sees only its own parameters."""
    found = []

    def visit(node: ast.AST, scope: list[str], params: set[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, [*scope, child.name], set())
                continue
            if isinstance(child, ast.FunctionDef):
                a = child.args
                visit(child, [*scope, child.name],
                      {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                       a.vararg, a.kwarg) if p})
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and getattr(child.func.value, "id", None) == "np"
                    and child.func.attr in CONVERSIONS and child.args
                    and getattr(child.args[0], "id", None) in params):
                found.append(f"{module}:{'.'.join(scope)} "
                             f"{child.args[0].id}")
            visit(child, scope, params)

    for module, tree in trees.items():
        visit(tree, [], set())
    return found


def test_parameter_conversions_are_caught():
    trees = {"a.py": ast.parse(
                 "import numpy as np\n"
                 "x = np.asarray(y)\n"
                 "def f(a, *rest, key=None, **kw):\n"
                 "    np.atleast_2d(np.asarray(a, dtype=float))\n"
                 "    np.array(key), np.ascontiguousarray(kw)\n"
                 "    np.array(rest[0]), np.zeros(a), np.asarray(other)\n"
                 "    def inner(c):\n"
                 "        return np.asarray(c), np.asarray(a)\n"
                 "class C:\n"
                 "    def m(self, v):\n"
                 "        b = np.array(v)\n"
                 "        return np.array(b), numpy.asarray(v)\n")}
    assert parameter_conversions(trees) == [
        "a.py:f a", "a.py:f key", "a.py:f kw", "a.py:f.inner c",
        "a.py:C.m v"]


def test_only_the_listed_parameters_are_converted():
    assert (sorted(parameter_conversions(package_trees()))
            == sorted(ALLOWED_CONVERSIONS))
