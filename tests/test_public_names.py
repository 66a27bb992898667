"""Every name a ``repro`` package exports, and every option and method in
``repro``, has a caller outside ``tests/``.

An exported name that only tests call is code the system does not need, and
its tests keep it alive.  For ``repro`` and each subpackage, every
``__all__`` entry must appear as a loaded name (``ast.Name``) or as the
attribute of an attribute access (``ast.Attribute``) in some ``.py`` file
under ``src/repro``, ``benchmarks/``, ``perfbench/`` or ``examples/``.
Imports, ``__all__`` strings, assignment targets, the ``def`` or ``class``
statement itself and a load of a same-named parameter or local of the
enclosing function are not uses.

The same rule holds one level down in every module under ``src/repro``.
Each defaulted parameter of a public function, or of a public method of a
public class (``__init__`` goes by the class's name), needs a call in those
files that sets it: by keyword or by position, through ``partial``, as a
keyword to a function that passes its ``**kwargs`` on to the call, or as a
key of a dict display (``{...}`` or ``dict(...)``) that reaches a ``**`` in
a call in its module, splatted there itself or through the names it is
assigned to and the displays it is spread into.  An argument that forwards
the caller's own parameter ``p`` or ``self.p`` (by keyword or by position)
sets it only when some call sets ``p``.  And each public method or property
of a public class must be read there as an attribute, a name or a string,
not counting a load of a same-named parameter or local.

The checks go by name, not by binding: a same-named attribute anywhere
counts as a use (``np.__version__`` covers ``repro.__version__``).  So they
can miss a dead name.  They flag a live one only where a dict reaches its
``**`` by some other way than names and displays: passed as an argument and
splatted inside the callee, returned, or kept in an attribute.  Its keys
then set nothing, and tier-1 fails loudly; splat the dict at the call, or
exempt the option with its reason.  Each ``EXEMPT`` table lists what is
kept without such a caller, each with its reason, and an entry the guard
would no longer flag fails too.
"""

import ast
import importlib
from collections import defaultdict
from pathlib import Path

import repro

from test_docs import PACKAGES

REPO = Path(repro.__file__).resolve().parents[2]
SOURCE = (REPO / "src" / "repro",)
ROOTS = (*SOURCE, REPO / "benchmarks", REPO / "perfbench", REPO / "examples")

#: Exported names kept without a caller outside ``tests/``, with the reason.
EXEMPT = {
    "hamming_similarity": "the packed engine's oracle: tests/test_quant_engine.py "
    "compares packed scores against it bitwise",
}


_HYPERPARAMETER = (
    "a model hyperparameter the paper does not state: it stays until paired "
    "evidence shows that no paper claim needs it"
)
_TRAINER = (
    "tests/test_train_engine.py compares the exact pass against the reference "
    "loop through it"
)

#: Options kept without a caller outside ``tests/``: a bare parameter name
#: covers every callable, ``Callable(param=)`` one.
EXEMPT_OPTIONS = {
    "clock": "tests substitute time through it, so policies are checked without sleeping",
    "BaggedHD(lr=)": _HYPERPARAMETER,
    "BaggedHD(bootstrap=)": _HYPERPARAMETER,
    "BaggedHD(bandwidth=)": _HYPERPARAMETER,
    "OnlineHD(bandwidth=)": _HYPERPARAMETER,
    "GradientBoostingClassifier(learning_rate=)": _HYPERPARAMETER,
    "GradientBoostingClassifier(reg_lambda=)": _HYPERPARAMETER,
    "GradientBoostingClassifier(gamma=)": _HYPERPARAMETER,
    "GradientTreeRegressor(reg_lambda=)": _HYPERPARAMETER,
    "GradientTreeRegressor(gamma=)": _HYPERPARAMETER,
    "GradientTreeRegressor(min_child_weight=)": _HYPERPARAMETER,
    "RandomForestClassifier(max_depth=)": _HYPERPARAMETER,
    "RandomForestClassifier(min_samples_leaf=)": _HYPERPARAMETER,
    "DecisionTreeClassifier(min_samples_split=)": _HYPERPARAMETER,
    "DecisionTreeClassifier(min_samples_leaf=)": _HYPERPARAMETER,
    "LinearSVM(batch_size=)": _HYPERPARAMETER,
    "MLPClassifier(batch_size=)": _HYPERPARAMETER,
    "OnlineHD.partial_fit(trainer=)": _TRAINER,
    "BoostHD.partial_fit(trainer=)": _TRAINER,
}

#: Methods kept without a reader outside ``tests/``.
EXEMPT_METHODS: dict[str, str] = {}


def _parsed(roots):
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield ast.parse(path.read_text(encoding="utf-8"))


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_names(fn) -> set[str]:
    """A function's parameters and the names its body binds, not counting
    what nested functions and classes bind for themselves."""
    args = fn.args
    names = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {arg.arg for arg in (args.vararg, args.kwarg) if arg is not None}
    declared = set()
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return names - declared


def _read_names(tree) -> set[str]:
    """Names a module reads: loaded ``ast.Name`` ids and ``ast.Attribute``
    attrs, less each load of a name that is a parameter or a local of an
    enclosing function: that reads the function's own value."""
    used = set()

    def visit(node, own):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in own:
                used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        body = ()
        if isinstance(node, _SCOPES):
            # Defaults, annotations and decorators run in the enclosing scope.
            body = node.body if isinstance(node.body, list) else [node.body]
            inner = own | _own_names(node)
        for child in ast.iter_child_nodes(node):
            visit(child, inner if any(child is part for part in body) else own)

    visit(tree, frozenset())
    return used


def uncalled_exports(packages, roots, exempt=()) -> list[str]:
    """``package.name`` of every non-exempt ``__all__`` entry no file under
    ``roots`` reads."""
    used = set().union(*map(_read_names, _parsed(roots)))
    return [
        f"{package}.{name}"
        for package in packages
        for name in importlib.import_module(package).__all__
        if name not in used and name not in exempt
    ]


def _public(name: str) -> bool:
    return not name.startswith("_")


def _name(node) -> str | None:
    """The name a callee goes by: ``f`` of ``f`` and of ``x.f``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _definitions(tree):
    """``(callable name, def, class or None)`` of each module-level function
    and each method; an ``__init__`` goes by its class's name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield (node.name if item.name == "__init__" else item.name), item, node


def _parameters(fn, method: bool) -> tuple[list[str], list[str], list[str]]:
    """``(positional, defaulted, required)`` parameter names; a method's
    ``self`` or ``cls`` is dropped."""
    args = fn.args
    positional = [arg.arg for arg in args.posonlyargs + args.args]
    if method and "staticmethod" not in map(_name, fn.decorator_list):
        positional = positional[1:]
    defaulted = positional[len(positional) - len(args.defaults) :]
    defaulted += [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default]
    every = positional + [arg.arg for arg in args.kwonlyargs]
    return positional, defaulted, [p for p in every if p not in defaulted]


class _Calls(ast.NodeVisitor):
    """Each call's callee, its positional arguments and its keywords (each
    with the parameter it forwards, else ``None``), and the callable whose
    ``**kwargs`` it splats."""

    def __init__(self, inits: dict[str, set[str]]):
        self.inits = inits  # class name -> its __init__'s parameter names
        self.calls = []
        self.scope = [(None, set(), None, None)]  # callable, params, **kwargs, class

    def _enter(self, node, scope):
        self.scope.append(scope)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ClassDef(self, node):
        self._enter(node, (None, set(), None, node))

    def visit_FunctionDef(self, node):
        cls, args = self.scope[-1][3], node.args
        name = cls.name if cls is not None and node.name == "__init__" else node.name
        params = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}
        self._enter(node, (name, params, args.kwarg and args.kwarg.arg, cls))

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self._enter(node, (None, set(), None, self.scope[-1][3]))

    def _source(self, value):
        """The parameter an argument forwards: ``(callable, p)`` for a
        parameter ``p`` of the enclosing callable, ``(class, p)`` for
        ``self.p`` where ``p`` is a parameter of the class's ``__init__``."""
        name, params, _, cls = self.scope[-1]
        if isinstance(value, ast.Name) and value.id in params:
            return name, value.id
        if (
            isinstance(value, ast.Attribute)
            and _name(value.value) == "self"
            and value.attr in self.inits.get(cls and cls.name, ())
        ):
            return cls.name, value.attr
        return None

    def visit_Call(self, node):
        self.generic_visit(node)
        name, _, kwarg, _ = self.scope[-1]
        func, args = node.func, node.args
        if _name(func) == "partial" and args:
            func, args = args[0], args[1:]
        keywords, splat = {}, None
        for keyword in node.keywords:
            if keyword.arg is None:
                splat = name if _name(keyword.value) == kwarg else splat
            else:
                keywords[keyword.arg] = self._source(keyword.value)
        self.calls.append((_name(func), list(map(self._source, args)), keywords, splat))


def _dict_display(node) -> bool:
    """A ``{...}`` display or a ``dict(...)`` call."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "dict"
    return isinstance(node, ast.Dict)


def _splatted_keys(tree) -> set[str]:
    """The keys of every dict display in a module that reaches a ``**`` in a
    call: splatted there itself, or through the names it is assigned to and
    the displays it is spread into.  A name is its binding in its own scope,
    and only names and displays are followed: a dict passed to a function
    that splats its parameter, returned, or kept in an attribute is not."""
    flows, reach = defaultdict(set), set()  # a display or a binding -> where it flows

    def visit(node, scopes):
        def handle(value):
            if not isinstance(value, ast.Name):
                return value
            return next((fn for fn, own in scopes if value.id in own), None), value.id

        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    flows[handle(node.value)].add(handle(target))
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if key is None:
                    flows[handle(value)].add(node)
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg is None:
                    if _dict_display(node):
                        flows[handle(keyword.value)].add(node)
                    else:
                        reach.add(handle(keyword.value))
        body = ()
        if isinstance(node, _SCOPES):
            body = node.body if isinstance(node.body, list) else [node.body]
            inner = ((node, _own_names(node)), *scopes)
        for child in ast.iter_child_nodes(node):
            visit(child, inner if any(child is part for part in body) else scopes)

    visit(tree, ())
    grown = True
    while grown:  # until no display or binding flows into one more that reaches
        more = {source for source, targets in flows.items() if targets & reach} - reach
        reach |= more
        grown = bool(more)
    keys = set()
    for node in reach:
        if isinstance(node, ast.Dict):
            keys |= {key.value for key in node.keys if isinstance(key, ast.Constant)}
        elif _dict_display(node):
            keys |= {keyword.arg for keyword in node.keywords if keyword.arg is not None}
    return keys


def uncalled_options(packages, roots, exempt=()) -> list[str]:
    """``Callable(param=)`` of every non-exempt defaulted parameter of a
    public callable under ``packages`` that no call under ``roots`` sets."""
    trees = list(_parsed(roots))
    signatures, inits = defaultdict(list), {}
    for tree in trees:
        for name, fn, cls in _definitions(tree):
            signature = _parameters(fn, cls is not None)
            signatures[name].append(signature)
            if cls is not None and fn.name == "__init__":
                inits[name] = {p for group in signature for p in group}
    visitor = _Calls(inits)
    for tree in trees:
        visitor.visit(tree)
    keys = set().union(*map(_splatted_keys, trees))
    received = defaultdict(set)  # callable -> keywords its callers pass
    for callee, _, keywords, _ in visitor.calls:
        received[callee] |= set(keywords)

    def is_set(source) -> bool:
        """An argument is set, unless it forwards a parameter (``source``)
        that is only ever defaulted and that no call sets."""
        if source is None or source in live:
            return True
        groups = signatures.get(source[0], ())
        defaulted = any(source[1] in group[1] for group in groups)
        return not defaulted or any(source[1] in group[2] for group in groups)

    live, changed = set(), True
    while changed:  # until no forward makes one more parameter live
        changed = False
        for callee, args, keywords, splat in visitor.calls:
            for positional, defaulted, _ in signatures.get(callee, ()):
                for param in defaulted:
                    index = positional.index(param) if param in positional else len(args)
                    if (callee, param) not in live and (
                        (index < len(args) and is_set(args[index]))
                        or (param in keywords and is_set(keywords[param]))
                        or (splat is not None and param in received[splat])
                        or param in keys
                    ):
                        live.add((callee, param))
                        changed = True
    flagged = []
    for tree in _parsed(packages):
        for name, fn, cls in _definitions(tree):
            if cls is None:
                public = _public(name)
            else:
                public = _public(cls.name) and (fn.name == "__init__" or _public(fn.name))
            if not public:
                continue
            label = name if cls is None or fn.name == "__init__" else f"{cls.name}.{fn.name}"
            for param in _parameters(fn, cls is not None)[1]:
                if (name, param) not in live and param not in exempt:
                    if f"{label}({param}=)" not in exempt:
                        flagged.append(f"{label}({param}=)")
    return flagged


def unread_methods(packages, roots, exempt=()) -> list[str]:
    """``Class.method`` of every non-exempt public method or property of a
    public class under ``packages`` that no file under ``roots`` reads."""
    read = set()
    for tree in _parsed(roots):
        read |= _read_names(tree)
        read |= {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
    return [
        f"{node.name}.{item.name}"
        for tree in _parsed(packages)
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _public(node.name)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _public(item.name)
        and item.name not in read
        and f"{node.name}.{item.name}" not in exempt
    ]


def test_every_exported_name_has_a_caller_outside_tests():
    assert uncalled_exports(PACKAGES, ROOTS, EXEMPT) == []


def test_the_guard_flags_a_name_only_tests_call(tmp_path, monkeypatch):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .mod import used, tested, oracle, shadowed\n"
        "__all__ = ['used', 'tested', 'oracle', 'shadowed']\n"
    )
    (package / "mod.py").write_text(
        "def used():\n    return 1\n"
        "def tested():\n    return used()\n"
        "def oracle():\n    return 2\n"
        "def shadowed():\n    return 3\n"
        "def table(shadowed):\n    return shadowed.items()\n"
        "def nested():\n    shadowed = {}\n    return lambda: shadowed\n"
    )
    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "demo.py").write_text(
        "from pkg import tested\n"
        "import pkg\n"
        "pkg.tested = None\n"
        "oracle = 'tested'\n"
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        "from pkg import oracle, tested\n"
        "def test_it():\n    assert tested() == oracle() - 1\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    roots = (package, examples)
    exempt = {"oracle": "a test oracle"}
    assert uncalled_exports(["pkg"], roots, exempt) == ["pkg.tested", "pkg.shadowed"]
    assert uncalled_exports(["pkg"], roots) == ["pkg.tested", "pkg.oracle", "pkg.shadowed"]


def test_every_option_has_a_caller_outside_tests():
    assert uncalled_options(SOURCE, ROOTS, EXEMPT_OPTIONS) == []


def test_every_method_is_read_outside_tests():
    assert unread_methods(SOURCE, ROOTS, EXEMPT_METHODS) == []


def test_every_exemption_names_something_its_guard_flags():
    """An exemption whose name gained a caller, or left the code, goes."""
    exports = uncalled_exports(PACKAGES, ROOTS)
    options = uncalled_options(SOURCE, ROOTS)
    methods = unread_methods(SOURCE, ROOTS)
    stale = [name for name in EXEMPT if not any(e.endswith(f".{name}") for e in exports)]
    stale += [
        option
        for option in EXEMPT_OPTIONS
        if option not in options and not any(o.endswith(f"({option}=)") for o in options)
    ]
    stale += [method for method in EXEMPT_METHODS if method not in methods]
    assert stale == []


def _throwaway(tmp_path, package_source: str, caller_source: str):
    """A package ``pkg/mod.py`` and an ``examples/demo.py`` calling it; a
    test file that calls everything must not count."""
    tmp_path.mkdir(exist_ok=True)
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(package_source)
    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "demo.py").write_text(caller_source)
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(caller_source + "Service(1, 2, 3, 4, 5, 6, 7)\n")
    return (package,), (package, examples)


def test_the_option_guard_flags_a_parameter_only_tests_set(tmp_path):
    packages, roots = _throwaway(
        tmp_path,
        "from functools import partial\n"
        "class Service:\n"
        "    def __init__(self, a=1, *, kw=2, fwd=3, dead=4, key=5, clock=None, tested=6,\n"
        "                 spread=7, built=8, passed=9):\n"
        "        self.fwd = fwd\n"
        "    def start(self, deep=1):\n"
        "        return Helper(fwd=self.fwd)\n"
        "class Helper:\n"
        "    def __init__(self, fwd=0, unset=0, splat=0):\n"
        "        pass\n"
        "def make(**options):\n"
        "    return Helper(**options)\n"
        "def relay(unset=None):\n"
        "    return Helper(unset=unset)\n"
        "def _private(hidden=1):\n"
        "    return hidden\n",
        "from pkg.mod import Service, make, partial, relay\n"
        "Service(0, kw=1, fwd=2).start()\n"
        "partial(Service, dead=None)\n"
        "options = {'key': 0}\n"
        "base = {'spread': 0}\n"
        "Service(**{**base})\n"
        "Service(**dict(built=0))\n"
        "def forward(extra):\n"
        "    return Service(**extra)\n"
        "extra = {'passed': 0}\n"
        "forward(extra)\n"
        "make(splat=1)\n"
        "relay()\n",
    )
    # ``key`` is in a dict no call splats; ``passed`` is splatted only inside
    # the callee it is passed to, which the rule does not follow.
    assert uncalled_options(packages, roots) == [
        "Service(key=)",
        "Service(clock=)",
        "Service(tested=)",
        "Service(passed=)",
        "Service.start(deep=)",
        "Helper(unset=)",
        "relay(unset=)",
    ]
    exempt = {"clock": "a time hook", "Helper(unset=)": "a reason"}
    assert "Service(clock=)" not in uncalled_options(packages, roots, exempt)
    assert "Helper(unset=)" not in uncalled_options(packages, roots, exempt)


def test_the_option_guard_follows_a_forward_only_when_it_is_set(tmp_path):
    packages, roots = _throwaway(
        tmp_path,
        "class Service:\n"
        "    def __init__(self, fwd=3):\n"
        "        self.fwd = fwd\n"
        "    def start(self):\n"
        "        return Helper(fwd=self.fwd)\n"
        "class Helper:\n"
        "    def __init__(self, fwd=0):\n"
        "        pass\n",
        "from pkg.mod import Service\nService().start()\n",
    )
    assert uncalled_options(packages, roots) == ["Service(fwd=)", "Helper(fwd=)"]


def test_the_option_guard_follows_a_positional_forward_only_when_it_is_set(tmp_path):
    """``f(x, p)`` and ``f(x, self.p)`` set ``f``'s parameter only when a
    call sets the caller's ``p``, down a chain of such forwards."""
    package = (
        "class Service:\n"
        "    def __init__(self, sigma=3):\n"
        "        self.sigma = sigma\n"
        "    def start(self):\n"
        "        return outer(1, self.sigma)\n"
        "def outer(x, sigma=1.0):\n"
        "    return inner(x, sigma)\n"
        "def inner(q, sigma=2.0):\n"
        "    return q * sigma\n"
        "def relay(x, scale=1.0):\n"
        "    return inner(x, scale)\n"
    )
    unset = _throwaway(
        tmp_path / "unset",
        package,
        "from pkg.mod import Service, relay\nService().start()\nrelay(1)\n",
    )
    assert uncalled_options(*unset) == [
        "Service(sigma=)",
        "outer(sigma=)",
        "inner(sigma=)",
        "relay(scale=)",
    ]
    head = _throwaway(
        tmp_path / "head",
        package,
        "from pkg.mod import Service, relay\nService(5).start()\nrelay(1)\n",
    )
    assert uncalled_options(*head) == ["relay(scale=)"]


def test_the_method_guard_flags_a_method_only_tests_read(tmp_path):
    packages, roots = _throwaway(
        tmp_path,
        "class Service:\n"
        "    def used(self):\n"
        "        return self.helper()\n"
        "    def helper(self):\n"
        "        return 1\n"
        "    @property\n"
        "    def named(self):\n"
        "        return 2\n"
        "    def tested(self):\n"
        "        return 3\n"
        "    def _private(self):\n"
        "        return 4\n"
        "class _Hidden:\n"
        "    def unread(self):\n"
        "        return 5\n",
        "from pkg.mod import Service\n"
        "Service().used()\n"
        "getattr(Service(), 'named')\n"
        "Service.tested = None\n"
        "def summary(helper):\n"
        "    tested = helper.used()\n"
        "    return tested\n",
    )
    assert unread_methods(packages, roots) == ["Service.tested"]
    assert unread_methods(packages, roots, {"Service.tested": "a reason"}) == []
