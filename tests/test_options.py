"""Every defaulted parameter in src/qcalc is set by a caller in src/ or bench/.

A parameter with a default is an option, and an option earns its place
only when some caller wants another value.  qcalc has two callers, the
battery CLI and the benchmark, so each defaulted parameter of a def in
src/qcalc must be passed at some call in src/ or bench/ (bench's own
tests excluded): by keyword, or by a positional argument at or past its
position.

Calls match definitions by name: `f(...)` and `obj.f(...)` both reach
every def named f, a call of a class reaches its `__init__` and
`__new__`, and `from m import f as g` makes `g(...)` a call of f.  A
method's positions count from the argument after self or cls.  A call
that spreads `*args` passes every position from the spread on, and one
that spreads `**kwargs` passes every keyword.
"""

import ast

from test_reachable import ROOT, package_modules

# Set only by tests, or by a call the scan cannot see.
ALLOWED = {
    "algebra.AlgebraElement.x(n)":
        "verify-algebra calls it through the alias X = AlgebraElement.x",
    "algebra.AlgebraElement.p(n)": "tests build p^b as a reference",
    "batteries.rational.rand_element(max_terms)":
        "tests draw larger elements than the batteries do",
    "batteries.rational.rand_element(span)":
        "tests draw larger elements than the batteries do",
    "batteries.rational.rand_poly(max_terms)":
        "tests draw shorter polynomials than the batteries do",
    "cli.main(argv)": "tests drive the CLI in-process; the script reads "
                      "sys.argv",
    "fields.nabla(route)": "the shift route is the reference tests compare "
                           "the q-number route with",
    "lattice.LatticeGrid.__init__(sectors)":
        "tests check the row layout on one-sector and reordered grids",
    "lattice.LatticeFn.value(require_valid)":
        "tests read padding-damaged sites",
    "lattice.Stencil.dense(s)": "tests compare one sector's matrix",
    "oscillator.build_ladder(alpha)": "tests build ladders off the defaults",
    "oscillator.build_ladder(beta)": "tests build ladders off the defaults",
    "oscillator.gaussian_fourier_pair(c0)":
        "tests check that a NaN c0 reaches every residual",
    "schrodinger.check_noether(alpha)":
        "tests check the charge at another phase",
    "special.SpecialFunctions.cos_q(with_bound)":
        "the benchmark's probe forwards it positionally, so it stays till "
        "the probe goes; tests read the half-ulp bound",
    "special.SpecialFunctions.sin_q(with_bound)":
        "the benchmark's probe forwards it positionally, so it stays till "
        "the probe goes; tests read the half-ulp bound",
}


def _functions(tree, prefix="", cls=None):
    """(qualified name, def node, enclosing class name or None)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node, cls
            yield from _functions(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".", node.name)
        else:
            yield from _functions(node, prefix, cls)


def _defaulted(fn, cls):
    """(name, call position or None) of each parameter with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in fn.decorator_list)
    bound = 1 if cls is not None and not static else 0
    first = len(positional) - len(args.defaults)
    for i in range(first, len(positional)):
        yield positional[i].arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _calls(tree):
    """(called name, positions passed, keywords passed) of every call;
    None in the keywords stands for a `**` spread."""
    alias = {a.asname: a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             for a in node.names if a.asname}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            continue
        spread = any(isinstance(a, ast.Starred) for a in node.args)
        n_pos = float("inf") if spread else len(node.args)
        yield alias.get(name, name), n_pos, {k.arg for k in node.keywords}


def unset_options(package, callers):
    """'module.Qual(param)' for each defaulted parameter no call sets.

    package maps module names to source text; callers is a list of
    source texts whose calls count.
    """
    calls = [c for text in callers for c in _calls(ast.parse(text))]
    out = []
    for module, text in package.items():
        for qual, fn, cls in _functions(ast.parse(text)):
            names = ({cls} if cls and fn.name in ("__init__", "__new__")
                     else {fn.name})
            for param, pos in _defaulted(fn, cls):
                if not any(name in names and (
                        param in kws or None in kws
                        or (pos is not None and n_pos > pos))
                        for name, n_pos, kws in calls):
                    out.append(f"{module}.{qual}({param})")
    return out


def _package_unset():
    package = {name: path.read_text() for name, path in package_modules()}
    callers = [path.read_text()
               for path in [*(ROOT / "src").rglob("*.py"),
                            *(ROOT / "bench").rglob("*.py")]
               if "tests" not in path.relative_to(ROOT).parts]
    return unset_options(package, callers)


def test_every_option_is_set_by_src_or_bench():
    assert [p for p in _package_unset() if p not in ALLOWED] == []


def test_allowlist_holds_only_unset_options():
    # an allowlisted option that gains a caller in src/ or bench/, or
    # disappears, leaves the list; the cap keeps it from growing
    assert len(ALLOWED) <= 17
    assert sorted(_package_unset()) == sorted(ALLOWED)


def test_scan_matches_calls_to_parameters():
    package = {"m": (
        "def f(a, b=1, *, c=2):\n    pass\n"
        "def g(a=1):\n    pass\n"
        "def h(a=1):\n    pass\n"
        "def spread(a=1, b=2):\n    pass\n"
        "def star(a, b=1):\n    pass\n"
        "class K:\n"
        "    def __init__(self, a=1, b=2):\n        pass\n"
        "    def meth(self, a=1, b=2):\n        pass\n"
        "    @staticmethod\n"
        "    def stat(a=1):\n        pass\n")}
    callers = [
        "from m import g as gg\n"
        "f(0, 5)\n"        # b by position
        "gg(a=3)\n"        # g through its alias, by keyword
        "h()\n"            # a left at its default
        "spread(**kw)\n"   # every keyword
        "star(*xs)\n"      # every position
        "K(1)\n"           # __init__ a, positions count after self
        "obj.meth(b=4)\n"  # b by keyword; a unset
        "K.stat(1)\n"]     # no self to skip
    assert unset_options(package, callers) == [
        "m.f(c)", "m.h(a)", "m.K.__init__(b)", "m.K.meth(a)"]
