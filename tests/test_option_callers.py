"""Every parameter with a default in the package has a caller that sets it.

A caller is a call in `src/`, `demos/`, `perfbench/` or
`tests/test_acceptance.py` whose callee name matches the function's and
which passes the parameter by keyword or by position; a call of a class
counts as a call of its `__init__`.  A parameter that only unit tests set is
a second path through the code that nothing runs, so it goes, or it is
listed in ALLOWED with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "zrbr").glob("*.py"))
CALLERS = (PACKAGE + sorted((ROOT / "demos").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"])

# module.function.parameter (module.Class.method.parameter for a method) -> reason
ALLOWED = {
    "exponents.derive.b0": "b0 is a free exponent of theta_41 and theta_521; "
                           "no command varies it yet",
    "cli.main.argv": "the command line; None reads sys.argv, tests pass their own",
    "bourgain.random_band_limited.time_band": "equivalence tests vary the drawn support",
    "bourgain.random_band_limited.space_band": "equivalence tests vary the drawn support",
    "bourgain.random_band_limited.cutoff": "equivalence tests vary the drawn support",
    "spectral.low_mode_coefficients.leading": "equivalence tests check that a stack of fields "
                                              "drawn at once is the stream of successive draws",
    "evolution.strang_step.dealias": "the cross-solver test compares Picard, which does "
                                     "not dealias, with an undealiased Strang step",
    "bourgain.strichartz_ratio.disp": "the wave dispersions of the Strichartz check "
                                      "(ROADMAP item 3 gives it a command)",
}


def options(source: str, module: str) -> list[tuple]:
    """(name, callee, position, keyword) per parameter with a default.

    callee is the name a call uses: the class for __init__, the function or
    method otherwise.  position is the index among the positional arguments
    of a call, None for a keyword-only parameter; a method's self or cls is
    not counted.
    """
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend(defaults(child, owner))
                visit(child, None)
            else:
                visit(child, owner)

    def defaults(fn, owner):
        args = fn.args
        positional = args.posonlyargs + args.args
        bound = owner is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
        callee = owner.name if owner is not None and fn.name == "__init__" else fn.name
        prefix = ".".join([module] + ([owner.name] if owner is not None else []) + [fn.name])
        first = len(positional) - len(args.defaults)
        out = []
        for i, a in enumerate(positional[first:], start=first):
            out.append((f"{prefix}.{a.arg}", callee, i - bound, a.arg))
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                out.append((f"{prefix}.{a.arg}", callee, None, a.arg))
        return out

    visit(ast.parse(source), None)
    return found


def calls(source: str) -> list[tuple]:
    """(callee, positional count, star, keywords, double star) per call."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        star = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords if k.arg is not None}
        double = any(k.arg is None for k in node.keywords)
        out.append((name, len(node.args), star, keywords, double))
    return out


def uncalled(option_sources: dict, caller_sources: list) -> list[str]:
    """Names of the options that no call in caller_sources passes."""
    seen = [c for source in caller_sources for c in calls(source)]
    missing = []
    for module, source in option_sources.items():
        for name, callee, position, keyword in options(source, module):
            if not any(c == callee and (keyword in kws or double or star
                                        or (position is not None and position < npos))
                       for c, npos, star, kws, double in seen):
                missing.append(name)
    return missing


def test_gate_sees_an_option_nothing_sets():
    source = (
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class K:\n"
        "    def __init__(self, x=0, y=1):\n        pass\n"
        "    def m(self, z=0):\n        pass\n"
        "f(0, 5)\nf(0, d=4)\nK(1)\nk.m()\n"
    )
    assert uncalled({"mod": source}, [source]) == ["mod.f.c", "mod.K.__init__.y", "mod.K.m.z"]
    assert uncalled({"mod": source}, [source, "f(*args)\nK(**kw)\nm(z=1)\n"]) == []


def test_every_option_has_a_caller():
    modules = {p.stem: p.read_text() for p in PACKAGE}
    missing = uncalled(modules, [p.read_text() for p in CALLERS])
    unexplained = [name for name in missing if name not in ALLOWED]
    assert not unexplained, f"options no caller sets: {unexplained}"
    stale = [name for name in ALLOWED if name not in missing]
    assert not stale, f"allowed options that now have a caller: {stale}"
