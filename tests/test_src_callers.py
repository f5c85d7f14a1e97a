"""Every top-level function and class of ``src/zrlab``, and every method of
its classes, is named by code in ``src/`` outside its own definition, or is
listed below with the reason it stays.  A name counts where the parsed
source uses it (a name, an attribute or an import), not where a comment or
docstring mentions it; a method counts by its bare name, whatever class
defines it.  Dunder methods are called by Python itself and are skipped.

Likewise every parameter with a default, of any function or method in
``src/``, is passed by some call in ``src/`` or is listed with its reason,
and every parameter of any function or method is read in its body or is
listed with its reason.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "zrlab"

# the objects no src/ code calls, and why each stays
NO_SRC_CALLER = {
    "compact_bump": "acceptance-08's and the benchmark's test function",
    "discrete_frac_laplacian": "the tests' reference for the regional "
                               "fractional Laplacian",
    "exact_stationary_distribution": "acceptance-02's brute-force oracle",
    "FugacityProfile.phi_at": "acceptance-04 reads the profile at a "
                              "macroscopic point with it",
    "FugacityProfile.symmetry_gap": "acceptance-01 and the benchmark's "
                                    "solve tracer read it",
    "FugacityProfile.within_bounds": "acceptance-01's maximum principle",
    "exclusion_bond_currents": "traced by the benchmark; the simulated "
                               "exclusion currents (ROADMAP item 5) are "
                               "checked against it",
    "gateaux_derivative": "acceptance-09 checks it against finite "
                          "differences",
    "h_weighted_limit": "the tests' reference for fick_limit: the current "
                        "limit as the h_theta-weighted integral of rho",
    "hydrostatic_average": "the hydrostatic-limit check (ROADMAP item 7) "
                           "reads it",
    "read_continuum_csv": "the reader of continuum_profile.csv; the "
                          "benchmark's weak-form job reads the CLI's file "
                          "with it",
    "weak_form_residual": "acceptance-08 and the benchmark's weak-form job; "
                          "ROADMAP item 7 makes it a profile check",
}


def _definitions_and_uses():
    """{name: module} of the top-level defs and classes and of the methods
    (as ``Class.method``), and {bare name: set of the definitions (None:
    module level) that use it}."""
    defined, used_by = {}, defaultdict(set)

    def record(node, owner):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                used_by[sub.id].add(owner)
            elif isinstance(sub, ast.Attribute):
                used_by[sub.attr].add(owner)
            elif isinstance(sub, ast.alias):
                used_by[sub.asname or sub.name].add(owner)

    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                defined[top.name] = path.name
                record(top, top.name)
            elif isinstance(top, ast.ClassDef):
                defined[top.name] = path.name
                for part in top.decorator_list + top.bases + top.keywords:
                    record(part, top.name)
                for item in top.body:
                    owner = top.name
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")):
                        owner = f"{top.name}.{item.name}"
                        defined[owner] = path.name
                    record(item, owner)
            else:
                record(top, None)
    return defined, used_by


DEFINED, USED_BY = _definitions_and_uses()


def _has_src_caller(name):
    """Used outside its own definition; for a class, outside its methods
    too."""
    return any(owner != name and not str(owner).startswith(name + ".")
               for owner in USED_BY[name.rsplit(".", 1)[-1]])


def test_every_object_has_a_caller_or_a_reason():
    idle = [f"{DEFINED[name]}: {name}" for name in sorted(DEFINED)
            if not _has_src_caller(name) and name not in NO_SRC_CALLER]
    assert not idle, ("called by nothing in src/; give each a caller, "
                      "delete it, or list it with the reason it stays: "
                      f"{idle}")


def test_the_list_names_only_objects_without_a_caller():
    gone = sorted(NO_SRC_CALLER.keys() - DEFINED.keys())
    assert not gone, f"no longer defined; drop from the list: {gone}"
    called = sorted(name for name in NO_SRC_CALLER if _has_src_caller(name))
    assert not called, f"called in src/ now; drop from the list: {called}"


# the defaulted parameters no src/ call passes, and why each stays
NO_SRC_ARGUMENT = {
    "main(argv)": "the tests and the benchmark run the CLI in process",
    "compact_bump(modulation)": "acceptance-08 and the benchmark modulate "
                                "their test functions",
    "weak_form_residual(level)": "the tests refine the quadrature with it",
    "simulate_zero_range(init, track_histogram)": "the tests start chains "
                                                  "from a given state and "
                                                  "read occupation "
                                                  "histograms",
    "simulate_exclusion(init)": "the tests start chains from a given state",
    "exact_stationary_distribution(kmax)": "the tests truncate the "
                                           "brute-force oracle with it",
    "FugacityProfile.within_bounds(slack)": "the tests allow rounding "
                                            "slack with it",
}


def _defaulted_and_passed():
    """{function: [(position, name)] of its defaulted parameters} over
    every def in src/ (a method as ``Class.method``, positions counted after
    its first parameter), and {called name: [(positional count, keywords)]}
    over every call; a ``*args`` or ``**kwargs`` argument counts as passing
    every parameter."""
    defaulted, calls = {}, defaultdict(list)

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.FunctionDef):
                visit(child, None)
                a = child.args
                positional = a.posonlyargs + a.args
                offset = 1 if owner else 0
                named = [(i - offset, arg.arg) for i, arg in enumerate(
                    positional[len(positional) - len(a.defaults):],
                    start=len(positional) - len(a.defaults))]
                named += [(None, arg.arg) for arg, default in
                          zip(a.kwonlyargs, a.kw_defaults) if default]
                if named:
                    name = (f"{owner}.{child.name}" if owner else child.name)
                    defaulted[name] = named
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = getattr(func, "id", None) or getattr(func, "attr",
                                                              None)
                spread = (any(isinstance(x, ast.Starred) for x in child.args)
                          or any(k.arg is None for k in child.keywords))
                calls[called].append(
                    (float("inf") if spread else len(child.args),
                     None if spread else {k.arg for k in child.keywords}))
            visit(child, owner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), None)
    return defaulted, calls


def _idle_parameters():
    """``function(p, q)`` for each function with defaulted parameters that
    no src/ call passes, by position or by keyword; a class call is the
    call of its ``__init__``."""
    defaulted, calls = _defaulted_and_passed()
    idle = []
    for name, params in sorted(defaulted.items()):
        owner, _, bare = name.rpartition(".")
        called = owner if bare == "__init__" else bare
        unused = [param for index, param in params
                  if not any((index is not None and index < count)
                             or keywords is None or param in keywords
                             for count, keywords in calls[called])]
        if unused:
            idle.append(f"{name}({', '.join(unused)})")
    return idle


def test_every_defaulted_parameter_is_passed_or_listed():
    idle = _idle_parameters()
    unlisted = [entry for entry in idle if entry not in NO_SRC_ARGUMENT]
    assert not unlisted, ("passed by no call in src/; drop the parameter, "
                          "pass it, or list it with the reason it stays: "
                          f"{unlisted}")
    stale = sorted(NO_SRC_ARGUMENT.keys() - set(idle))
    assert not stale, f"not an idle parameter list now; update: {stale}"


# the parameters no body reads, and why each stays
NO_SRC_READ = {
    "continuum_pairing(m_bar)": "acceptance-09 calls continuum_pairing(pi, "
                                "cont, G); it keeps the signature alike "
                                "to rate_function's",
}


def _unread_parameters():
    """``function(p, q)`` for each def in src/ (a method as
    ``Class.method``) whose parameters p, q are never loaded as a name in
    its body, nested functions included."""
    unread = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.FunctionDef):
                a = child.args
                params = [arg.arg for arg in a.posonlyargs + a.args
                          + a.kwonlyargs + [a.vararg, a.kwarg] if arg]
                read = {sub.id for stmt in child.body
                        for sub in ast.walk(stmt)
                        if isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Load)}
                idle = [p for p in params if p not in read]
                if idle:
                    name = (f"{owner}.{child.name}" if owner else child.name)
                    unread.append(f"{name}({', '.join(idle)})")
                visit(child, None)
                continue
            visit(child, owner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), None)
    return unread


def test_every_parameter_is_read_or_listed():
    unread = _unread_parameters()
    unlisted = [entry for entry in unread if entry not in NO_SRC_READ]
    assert not unlisted, ("read nowhere in the body; drop the parameter, "
                          "read it, or list it with the reason it stays: "
                          f"{unlisted}")
    stale = sorted(NO_SRC_READ.keys() - set(unread))
    assert not stale, f"read in its body now; drop from the list: {stale}"
