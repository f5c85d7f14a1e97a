"""Every top-level function and class of ``src/zrlab``, and every method of
its classes, is named by code in ``src/`` outside its own definition, or is
listed below with the reason it stays.  A name counts where the parsed
source uses it (a name, an attribute or an import), not where a comment or
docstring mentions it; a method counts by its bare name, whatever class
defines it.  Dunder methods are called by Python itself and are skipped.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "zrlab"

# the objects no src/ code calls, and why each stays
NO_SRC_CALLER = {
    "compact_bump": "acceptance-08's and the benchmark's test function",
    "continuum_pairing": "acceptance-09 pairs profiles with it",
    "discrete_frac_laplacian": "the tests' reference for the regional "
                               "fractional Laplacian",
    "empirical_pairing": "the Monte Carlo hydrostatic test's estimator",
    "exact_stationary_distribution": "acceptance-02's brute-force oracle",
    "FugacityProfile.phi_at": "acceptance-04 reads the profile at a "
                              "macroscopic point with it",
    "FugacityProfile.symmetry_gap": "acceptance-01 and the benchmark's "
                                    "solve tracer read it",
    "FugacityProfile.within_bounds": "acceptance-01's maximum principle",
    "exclusion_bond_currents": "traced by the benchmark; the simulated "
                               "exclusion currents (ROADMAP item 3) are "
                               "checked against it",
    "gateaux_derivative": "acceptance-09 checks it against finite "
                          "differences",
    "h_weighted_limit": "the tests' reference for fick_limit: the current "
                        "limit as the h_theta-weighted integral of rho",
    "hydrostatic_average": "the hydrostatic-limit check (ROADMAP item 4) "
                           "reads it",
    "read_continuum_csv": "the reader of continuum_profile.csv; the "
                          "benchmark's weak-form job reads the CLI's file "
                          "with it",
    "weak_form_residual": "acceptance-08 and the benchmark's weak-form job; "
                          "ROADMAP item 4 makes it a profile check",
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
