"""Properties of the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hermlift"


def test_no_assert_statements():
    # an assert vanishes under python -O; checks in the package raise instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_weighted_bincount():
    # np.bincount sums weights in float64; exact sums are taken in int64
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "bincount"
             and (len(node.args) > 1 or any(k.arg == "weights" for k in node.keywords))]
    assert found == []


# caches keyed by the discriminant D alone: one entry per field, so bounded
# by the fields a process meets
KEYED_BY_D = {"criterion._tables", "quadfield._classes", "charsums.i_sqrtD"}


def _unbounded_caches():
    """module.function for every functools cache in the package without a
    finite maxsize: @cache, @lru_cache(maxsize=None), @lru_cache(None)."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            for dec in node.decorator_list:
                name = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(name, "id", getattr(name, "attr", None))
                if name == "cache":
                    unbounded = True
                elif name == "lru_cache" and isinstance(dec, ast.Call):
                    size = dec.args[0] if dec.args else next(
                        (k.value for k in dec.keywords if k.arg == "maxsize"), None)
                    unbounded = size is not None and isinstance(size, ast.Constant) and size.value is None
                else:
                    continue
                if unbounded:
                    found[f"{path.stem}.{node.name}"] = [a.arg for a in node.args.args]
    return found


def test_every_cache_is_bounded():
    found = _unbounded_caches()
    assert set(found) == KEYED_BY_D
    assert all(args == ["D"] for args in found.values()), found


def _imported(path):
    """(line, names) of each import statement in path: the module it names
    and the names it binds."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            yield node.lineno, [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            yield node.lineno, [a.name for a in node.names]


def test_criterion_imports_nothing_from_cyclotomic():
    # the inner sums are read into residues only, so no per-triple CycloNum
    # reader can come back beside the two residue readers
    found = [line for line, names in _imported(SRC / "criterion.py")
             if any(name.split(".")[-1] == "cyclotomic" for name in names)]
    assert found == []


# what the exact readers build on: the float route shares `sigma_context`,
# `chi_component`, `classes` and `lattice_coords` with them, and no table
EXACT_READERS = {"_direct_rows", "_tables", "_gauss_terms", "theta_terms", "monomial_terms",
                 "ResidueRing", "inner_sum_direct", "inner_sum_closed"}


def test_float_route_reads_nothing_of_the_exact_readers():
    # the float route is the independent oracle of both residue readers, so
    # it may not name what they are built from
    oracle = {"_theta_matrix_float", "_inner_sums_float"}
    funcs = [node for node in ast.parse((SRC / "criterion.py").read_text()).body
             if isinstance(node, ast.FunctionDef) and node.name in oracle]
    assert {f.name for f in funcs} == oracle
    found = [f"{f.name}:{node.lineno}" for f in funcs for node in ast.walk(f)
             if getattr(node, "id", getattr(node, "attr", None)) in EXACT_READERS]
    assert found == []
