"""The package's public surface, read from its source: every name a module
exports in `__all__` is read by the package itself, or is listed below with
the criterion or reference it serves; and every name one module reads from
another is in that module's `__all__`."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trajlm"
ORACLE = Path(__file__).resolve().parent / "oracle.py"

# (module, export) with no reader in the package, and what it serves.
# numerics is held to a stricter rule: its exports need a reader in another module.
NO_PRODUCTION_READER = {
    ("numerics", "grad_check"): "the tests' finite-difference gradient check (criterion 1)",
    ("objective", "soft_target"): "criterion 4's scalar reference for ntp_targets",
    ("vocab", "decode_token"): "criterion 2's exhaustive token round trip",
    ("vocab", "quantile_match"): "criterion 2's rank-preservation oracle",
    ("synthcohort", "analytic_cross_correlation"): "the planted-structure oracle in test_synthcohort.py",
}


def module_exports(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            return [elt.value for elt in node.value.elts]
    return []


def bound_names(node) -> set[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def readers(trees) -> dict[tuple[str, str], set[str]]:
    """(module, name) -> the modules that read it: a name imported from the
    module, an attribute of the imported module (`nm.ffn_block`), or, in the
    module itself, a name loaded outside the statement that defines it.  The
    package `__init__` re-exports and reads nothing."""
    seen: dict[tuple[str, str], set[str]] = {}
    for reader, tree in trees.items():
        if reader == "__init__":
            continue
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        aliases[a.asname or a.name] = a.name
                    else:
                        seen.setdefault((node.module, a.name), set()).add(reader)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                seen.setdefault((aliases[node.value.id], node.attr), set()).add(reader)
        for top in tree.body:
            own = bound_names(top)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own:
                    seen.setdefault((reader, node.id), set()).add(reader)
    return seen


def test_every_export_has_a_production_reader():
    """An export whose last reader goes is deleted, or named above with its
    reason; and every name `__init__` re-exports is in its module's `__all__`."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    exports = {(m, name) for m, tree in trees.items() for name in module_exports(tree)}
    seen = readers(trees)

    def read(m, name):
        return bool(seen.get((m, name), set()) - ({m} if m == "numerics" else set()))

    assert set(NO_PRODUCTION_READER) <= exports
    assert sorted(e for e in exports - set(NO_PRODUCTION_READER) if not read(*e)) == []
    assert sorted(e for e in NO_PRODUCTION_READER if read(*e)) == []
    reexported = {
        (node.module, a.name)
        for node in ast.walk(trees["__init__"])
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for a in node.names
    }
    assert sorted(reexported - exports) == []


def test_every_name_read_across_modules_is_exported():
    """A sibling's `from .x import y` and `x_alias.y` name an entry of
    `x.__all__`: no module reaches into another's private or unlisted names."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    exports = {(m, name) for m, tree in trees.items() for name in module_exports(tree)}
    crossing = {(m, name) for (m, name), by in readers(trees).items() if by - {m}}
    assert sorted(crossing - exports) == []


def test_cli_computes_no_statistics():
    """`cli` reads inputs and writes artifacts: it reads no name from `stats`
    and builds no metric row or report; `evalharness` scores for it."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    read_by_cli = {(m, name) for (m, name), by in readers(trees).items() if "cli" in by and m != "cli"}
    assert sorted(e for e in read_by_cli if e[0] == "stats") == []
    assert sorted(read_by_cli & {("evalharness", "MetricReport"), ("evalharness", "ModalityMetrics")}) == []


def forward_callers(path) -> set[tuple[str, str | None]]:
    """(module, function) of each call to `forward`, by name or as an
    attribute, with the innermost function around it (None at module level)."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and "forward" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.add((path.stem, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_inference_calls_forward_from_one_place():
    """Outside `objective`, whose training and validation passes are its own,
    exactly one function calls `forward`: evalharness's inference pass, which
    builds the mask, value scales and head ranges and decodes the block for
    eval-ntp, every query and the cross-modal probe."""
    callers = set().union(*(forward_callers(p) for p in PACKAGE.glob("*.py") if p.stem != "objective"))
    assert sorted(callers, key=str) == [("evalharness", "_pass")]


def imported_roots(path) -> set[str]:
    """The top-level names of the modules a source file imports; a relative
    import keeps its leading dots."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or "").split(".")[0])
    return imported


def test_oracle_imports_only_numpy_and_the_standard_library():
    """The oracle is independent of the code it checks: it imports numpy and
    standard-library modules only, so nothing of trajlm, and nothing that
    could import trajlm, stands behind its numbers."""
    imported = imported_roots(ORACLE)
    assert imported and sorted(imported - {"numpy"} - sys.stdlib_module_names) == []


def test_package_imports_only_numpy_the_standard_library_and_itself():
    """numpy is the one runtime dependency: no module imports scipy, at
    module level or inside a function; scipy serves the tests only."""
    outside = {
        (p.stem, name)
        for p in PACKAGE.glob("*.py")
        for name in imported_roots(p) - {"numpy"} - sys.stdlib_module_names
        if not name.startswith(".")
    }
    assert sorted(outside) == []
