import ast
import re
from pathlib import Path

import ldovco


def test_every_export_resolves():
    assert [name for name in ldovco.__all__ if not hasattr(ldovco, name)] == []
    assert len(set(ldovco.__all__)) == len(ldovco.__all__)


def test_public_api_is_pinned():
    # a name is public when a module other than its own, the CLI or an
    # acceptance criterion uses it; the rest stay in their modules
    assert set(ldovco.__all__) == {
        "Constraint", "Corner", "DesignSpace", "EvaluationFailure", "NOMINAL_CORNER",
        "PerfMetrics", "SizingProblem", "TechConstants", "Variable", "enumerate_corners",
        "evaluate", "fom", "load_bundled_constants", "load_bundled_problem", "pn_sweep",
        "point_from_dict", "repair", "sample_initial", "validate_space", "violation",
        "worst_case",
    }


# Module-level names that nothing in src/ or bench/ reads, kept on purpose.
UNREAD_ALLOWED = {
    "predict": "acceptance criterion 4 scores the surrogate's mean prediction with it",
    "load_bundled_point": "the only reader of the bundled reference design points",
}


def module_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("__")]


def test_every_module_level_name_is_read():
    # a definition is dead code when its name appears nowhere but there
    root = Path(__file__).resolve().parents[1]
    sources = sorted((root / "src" / "ldovco").glob("*.py"))
    text = "\n".join(p.read_text() for p in sources + sorted((root / "bench").glob("*.py")))
    unread = {
        name
        for path in sources
        for name in module_level_names(ast.parse(path.read_text()))
        if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2
    }
    assert unread == set(UNREAD_ALLOWED)
