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
