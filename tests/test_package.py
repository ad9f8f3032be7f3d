import ldovco


def test_every_export_resolves():
    assert [name for name in ldovco.__all__ if not hasattr(ldovco, name)] == []
    assert len(set(ldovco.__all__)) == len(ldovco.__all__)


def test_public_api_is_pinned():
    # the behavioral models and their pieces stay internal to ldovco.behavior
    assert set(ldovco.__all__) == {
        "DEFAULT_CONSTRAINTS", "DEFAULT_TECH", "Constraint", "Corner", "DesignSpace",
        "EvaluationFailure", "NOMINAL_CORNER", "PerfMetrics", "SizingProblem",
        "TechConstants", "Variable", "compare_designs", "enumerate_corners", "evaluate",
        "evaluate_corners", "fom", "load_bundled_constants", "load_bundled_point",
        "load_bundled_problem", "pn_sweep", "point_as_dict", "point_from_dict", "repair",
        "sample_initial", "validate_space", "violation", "worst_case",
    }
