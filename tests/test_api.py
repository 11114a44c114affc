"""The public names of the gsens package, pinned so that any change to the
exported API shows up in a diff."""

import types

import gsens

PUBLIC = [
    "Block",
    "CICheck",
    "CIStatement",
    "DEFAULT_TOL",
    "DivergenceReport",
    "Evidence",
    "FactorError",
    "GaussianDag",
    "GsensError",
    "InadmissibleError",
    "Minor",
    "Model",
    "ModelCheck",
    "ModelFormatError",
    "ModelPreconditionError",
    "PerturbationPlan",
    "PlanStep",
    "RegionSummary",
    "Scheme",
    "SchemeError",
    "SingularMatrixError",
    "SweepConfig",
    "SweepTable",
    "TolerancePolicy",
    "Variation",
    "admissible_region",
    "build_plan",
    "ci_holds",
    "compose",
    "condition",
    "dag_ci_statements",
    "dag_to_gaussian",
    "emit",
    "frobenius",
    "inverse",
    "iter_minors",
    "kl",
    "load_model",
    "load_sweep_config",
    "model_holds",
    "nonempty_conditioning",
    "one_way_sweep",
    "scheme_ordering",
    "statement_block",
    "submatrix",
    "two_way_sweep",
    "verify_preserving",
]


def test_public_names():
    # submodules become package attributes once imported, in whatever order
    # the tests run; they are not part of the pinned API
    names = sorted(
        name
        for name, value in vars(gsens).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC
