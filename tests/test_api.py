"""The public names of the gsens package, pinned so that any change to the
exported API shows up in a diff, and the module attributes that the
benchmark's per-layer tracer binds by name."""

import importlib
import importlib.util
import types
from pathlib import Path

import gsens

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

PUBLIC = [
    "Block",
    "CICheck",
    "CIStatement",
    "DEFAULT_TOL",
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
    "one_way_sweep",
    "scheme_ordering",
    "statement_block",
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


def test_names_the_benchmark_tracer_binds_exist():
    # the tracer wraps each TARGETS function at every module attribute that
    # binds it, and counts the minors cimodel enumerates; a name deleted
    # from gsens would otherwise fail only the benchmark's own self-test
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    importlib.import_module("gsens.cli")
    missing = [
        f"{module}.{name}"
        for _, module, name in tracer.TARGETS
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
    assert gsens.cimodel.iter_minors is gsens.matcore.iter_minors
