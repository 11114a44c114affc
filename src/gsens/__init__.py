"""Sensitivity analysis for Gaussian conditional-independence models.

Covariance perturbations act multiplicatively (entrywise products) and are
paired with covariation schemes that keep every conditional-independence
statement of the model valid, so the original graph still describes the
perturbed distribution. Divergence between original and perturbed models is
quantified by KL divergence and the Frobenius norm.
"""

from .analysis import (
    Model,
    RegionSummary,
    SweepConfig,
    SweepRecord,
    admissible_region,
    emit,
    load_model,
    load_sweep_config,
    model_to_dict,
    one_way_sweep,
    two_way_sweep,
)
from .cimodel import (
    CICheck,
    CIStatement,
    ModelCheck,
    ci_holds,
    is_separable,
    model_holds,
    nonempty_conditioning,
    separated,
    statement_block,
    union_sets,
)
from .conditioning import Evidence, condition, condition_perturbed
from .covariation import (
    PerturbationPlan,
    PlanStep,
    Scheme,
    Variation,
    Verdict,
    build_plan,
    build_scheme,
    compose,
    make_variation,
    validate_multi,
    verify_preserving,
)
from .divergence import (
    DivergenceReport,
    frobenius,
    frobenius_mp,
    kl_additive,
    kl_gaussian,
    kl_mp,
    kl_total_closed,
    scheme_ordering,
)
from .errors import (
    FactorError,
    GsensError,
    InadmissibleError,
    ModelFormatError,
    ModelPreconditionError,
    SchemeError,
    SingularMatrixError,
)
from .graphmodels import (
    GaussianDag,
    UndirectedGraph,
    UgCheck,
    dag_ci_statements,
    dag_to_gaussian,
    ug_check,
    ug_ci_statements,
)
from .matcore import (
    Block,
    DEFAULT_TOL,
    Minor,
    TolerancePolicy,
    inverse,
    is_psd,
    iter_minors,
    ones_block,
    schur,
    submatrix,
)

__version__ = "0.1.0"
