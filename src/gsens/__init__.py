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
    SweepTable,
    admissible_region,
    emit,
    load_model,
    load_sweep_config,
    one_way_sweep,
    two_way_sweep,
)
from .cimodel import (
    CICheck,
    CIStatement,
    ModelCheck,
    ci_holds,
    model_holds,
    statement_block,
)
from .conditioning import Evidence, condition
from .covariation import (
    PerturbationPlan,
    Scheme,
    Variation,
    build_plan,
    compose,
    verify_preserving,
)
from .divergence import (
    frobenius,
    kl,
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
    dag_ci_statements,
    dag_to_gaussian,
)
from .matcore import (
    Block,
    DEFAULT_TOL,
    Minor,
    TolerancePolicy,
    inverse,
    iter_minors,
)

__version__ = "0.1.0"
