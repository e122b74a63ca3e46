"""latticelab: finite-dimensional Banach lattice geometry.

Lorentz norms and their renormings, convexity/concavity and vector-valued
estimate constants, polar-set factorizations of lattice operators, embedding
certificates for sup-sums of weak-L_p, and tensor-product ideal norms, all
over R^n with the coordinatewise order.
"""

__version__ = "0.1.0"

from ._util import TOLERANCES  # noqa: F401
from .core import (  # noqa: F401
    AtomicMeasure,
    BlockLorentz,
    ConstantEstimate,
    Example54Dual,
    GaugeOf,
    LatticeSchemaError,
    LinfSum,
    LinOperator,
    Lp,
    NormSpec,
    NormedLattice,
    PredualOf,
    SymmetricSeqNorm,
    WeightedLorentzPInfty,
    WeightedLorentzQ1,
    dual_lattice,
    eval_dual_norm,
    eval_norm,
    eval_norm_detail,
    lattice_from_dict,
    lattice_to_dict,
    norming_functional,
    sigma_apply,
    sigma_dual,
)
from .lorentz import (  # noqa: F401
    RearrangedStep,
    StepFunction,
    build_weakLp_embedding,
    check_renorming_sandwich,
    norm_pinfty_r,
    norm_q1,
    quasinorm_pinfty,
    rearrange,
)
from .constants import (  # noqa: F401
    Concave,
    Convex,
    LowerEstimate,
    UpperEstimate,
    check_q_convexity_bound,
    duality_gap,
    estimate_constant,
    gamma,
    generalized_concavity_ratio,
    generalized_convexity_ratio,
    identity_operator,
    ratio,
    reproduce_lpinfty_lp,
)
from .convexgeom import (  # noqa: F401
    FactorizationTriple,
    SolidConvexBody,
    body_contains,
    build_C_body,
    build_minimal_factorization,
    gauge,
    gauge_norming,
    interpolate_theta,
    search_D_violation,
    support_function,
    support_function_witness,
    verify_polarity,
)
from .embedcert import (  # noqa: F401
    CoveringFamily,
    EmbeddingCertificate,
    c42_bound,
    example54_bound_formula,
    reproduce_example54,
    t41_check,
    validate_certificate,
)
from .idealnorms import (  # noqa: F401
    TensorRep,
    build_eta_factorization,
    multiplication_operator_check,
    theta_lower,
    theta_value,
)
