"""Sparse deep ReLU network regression on hierarchical sparse-grid bases."""

from .losses import LossSpec, loss_subgradient, loss_value
from .estimator import (
    FeatureMap,
    FitConfig,
    SdrnModel,
    adam_fit,
    fit_sdrn,
    hyperparams_from_n,
)
from .sparse_grid import (
    BasisId,
    SparseGridBasis,
    SurplusSet,
    approximation_bound,
    cardinality_bounds,
    enumerate_basis,
    hat_eval,
    index_set,
    interpolate,
    surplus_oracle,
    tensor_hat_eval,
)
from .relu_product import (
    ComplexityReport,
    ReluGraph,
    approx_basis_eval,
    build_basis_network,
    build_pair_network,
    build_square_network,
    pair_product,
    product_features,
    square_approx,
    tooth,
)
from .evalsuite import (
    SimModelSpec,
    classification_metrics,
    generate,
    regression_metrics,
    run_replications,
    verify_bounds,
)

__version__ = "0.1.0"
