"""Scale-location-truncated beta (SLTB) toolkit.

Bounded-response modeling that keeps exact 0/1 observations in the
likelihood: the SLTB distribution, maximum-likelihood regression with
Wald inference, a Monte Carlo study harness, and hierarchical Bayesian
samplers (linear random-intercept and nonlinear delay-discounting),
plus a batch CLI (``sltb --help``).
"""

from .bayes_hier_linear import (
    HIER_SPEC,
    AlcoholFixture,
    ChainState,
    HierChainResult,
    HierLinearModel,
    Tuning,
    build_hier_model,
    gen_alcohol_fixture,
    hier_linear_loglik,
    initial_state,
    posterior_predictive_mse,
    run_chain,
)
from .bayes_hier_nonlinear import (
    DEFAULT_DELAYS,
    HYPER,
    DiscountData,
    DiscountSample,
    DiscountTruth,
    HyperPriors,
    NonlinearChainState,
    NonlinearResult,
    discount_data_from_table,
    discount_mean,
    gen_discount_data,
    gibbs_mu,
    gibbs_sigma2,
    ig_shape_rate,
    initialize_chain,
    mh_update_lnphi_sltb,
    mh_update_psi_normal,
    mh_update_psi_sltb,
    normal_conditional,
    normal_hier_sample,
    sample_inverse_gamma,
    sltb_hier_sample,
)
from .chain import PosteriorSummary
from .data import TabularDataset, read_csv, write_csv
from .distributions import (
    DEFAULT_L,
    DEFAULT_S,
    BetaMuPhi,
    SltbParams,
    beta_logpdf,
    sltb_cdf,
    sltb_logpdf,
    sltb_mean,
    sltb_pdf,
    sltb_quantile,
    sltb_sample,
    sltb_var,
)
from .errors import (
    BoundaryError,
    ConvergenceError,
    DomainError,
    NumericalError,
    SltbError,
    ValidationError,
)
from .kernel import Rng, numeric_hessian
from .regression import (
    FitResult,
    RegressionSpec,
    build_design,
    fit_mle,
    mse,
    mse_report,
    predict_mean,
    residuals,
    response_vector,
)
from .simulation import (
    STUDY_SPEC,
    McStudyReport,
    SimConfig,
    gen_dataset,
    records_table,
    run_study,
)

__version__ = "0.1.0"
