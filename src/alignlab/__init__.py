"""Simulation and verification lab for stochastic gradient alignment dynamics
on ill-conditioned quadratic losses.

Problems live entirely in the Hessian eigenbasis: a `Spectrum` (eigenvalues
with a dominant/bulk split), a `NoiseProfile` (per-direction gradient noise
variances), and a `State` (iterate coordinates). `theory` evaluates every
closed-form threshold and prediction, `dynamics` runs SGD trajectories that
jump by `theory.mode_law`, `montecarlo` checks the predictions (projected
updates one step at a time, by `projected-test`) against sampled one-step
expectations, and `harness`/`cli` package the experiment presets.
"""

from .dynamics import TrajectoryRecord, late_phase_statistic, run_trajectory
from .errors import (
    AlignlabError,
    ConstructionError,
    DegenerateBlockError,
    DegenerateStateError,
    DivergenceError,
    InsufficientDataError,
    ParameterError,
    StepSizeError,
    UndefinedBoundError,
    UnsupportedNoiseError,
)
from .harness import ExperimentConfig, load_config
from .montecarlo import (
    McEstimate,
    Verdict,
    drift_verdicts,
    one_step_estimates,
    projected_verdicts,
)
from .spectrum import (
    NoiseProfile,
    Spectrum,
    build_spectrum,
    isotropic_noise,
)
from .state import BlockStats, State, alignment, block_stats, loss, random_init, rescale_to_alignment
from .theory import (
    CrossoverQuadratic,
    CsgdPlan,
    DriftQuadratic,
    RegimeThresholds,
    crossover,
    crossover_gap_bounds,
    csgd_plan,
    drift_quadratic,
    eta_star_lower_bound,
    eta_star_upper_bound,
    expected_drift,
    expected_loss_change,
    expected_next_block_energy,
    expected_second_moment,
    g_gap,
    loss_threshold,
    mode_law,
    theory_report,
    theta_star,
    theta_star_rate_fit,
)

__version__ = "0.1.0"
