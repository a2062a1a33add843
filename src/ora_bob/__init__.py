"""Online resource allocation under budget and general long-term constraints.

A simulation and verification engine: a dual-gradient-descent allocator with
a hard budget gate, stochastic and adversarial environments, exact offline
oracles (dynamic optimum, LP relaxation, Slater parameters), trajectory
metrics with closed-form bound checks, and an audit layer that re-derives the
run's invariants from recorded traces.
"""

from .allocator import (
    default_config,
    run,
    run_lanes,
)
from .core import (
    ActionSet,
    BudgetSpec,
    Instance,
    InstanceValidationError,
    StochasticModel,
    Trajectory,
    ValidationError,
    ValidationReport,
)
from .dual_ogd import (
    OgdConfig,
    dual_drift_audit,
    dual_penalty_audit,
    interval_regret_audit,
    learning_rate,
)
from .environments import (
    Example1Fixture,
    make_example1_instance,
    make_pacing_model,
    make_push_pull_model,
    random_instance,
    random_model,
    sample_instance,
)
from .lagrangian import penalties
from .metrics import (
    alpha_regret,
    regret,
    run_summary,
    theorem_bounds,
    total_reward,
    violation,
)
from .oracles import (
    OracleReport,
    SizeGuardError,
    alpha,
    opt_bruteforce,
    opt_lp_relax,
    opt_stoc_estimate,
    slater_adv,
    slater_adv_bruteforce,
    slater_stoc,
)
from .serialization import load_instance, save_instance

__version__ = "0.1.0"
