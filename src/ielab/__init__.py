"""Simulation laboratory for incentivized episodic exploration in tabular
MDPs: exact Bayesian agents, a hidden-hallucination signaling principal,
and rational-arithmetic verifiers for its incentive guarantees."""

__version__ = "0.1.0"

from .errors import (
    AssumptionViolated,
    CapExceeded,
    ConfigError,
    DegenerateSplit,
    IELabError,
    IncompleteEnumeration,
    OracleUnavailable,
    PreconditionViolated,
    VerificationFailure,
    ZeroEvidence,
)
from .mdp import (
    DiscreteDist,
    MarkovPolicy,
    Step,
    TabularModel,
    Trajectory,
    all_triples,
    as_fraction,
    build_model,
    complement_triples,
    enumerate_policies,
    enumerate_trajectories,
    event_visit_probability,
    occupancy_omega,
    optimal_value,
    policy_value,
    reach_probability,
    reach_set,
    sample_trajectory,
    trajectory_probability,
)
from .ledgers import (
    Ledger,
    censor_ledger,
    censor_trajectory,
    ledger_probability,
    raw_ledger,
    reveal_rewards,
    totally_censor,
    underexplored_set,
    visit_counts,
)
from .priors import (
    DiscretePrior,
    FactoredRewardPrior,
    LedgerState,
    Posterior,
    PriorTables,
    bayes_greedy,
    canonical_gap,
    canonical_posterior,
    conditional_value,
    f_min,
    prior_as_posterior,
    r_min,
)
from .mechanism import (
    GameLog,
    MechanismConfig,
    det_parameters,
    det_phase_length,
    hallucinate_ledger,
    hallucination_posterior,
    hh_condition_holds,
    p_hal_bound,
    phase_episodes,
    prob_parameters,
    punish_event,
    q_pun_r_alt_exact,
    replay_signals,
    run_game,
    run_games,
)
from .agents import AgentSpec, make_agent, mechanism_posterior
from .oracle import (
    JointTable,
    enumerate_game,
    fabricated_rewards_case,
    hallucination_distribution_check,
    hygiene_tv,
    hygiene_tv_pairs,
    one_step_audit,
    p_hal_audit,
    policy_selection_case,
)
from .analysis import (
    Estimators,
    SimilarityReport,
    empirical_estimators,
    eps_p_bound,
    eps_r_bound,
    first_unexplored_stage,
    good_model_predicate,
    performance_difference,
    similarity,
    simulation_gap,
    sufficiently_visiting_policies,
    truncated_expected_sum,
)
from .instances import micro_det_1, micro_stoch_1, perturb_model, random_model
