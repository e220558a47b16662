"""Distributed proximal gradient methods on networks.

Node objectives split into a prox-friendly part and a smooth part; nodes
agree on a shared decision vector by exchanging messages with neighbors
only. The package provides the algorithms, a synchronous network
simulator with communication audits, certified central references, and a
benchmark/experiment driver with theoretical bound curves.
"""

from .bench import (
    BoundCurve,
    ConfigError,
    GeneratedProblem,
    ProblemSpec,
    bound_curves,
    generate_problem,
    load_config,
    run_experiment,
    validate_config,
)
from .dpga import (
    dpga_init,
    dpga_round,
    dpga_round_adaptive,
    edge_consensus_problem,
    gamma_heuristic,
    gamma_star,
    sdpga_round,
)
from .dpga_w import CommunicationMatrix, dpgaw_init, dpgaw_round, sdpgaw_round, w_consensus_problem
from .engine import (
    BlockProblem,
    EngineState,
    constant_plan,
    diminishing_plan,
    horizon_plan,
    pgadmm_step,
    primal_dual_step,
    spgadmm_step,
)
from .errors import DivergenceError, InnerSolveError, ProtocolError
from .baselines import admm_init, admm_round, pg_extra_init, pg_extra_round
from .objective import GroupPartition, NodeObjective, NoisyOracle, prox_sparse_group
from .reference import ReferenceSolution, compute_kappas, fista_solve, prox_bruteforce
from .simnet import (
    AuditLog,
    RoundSchedule,
    RunRecord,
    RunResult,
    Transport,
    audit_check,
    run_synchronous,
)
from .topology import Graph, TopologySpec, build_topology, mixing_pair, spectral_summary

__version__ = "0.1.0"

__all__ = [
    "AuditLog",
    "BlockProblem",
    "BoundCurve",
    "CommunicationMatrix",
    "ConfigError",
    "DivergenceError",
    "EngineState",
    "GeneratedProblem",
    "Graph",
    "GroupPartition",
    "InnerSolveError",
    "NodeObjective",
    "NoisyOracle",
    "ProblemSpec",
    "ProtocolError",
    "ReferenceSolution",
    "RoundSchedule",
    "RunRecord",
    "RunResult",
    "TopologySpec",
    "Transport",
    "admm_init",
    "admm_round",
    "audit_check",
    "bound_curves",
    "build_topology",
    "compute_kappas",
    "constant_plan",
    "diminishing_plan",
    "dpga_init",
    "dpga_round",
    "dpga_round_adaptive",
    "dpgaw_init",
    "dpgaw_round",
    "edge_consensus_problem",
    "fista_solve",
    "gamma_heuristic",
    "gamma_star",
    "generate_problem",
    "horizon_plan",
    "load_config",
    "mixing_pair",
    "pg_extra_init",
    "pg_extra_round",
    "pgadmm_step",
    "primal_dual_step",
    "prox_bruteforce",
    "prox_sparse_group",
    "run_experiment",
    "run_synchronous",
    "sdpga_round",
    "sdpgaw_round",
    "spectral_summary",
    "spgadmm_step",
    "validate_config",
    "w_consensus_problem",
]
