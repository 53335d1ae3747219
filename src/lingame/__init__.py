"""Toolkit for multiplayer linear games over finite Abelian groups.

Capabilities: exact classical and Svetlichny values, no-signaling values,
singular-value upper bounds on quantum success, explicit quantum strategy
evaluation, device-independent witnesses of genuine tripartite
entanglement, and simulation of communication protocols powered by
nonlocal boxes.
"""

from .algebra import AbelianGroup, FiniteField, is_irreducible, smallest_irreducible
from .errors import (
    GameFormatError,
    LingameError,
    NoThresholdError,
    ResourceLimitError,
    ShapeError,
    ValidationError,
)
from .games import (
    Behavior,
    DeterministicStrategy,
    LinearGame,
    chsh_game,
    game_hash,
    load_game,
    make_game,
    mermin_ghz3_game,
    parse_game_file,
    serialize_game,
    success_probability,
)
from .linalg import max_singular_value
from .values import (
    ClassicalResult,
    SeparabilityReport,
    classical_value,
    no_signaling_value,
    separability_check,
    svetlichny_value,
)
from .qbounds import (
    BoundReport,
    PartitionBound,
    chsh_bound_analytic,
    game_matrix,
    quantum_bound,
)
from .strategies import (
    CorrelatorTensor,
    QuantumStrategy,
    correlators,
    ghz3_reference_strategy,
    load_strategy,
    noisy_success,
    parse_strategy_file,
    strategy_behavior,
    success_from_correlators,
)
from .diew import (
    BiseparablePartition,
    BiseparableReport,
    Verdict,
    WitnessResult,
    biseparable_bound,
    biseparable_bound_partition,
    biseparable_matrix,
    visibility_threshold,
    witness_verdict,
)
from .boxworld import (
    FunctionTable,
    FunctionalBox,
    PRBox,
    PolyCoefficients,
    ProtocolTranscript,
    Reduction,
    box_behavior,
    box_sample,
    cc_protocol,
    interpolate_polynomial,
    load_function,
    parse_function_file,
    partial_derivative,
    protocol_runs,
    reduce_to_pr,
    simulate_pr_from_functional,
)

__version__ = "0.1.0"
