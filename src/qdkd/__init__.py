"""Simulator and analysis toolkit for a two-way entanglement-based quantum
dense key distribution protocol.

The package simulates the full two-party protocol over an exact two-qubit
state-vector channel, models intercept-measure-resend eavesdropping on either
channel leg, and quantifies detection probability, key error rates, and key
capacity against an exact enumeration oracle.

The state-vector kernels are plain Python functions over tuples of four
complex amplitudes (qdkd._kernels_py); qdkd.quantum wraps them in
TwoQubitState values.
"""

from .adversary import (
    AttackStrategy,
    ChannelLeg,
    EveBasisPolicy,
    EveObservation,
    InterceptResend,
    NoAttack,
    apply_attack,
    eve_bases,
)
from .errors import (
    ConfigError,
    DegenerateBranchError,
    ProtocolError,
    QdkdError,
)
from .oracle import (
    OracleResult,
    abort_probability,
    control_detection_probability,
    eve_resolved_bits,
    exact_oracle,
    message_error_distribution,
    unitary_outcome_table,
)
from .protocol import (
    CheckVerdict,
    ClassicalMessage,
    ControlVerdict,
    Correlation,
    KeyCheckPolicy,
    KeyCheckResult,
    KeyMode,
    RoundMode,
    accumulate_key,
    alice_prepare,
    bob_choose_mode,
    decode,
    expected_correlation,
    key_check,
    run_control_round,
    run_message_round,
)
from .quantum import (
    BellOutcome,
    LocalUnitary,
    MeasBasis,
    QubitId,
    TwoQubitState,
    apply_local,
    bell_state,
    measure_bell,
    measure_qubit,
    prob_bell,
    prob_qubit,
    states_equal_up_to_phase,
)
from .simulate import (
    RoundRecord,
    SessionResult,
    SimConfig,
    SimulationReport,
    derive_seed,
    parse_report,
    render_unitary_table,
    run_batch,
    run_session,
    run_simulation,
    serialize_report,
)

__version__ = "0.1.0"
