"""Simulator and analysis toolkit for a two-way entanglement-based quantum
dense key distribution protocol.

The package simulates the full two-party protocol over an exact two-qubit
state-vector channel, models intercept-measure-resend eavesdropping on either
channel leg, and quantifies detection probability, key error rates, and key
capacity against an exact enumeration oracle.

Sessions walk round tables that qdkd.oracle builds in exact integer
arithmetic. The names below are the README's API list, which a test pins.
The float physics reference the tests check the tables against
(qdkd._kernels_py, TwoQubitState, the scalar rounds) stays in its modules.
"""

from .adversary import (
    AttackStrategy,
    ChannelLeg,
    EveBasisPolicy,
    EveObservation,
    InterceptResend,
    NoAttack,
    eve_bases,
)
from .errors import ConfigError, ProtocolError, QdkdError
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
    decode,
    expected_correlation,
    key_check,
)
from .quantum import BellOutcome, LocalUnitary, MeasBasis
from .simulate import (
    RoundRecord,
    SessionResult,
    SimConfig,
    SimulationReport,
    derive_seed,
    parse_report,
    run_batch,
    run_session,
    run_simulation,
    serialize_report,
)

__version__ = "0.1.0"
