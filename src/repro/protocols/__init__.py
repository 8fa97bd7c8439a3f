"""Concrete Byzantine agreement protocols (the paper's substrate).

* :mod:`repro.protocols.dolev_strong` — authenticated Byzantine broadcast,
  any ``t < n`` ([52]).
* :mod:`repro.protocols.eig` — unauthenticated EIG agreement and
  interactive consistency, ``n > 3t`` ([78], [82]).
* :mod:`repro.protocols.phase_king` — unauthenticated strong consensus
  with polynomial messages, ``n > 3t``.
* :mod:`repro.protocols.interactive_consistency` — authenticated and
  unauthenticated IC (§5.2.2).
* :mod:`repro.protocols.weak_consensus` — correct weak consensus plus the
  unsound flooding counterexample.
* :mod:`repro.protocols.strong_consensus` — strong consensus wrappers.
* :mod:`repro.protocols.external_validity` — blockchain-style agreement
  with External Validity (§4.3).
* :mod:`repro.protocols.subquadratic` — sub-quadratic cheaters the lower
  bound breaks (experiment E3).
* :mod:`repro.protocols.byzantine_strategies` — reusable attack machines.
* :mod:`repro.protocols.vector_consensus` — vector consensus over IC
  ([38] in §6).
* :mod:`repro.protocols.gradecast` — graded/crusader broadcast ([13]).
* :mod:`repro.protocols.floodset` /
  :mod:`repro.protocols.early_stopping` — crash-model consensus
  substrates (the "why omission is harder" foil; [50]).
* :mod:`repro.protocols.approximate` /
  :mod:`repro.protocols.kset` — the §7 beyond-agreement relaxations.
"""

from repro.protocols.approximate import (
    ApproximateAgreementProcess,
    approximate_agreement_spec,
    rounds_for_precision,
)
from repro.protocols.base import DelegatingProcess, ProtocolSpec, SpecBuilder
from repro.protocols.byzantine_strategies import (
    Strategy,
    crash_at,
    equivocating_sender,
    garbage,
    mute,
    two_faced,
)
from repro.protocols.dolev_strong import (
    SENDER_FAULTY,
    DolevStrongProcess,
    dolev_strong_spec,
    scheme_for_spec,
)
from repro.protocols.eig import (
    EIGProcess,
    eig_consensus_spec,
    eig_vector_spec,
)
from repro.protocols.early_stopping import (
    EarlyStoppingConsensus,
    early_stopping_spec,
)
from repro.protocols.floodset import FloodSetProcess, floodset_spec
from repro.protocols.gradecast import (
    NO_VALUE,
    GradecastProcess,
    crusader_decision,
    gradecast_spec,
)
from repro.protocols.external_validity import (
    ClientPool,
    ExternalValidityAgreement,
    Transaction,
    external_validity_spec,
)
from repro.protocols.kset import KSetProcess, kset_rounds, kset_spec
from repro.protocols.interactive_consistency import (
    ParallelBroadcastIC,
    authenticated_ic_spec,
    ic_spec,
    unauthenticated_ic_spec,
)
from repro.protocols.phase_king import PhaseKingProcess, phase_king_spec
from repro.protocols.strong_consensus import (
    ICMajorityConsensus,
    authenticated_strong_consensus_spec,
    unauthenticated_strong_consensus_spec,
)
from repro.protocols.subquadratic import (
    CommitteeCheater,
    LeaderEchoCheater,
    RingTokenCheater,
    SampledCommitteeCheater,
    SilentCheater,
    committee_cheater_spec,
    leader_echo_spec,
    ring_token_spec,
    seeded_committee_cheater_spec,
    silent_cheater_spec,
)
from repro.protocols.vector_consensus import (
    VectorConsensusProcess,
    vector_consensus_spec,
)
from repro.protocols.weak_consensus import (
    BroadcastWeakConsensus,
    NaiveFloodingWeakConsensus,
    broadcast_weak_consensus_spec,
    naive_flooding_spec,
)

__all__ = [
    "ApproximateAgreementProcess",
    "approximate_agreement_spec",
    "rounds_for_precision",
    "BroadcastWeakConsensus",
    "ClientPool",
    "CommitteeCheater",
    "DelegatingProcess",
    "DolevStrongProcess",
    "EIGProcess",
    "ExternalValidityAgreement",
    "EarlyStoppingConsensus",
    "FloodSetProcess",
    "GradecastProcess",
    "NO_VALUE",
    "crusader_decision",
    "early_stopping_spec",
    "floodset_spec",
    "gradecast_spec",
    "VectorConsensusProcess",
    "vector_consensus_spec",
    "ICMajorityConsensus",
    "KSetProcess",
    "kset_rounds",
    "kset_spec",
    "LeaderEchoCheater",
    "NaiveFloodingWeakConsensus",
    "ParallelBroadcastIC",
    "PhaseKingProcess",
    "ProtocolSpec",
    "RingTokenCheater",
    "SampledCommitteeCheater",
    "ring_token_spec",
    "seeded_committee_cheater_spec",
    "SENDER_FAULTY",
    "SilentCheater",
    "SpecBuilder",
    "Strategy",
    "Transaction",
    "authenticated_ic_spec",
    "authenticated_strong_consensus_spec",
    "broadcast_weak_consensus_spec",
    "committee_cheater_spec",
    "crash_at",
    "dolev_strong_spec",
    "eig_consensus_spec",
    "eig_vector_spec",
    "equivocating_sender",
    "external_validity_spec",
    "garbage",
    "ic_spec",
    "leader_echo_spec",
    "mute",
    "naive_flooding_spec",
    "phase_king_spec",
    "scheme_for_spec",
    "silent_cheater_spec",
    "two_faced",
    "unauthenticated_ic_spec",
    "unauthenticated_strong_consensus_spec",
]
