"""Two-site relativistic bit commitment: simulator, verifier, and analyzers.

A bit is committed by answering challenge pairs with one-time-key sums mod
N = 2**m, iterated between two separated sites so that each round's answer
is produced before the other site's latest challenge could have arrived.
Binding rests on light-cone causality; hiding is exact.  The package
provides the honest protocol simulator, the transcript verifier with
backward-chain decoding, cheating strategies with an exact security
oracle, and channel-capacity accounting.
"""

from .adversary import (AttackOutcome, OffsetGuessAlice, OracleBudgetError,
                        offset_guess_reveal, optimal_flip_success, run_attack)
from .agents import (AliceState, UnveilMessage, alice_response, bob_challenge,
                     make_tape)
from .analysis import CapacityReport, capacity_report, round_traffic_bits
from .codec import (PairChallenge, RandomTape, binary_forms, commit_round,
                    decode_one, tape_consumed)
from .netsim import (CausalView, HonestAlice, RoundRecord, SimResult,
                     TimedMessage, Transcript, aggregate_event, causal_view,
                     replay_decisions, simulate)
from .rng import GENERATOR_ID, Stream, derive_seed
from .spacetime import (GeometryError, ProtocolParams, SpacetimeEvent,
                        as_exact, exact_str, round_site, round_window,
                        spacelike, unveil_deadline)
from .transcript_io import (TranscriptFormatError, parse_transcript,
                            serialize_transcript)
from .verifier import Verdict, backward_decode, verify

__version__ = "1.0.0"
