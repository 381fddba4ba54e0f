"""The benchmark's four workloads, their output checks and layer breakdowns.

Each workload is a closed loop of one kind of operation, built from the
workload seed and driven only through public ``rbc`` calls:

* ``pipeline``: CLI ``run`` then ``verify`` of one m=10, R=6 transcript
  (111,111 commitments, 9.4 MB).  Per-commitment work dominates: rng draws,
  challenge sampling, ``commit_round``, serialize, parse, backward decode.
* ``attack``: ``run_attack`` batches at m=2, R=3.  Each trial has seven
  commitments, so per-trial fixed costs dominate: exact ``Fraction``
  geometry, the event loop, causal views and the verifier's timing checks.
* ``oracle``: ``optimal_flip_success`` over a fixed grid with two
  enumeration-bound points, (6,1) and (6,2), and two points bound by
  ``Fraction`` convolutions, (5,5) and (3,7).
* ``hostile``: parse then verify single-leaf JSON mutations of small honest
  transcripts.  Most files take reject paths; any exception other than
  ``TranscriptFormatError`` from the parser, or any exception from the
  verifier, is a failed operation.

``steps`` gives one operation as a list of calls, timed one by one so that
the reference work can run between them; ``check`` checks the list of their
results outside the timed region and raises ``CheckFailed`` on a wrong
result, ``finish`` runs the checks that need the whole run, and
``decompose`` times the layer calls of one operation on the same inputs for
the traced run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from collections import Counter
from functools import partial
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from bench_trace import percentile

PINS = json.loads(Path(__file__).with_name("pins.json").read_text())
OUT_DIR = Path(".perfbench")

# delta_x, delta, delta_t: the CLI's defaults for run and attack
GEOMETRY = ("1", "0.005", "0.01")

REJECT_REASONS = ("timing_violation", "site_mismatch", "count_mismatch",
                  "duplicate_pair_members", "decode_mismatch", "range_error",
                  "incomplete_transcript")


class CheckFailed(Exception):
    """A timed operation produced an output the program must not produce."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def require_near(successes: int, trials: int, rate: Fraction) -> None:
    """Monte Carlo success count within three standard deviations of rate."""
    p = float(rate)
    sigma = math.sqrt(p * (1 - p) / trials)
    observed = successes / trials
    require(abs(observed - p) <= 3 * sigma,
            f"attack success {successes}/{trials} = {observed:.5f} is more "
            f"than 3 sigma ({3 * sigma:.5f}) from the oracle {rate}")


class Pipeline:
    """CLI ``run`` then ``verify`` on one transcript per operation.

    Operation 0 always uses the pinned reference inputs, so every run checks
    that the reference transcript is still byte-identical to the one pinned
    when the benchmark was added; later operations draw their seeds and bit from the
    workload seed.
    """

    name = "pipeline"
    units = 1
    min_ops = 1

    def __init__(self, api, seed: int, m: int = 10, rounds: int = 6):
        self.api = api
        self.seed = seed
        self.m = m
        self.rounds = rounds
        self.pinned_sha256 = PINS["transcript_sha256"].get(f"m{m}r{rounds}")
        OUT_DIR.mkdir(exist_ok=True)
        self.path = OUT_DIR / f"pipeline-{os.getpid()}.json"

    def inputs(self, i: int) -> tuple[int, int, int]:
        """(bit, alice_seed, bob_seed) of operation i."""
        if i == 0:
            ref = PINS["reference"]
            return ref["bit"], ref["alice_seed"], ref["bob_seed"]
        rng = random.Random(f"pipeline:{self.seed}:{i}")
        return rng.getrandbits(1), rng.getrandbits(63), rng.getrandbits(63)

    def steps(self, i, tracer):
        bit, alice, bob = self.inputs(i)
        run = ["run", "--m", str(self.m), "--rounds", str(self.rounds),
               "--bit", str(bit), "--alice-seed", str(alice),
               "--bob-seed", str(bob), "--out", str(self.path)]
        return [partial(self._cli, tracer, "cli.run", i, run),
                partial(self._cli, tracer, "cli.verify", i, ["verify", str(self.path)])]

    def _cli(self, tracer, name, i, argv) -> tuple[int, str]:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = tracer.call(name, i, self.api.cli.main, argv)
        return code, out.getvalue()

    def check(self, i, outcome) -> None:
        if isinstance(outcome, Exception):
            return
        (ran, _), (verified, stdout) = outcome
        bit = self.inputs(i)[0]
        require(ran == 0 and verified == 0,
                f"operation {i}: exit codes run={ran} verify={verified}")
        verdict = json.loads(stdout)
        require(verdict["outcome"] == "accept" and verdict["bit"] == bit,
                f"operation {i}: verdict {verdict}, committed bit {bit}")
        text = self.path.read_text(encoding="utf-8")
        tio = self.api.transcript_io
        require(tio.serialize_transcript(tio.parse_transcript(text)) == text,
                f"operation {i}: transcript does not round-trip byte for byte")
        if i == 0 and self.pinned_sha256 is not None:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            require(digest == self.pinned_sha256,
                    f"reference transcript sha256 {digest}, pinned "
                    f"{self.pinned_sha256}")

    def finish(self) -> None:
        self.path.unlink(missing_ok=True)

    def decompose(self, tracer) -> dict:
        api, m, rounds = self.api, self.m, self.rounds
        call = tracer.call
        bit, alice, bob = self.inputs(0)
        self.check(0, [step() for step in self.steps(0, tracer)])
        text = self.path.read_text(encoding="utf-8")
        params = api.spacetime.ProtocolParams(m, *GEOMETRY)

        tape = call("agents.make_tape", 0, api.agents.make_tape, m, rounds, alice)
        state = api.agents.AliceState(bit, tape, rounds)
        pairs, values = [], []
        for k in range(1, rounds + 1):
            site = api.spacetime.round_site(k)
            stream = api.rng.Stream(api.rng.derive_seed(bob, "bob", site, k))
            challenge = call("agents.bob_challenge", 0, api.agents.bob_challenge,
                             k, params, stream)
            bits = api.agents.round_bits(k, state, m)
            keys = tape.segment(k, m)
            values.append(tuple(call("codec.commit_round", 0, api.codec.commit_round,
                                     bits, challenge.pairs, keys, params.modulus)))
            pairs.append(challenge.pairs)
        sim = call("netsim.simulate", 0, api.netsim.simulate, params, rounds,
                   bit, alice, bob)
        records = sim.transcript.rounds
        require([r.pairs for r in records] == pairs
                and [r.values for r in records] == values,
                "challenge or commit_round output differs from simulate's")
        written = call("transcript_io.serialize_transcript", 0,
                       api.transcript_io.serialize_transcript, sim.transcript)
        require(written == text, "library serialization differs from the CLI file")
        del sim, records, written

        transcript = call("transcript_io.parse_transcript", 0,
                          api.transcript_io.parse_transcript, text)
        verdict = call("verifier.verify", 0, api.verifier.verify, transcript)
        require(verdict.accepted and verdict.bit == bit, f"verdict {verdict}")
        decoded, _ = call("verifier.backward_decode", 0, api.verifier.backward_decode,
                          transcript.rounds, transcript.unveils[0].revealed, m)
        require(decoded == bit, f"backward_decode gave {decoded}, committed {bit}")
        read = call("cli.file_io", 0, _write_then_read, self.path, text)
        require(read == text, "file contents changed between write and read")

        total = tracer.total
        simulate_s = total("netsim.simulate")
        return {
            "cli.run_s": (total("cli.run"), "s"),
            "cli.verify_s": (total("cli.verify"), "s"),
            "cli.file_io_s": (total("cli.file_io"), "s"),
            "agents.make_tape_s": (total("agents.make_tape"), "s"),
            "agents.bob_challenge_s": (total("agents.bob_challenge"), "s"),
            "codec.commit_round_s": (total("codec.commit_round"), "s"),
            "netsim.simulate_s": (simulate_s, "s"),
            "netsim.self_s": (simulate_s - total("agents.make_tape")
                              - total("agents.bob_challenge")
                              - total("codec.commit_round"), "s"),
            "transcript_io.serialize_s": (total("transcript_io.serialize_transcript"), "s"),
            "transcript_io.parse_s": (total("transcript_io.parse_transcript"), "s"),
            "verifier.verify_s": (total("verifier.verify"), "s"),
            "verifier.backward_decode_s": (total("verifier.backward_decode"), "s"),
            "codec.commitments": (sum(len(r.values) for r in transcript.rounds), "count"),
            "transcript_io.bytes": (len(text.encode("utf-8")), "count"),
        }


def _write_then_read(path: Path, text: str) -> str:
    """The file I/O the CLI does: write the transcript, read it back."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class Attack:
    """``run_attack`` offset-guess batches at m=2, R=3; one unit is a trial.

    Every batch must carry the pinned exact oracle.  The first
    ``check_batches`` batches, which every run completes, must together
    succeed within three standard deviations of it; fixing that set keeps
    the statistical check a function of the seed alone.
    """

    name = "attack"
    strategy = "offset-guess"
    decompose_batches = 10
    geometry_calls = 2000
    attach_calls = 20

    def __init__(self, api, seed: int, m: int = 2, rounds: int = 3,
                 batch: int = 100, check_batches: int = 40):
        self.api = api
        self.seed = seed
        self.rounds = rounds
        self.params = api.spacetime.ProtocolParams(m, *GEOMETRY)
        self.oracle = Fraction(PINS["oracle"][f"m{m}r{rounds}"])
        self.units = batch
        self.min_ops = check_batches
        self.successes = 0
        self.checked = 0

    def batch_seed(self, i: int) -> int:
        return random.Random(f"attack:{self.seed}:{i}").getrandbits(63)

    def steps(self, i, tracer):
        return [partial(tracer.call, "adversary.run_attack", i,
                        self.api.adversary.run_attack, self.params, self.rounds,
                        self.strategy, self.units, self.batch_seed(i))]

    def check(self, i, outcome) -> None:
        if isinstance(outcome, Exception):
            return
        (batch,) = outcome
        self._check_batch(i, batch)
        if i < self.min_ops:
            self.successes += batch.successes
            self.checked += batch.trials

    def finish(self) -> None:
        if self.checked:
            require_near(self.successes, self.checked, self.oracle)

    def _check_batch(self, i, outcome) -> None:
        require(outcome.trials == self.units
                and 0 <= outcome.successes <= self.units,
                f"batch {i}: {outcome.successes}/{outcome.trials} successes")
        require(outcome.oracle_rate == self.oracle,
                f"batch {i}: attached oracle {outcome.oracle_rate}, pinned {self.oracle}")

    def decompose(self, tracer) -> dict:
        api, params, rounds = self.api, self.params, self.rounds
        call = tracer.call
        derive, Stream = api.rng.derive_seed, api.rng.Stream
        wins = messages = decisions = 0
        transcript = None
        for b in range(self.decompose_batches):
            seed = self.batch_seed(b)
            (step,) = self.steps(b, tracer)
            outcome = step()
            self._check_batch(b, outcome)
            batch_wins = 0
            # the trial seeds run_attack derives, so each call sees its inputs
            for j in range(self.units):
                bit = Stream(derive(seed, "trial", j, "bit")).bit()
                result = call("netsim.simulate", b, api.netsim.simulate, params,
                              rounds, bit, derive(seed, "trial", j, "alice"),
                              derive(seed, "trial", j, "bob"),
                              strategy=api.adversary.OffsetGuessAlice())
                verdict = call("verifier.verify", b, api.verifier.verify,
                               result.transcript)
                batch_wins += verdict.accepted and verdict.bit == 1 - bit
                messages += len(result.messages)
                decisions += len(result.decisions)
                if result.transcript.abort is None:
                    transcript = result.transcript
            require(batch_wins == outcome.successes,
                    f"batch {b}: per-trial replay won {batch_wins}, run_attack "
                    f"{outcome.successes}")
            wins += batch_wins
        trials = self.decompose_batches * self.units

        st, netsim = api.spacetime, api.netsim
        probes = {"period": lambda: params.period,
                  "unveil_deadline": lambda: st.unveil_deadline(params, rounds),
                  "aggregate_event": lambda: netsim.aggregate_event(transcript)}
        for k in range(1, rounds + 1):
            probes[f"round_window.k{k}"] = lambda k=k: st.round_window(params, k)
        metrics = {}
        for name, probe in probes.items():
            call(f"geometry.{name}", -1, _repeat, probe, self.geometry_calls)
            metrics[f"spacetime.geometry_us.{name}"] = (
                tracer.total(f"geometry.{name}") / self.geometry_calls * 1e6, "us")

        for n in range(self.attach_calls):
            value = call("adversary.optimal_flip_success", n,
                         api.adversary.optimal_flip_success, params.m, rounds)
            require(value == self.oracle, f"oracle {value}, pinned {self.oracle}")

        simulate_ms = [d * 1e3 for d in tracer.durations("netsim.simulate")]
        verify_ms = [d * 1e3 for d in tracer.durations("verifier.verify")]
        metrics.update({
            "netsim.simulate_ms.p50": (percentile(simulate_ms, 50), "ms"),
            "netsim.simulate_ms.p99": (percentile(simulate_ms, 99), "ms"),
            "verifier.verify_ms.p50": (percentile(verify_ms, 50), "ms"),
            "verifier.verify_ms.p99": (percentile(verify_ms, 99), "ms"),
            "adversary.oracle_attach_s": (
                percentile(tracer.durations("adversary.optimal_flip_success"), 50), "s"),
            "netsim.messages": (messages / trials, "count"),
            "netsim.decisions": (decisions / trials, "count"),
            "adversary.success_ratio": (wins / trials, "ratio"),
            "adversary.oracle_ratio": (float(self.oracle), "ratio"),
        })
        return metrics


def _repeat(fn, n: int) -> None:
    for _ in range(n):
        fn()


class Oracle:
    """The exact flip oracle over a fixed grid; one unit is a grid pass.

    The grid is exact and fixed, so the seed does not change the inputs.
    """

    name = "oracle"
    units = 1
    min_ops = 1
    grid = ((6, 1), (6, 2), (5, 5), (3, 7))

    def __init__(self, api, seed: int, grid=None):
        self.api = api
        if grid is not None:
            self.grid = grid
        self.expected = [Fraction(PINS["oracle"][f"m{m}r{r}"]) for m, r in self.grid]

    def steps(self, i, tracer):
        flip = self.api.adversary.optimal_flip_success
        return [partial(tracer.call, f"adversary.oracle.m{m}r{r}", i, flip, m, r)
                for m, r in self.grid]

    def check(self, i, values) -> None:
        if isinstance(values, Exception):
            return
        for (m, r), value, expected in zip(self.grid, values, self.expected):
            require(value == expected,
                    f"oracle m={m} R={r} gave {value}, pinned {expected}")

    def finish(self) -> None:
        pass

    def decompose(self, tracer) -> dict:
        self.check(0, [step() for step in self.steps(0, tracer)])
        return {f"adversary.oracle_s.m{m}r{r}":
                (tracer.total(f"adversary.oracle.m{m}r{r}"), "s")
                for m, r in self.grid}


# Keys whose values are exact time strings in the transcript format.
TIME_KEYS = frozenset({"start", "end", "completes_at", "time", "delta_x",
                       "delta", "delta_t", "intra_delay"})
# Longer than CPython's default 4,300-digit limit on int parsing.
BIG_INT = "9" * 4301
_BIG_INT_MARK = "\x00big-int"


class Hostile:
    """Parse then verify a fixed corpus of transcript files, cycled.

    The corpus starts with the unmutated honest bases, which must accept
    with their committed bit, followed by every single-node mutation of
    them in a seeded order.  Every file must give the same outcome each time
    it is processed.  The transcripts' shape is fixed by m and R, so the
    corpus size and the files that crash are the same for every seed.
    """

    name = "hostile"
    units = 1

    def __init__(self, api, seed: int, m: int = 3, rounds: int = 3,
                 bases: int = 4):
        self.api = api
        rng = random.Random(f"hostile:{seed}")
        params = api.spacetime.ProtocolParams(m, *GEOMETRY)
        self.files: list[str] = []
        self.expected: dict[int, str] = {}
        mutants: list[str] = []
        for b in range(bases):
            bit = rng.getrandbits(1)
            result = api.netsim.simulate(params, rounds, bit, rng.getrandbits(63),
                                         rng.getrandbits(63))
            text = api.transcript_io.serialize_transcript(result.transcript)
            self.expected[b] = f"accept:{bit}"
            self.files.append(text)
            mutants.extend(mutations(json.loads(text)))
        rng.shuffle(mutants)
        self.files.extend(mutants)
        self.min_ops = len(self.files)  # every file at least once
        self.outcomes: dict[int, str] = {}

    def steps(self, i, tracer):
        return [partial(self.classify, i, tracer)]

    def classify(self, i, tracer) -> str:
        text = self.files[i % len(self.files)]
        try:
            transcript = tracer.call("transcript_io.parse_transcript", i,
                                     self.api.transcript_io.parse_transcript, text)
        except self.api.transcript_io.TranscriptFormatError:
            return "parse_error"
        verdict = tracer.call("verifier.verify", i, self.api.verifier.verify,
                              transcript)
        return f"accept:{verdict.bit}" if verdict.accepted else f"reject:{verdict.reason}"

    def check(self, i, outcome) -> None:
        if isinstance(outcome, Exception):
            outcome = f"crash:{type(outcome).__name__}"
        else:
            (outcome,) = outcome
        index = i % len(self.files)
        first = self.outcomes.setdefault(index, outcome)
        require(outcome == first, f"file {index}: {outcome}, earlier {first}")
        expected = self.expected.get(index)
        require(expected is None or outcome == expected,
                f"unmutated base {index}: {outcome}, expected {expected}")

    def counted(self) -> tuple[int, int]:
        """Files attempted and files that crashed, each file counted once."""
        crashes = sum(o.startswith("crash:") for o in self.outcomes.values())
        return len(self.outcomes), crashes

    def finish(self) -> None:
        pass

    def decompose(self, tracer) -> dict:
        kinds: Counter[str] = Counter()
        for i in range(len(self.files)):
            try:
                outcome = [self.classify(i, tracer)]
            except Exception as exc:  # counted as a crash, as in the timed loop
                outcome = exc
            self.check(i, outcome)
            kinds[self.outcomes[i]] += 1
        classes: Counter[str] = Counter()
        for kind, n in kinds.items():
            classes[kind.split(":")[0]] += n
        files = len(self.files)
        parse_us = [d * 1e6 for d in tracer.durations("transcript_io.parse_transcript")]
        verify_us = [d * 1e6 for d in tracer.durations("verifier.verify")]
        metrics = {
            "transcript_io.parse_us.p50": (percentile(parse_us, 50), "us"),
            "transcript_io.parse_us.p99": (percentile(parse_us, 99), "us"),
            "verifier.verify_us.p50": (percentile(verify_us, 50), "us"),
            "verifier.verify_us.p99": (percentile(verify_us, 99), "us"),
            "hostile.files": (files, "count"),
            "hostile.parse_errors": (classes["parse_error"], "count"),
            "hostile.rejects": (classes["reject"], "count"),
            "hostile.accepts": (classes["accept"], "count"),
            "hostile.crashes": (classes["crash"], "count"),
            "hostile.fail_ratio": (classes["crash"] / files, "ratio"),
        }
        for reason in REJECT_REASONS:
            metrics[f"verifier.reject.{reason}"] = (kinds[f"reject:{reason}"], "count")
        known = sum(kinds[f"reject:{reason}"] for reason in REJECT_REASONS)
        metrics["verifier.reject.other"] = (classes["reject"] - known, "count")
        return metrics


def _nodes(value, path):
    """Every (path, value) in a JSON tree, containers included."""
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _nodes(child, path + (index,))


def _replaced(tree, path, new):
    """Copy of tree with the node at path replaced; untouched parts shared."""
    if not path:
        return new
    head = path[0]
    copy = dict(tree) if isinstance(tree, dict) else list(tree)
    copy[head] = _replaced(tree[head], path[1:], new)
    return copy


def _noncanonical(text: str) -> list[str]:
    """Other spellings of a canonical time string, and the stray "1e5"."""
    if "/" in text:
        num, den = text.split("/")
        forms = [f"{2 * int(num)}/{2 * int(den)}"]
    elif "." in text:
        forms = [text + "0", f"{Decimal(text):E}"]
    else:
        forms = [text + ".0", text + "e0"]
    return forms + ["1e5"]


def mutations(tree) -> list[str]:
    """Every single-node mutation of a transcript tree, as file texts.

    Each node below the root is replaced by null, [], {}, an integer longer
    than 4,300 digits and a value of the wrong JSON type; an integer also by
    itself +1 and -1 and by the out-of-range -1 and 2^64; a time string also
    by each of its non-canonical spellings.
    """
    texts = []
    for path, value in _nodes(tree, ()):
        if not path:
            continue
        wrong_type = str(value) if isinstance(value, int) else 7 if isinstance(value, str) else "x"
        news = [None, [], {}, _BIG_INT_MARK, wrong_type]
        if isinstance(value, int):
            news += [value + 1, value - 1, -1, 1 << 64]
        elif isinstance(value, str) and path[-1] in TIME_KEYS:
            news += _noncanonical(value)
        for new in news:
            text = json.dumps(_replaced(tree, path, new), indent=2) + "\n"
            if new == _BIG_INT_MARK:
                # json.dumps cannot write an int this long, so splice in its digits
                text = text.replace(json.dumps(_BIG_INT_MARK), BIG_INT)
            texts.append(text)
    return texts


WORKLOADS = {cls.name: cls for cls in (Pipeline, Attack, Oracle, Hostile)}
