"""The four benchmark workloads and their correctness checks.

Each workload is a closed loop with one caller: the next op starts only
after the previous one ends. `Clock.mark` closes an op and raises `StopRun`
when the run's time or op limit is reached. Loop workloads call a public
qdeny function once per op; game workloads hand the harness an
`OpBoundary` distinguisher, so each `decide` call closes one trial.

Between ops the clock runs the workload's reference kernel, a fixed piece
of work. The host's speed changes by up to 1.8 times from second to
second, and the kernel's time next to an op measures the speed at which
that op ran, so `Clock.reference_durations` rescales each op to the
reference speed (the kernel taking its `REFERENCE_S`). Each workload uses
the kernel whose time followed its op time most closely as the host
changed speed: an interpreter loop over small numpy arrays for bb84-long,
the creation of many small objects for deny-short and ue-teleport, and a
numpy gather from a table larger than L2 for weak-warden.

Workloads look qdeny functions up as module attributes at call time, so
span wrappers installed after import are the ones that run. Each op
appends a result row built from seeded outputs only, never from timings.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

from qdeny import bb84, channel, dcqke, denial, distill, gf2, rng, ue

GAME_TRIALS = 10**9  # games run until the clock stops them
Z_CHECK = 4.0  # a correct program fails one such check in about 16000 runs


class StopRun(Exception):
    """The run's time or op limit was reached."""


class InterpreterKernel:
    """Interpreter-bound reference work: a loop over small numpy arrays."""

    REFERENCE_S = 1e-3

    def __init__(self):
        self._a = np.arange(63, dtype=np.uint8)

    def __call__(self) -> int:
        s = 0
        a = self._a
        for i in range(300):
            s = (s * 1103515245 + i) & 0xFFFFFFFF
            s += int((a ^ (s & 1)).sum())
        return s


class AllocationKernel:
    """Allocation-bound reference work: many small dicts, lists and arrays."""

    REFERENCE_S = 0.6e-3

    def __call__(self) -> int:
        out = []
        for i in range(200):
            record = {"a": i, "b": [i] * 8}
            bits = np.zeros(8 + (i & 7), dtype=np.uint8)
            out.append((record, bits, np.array([i, i + 1], dtype=complex)))
        return len(out)


class GatherKernel:
    """Memory-bound reference work: a random gather from a 32 MB table."""

    REFERENCE_S = 5e-3

    def __init__(self):
        gen = np.random.default_rng(0)
        self._table = gen.integers(0, 256, size=1 << 25, dtype=np.uint8)
        self._index = gen.integers(0, 1 << 25, size=1 << 18)

    def __call__(self) -> int:
        return int(self._table[self._index].sum())


class Clock:
    """Op boundaries and durations of one run.

    With a `reference` kernel, the kernel runs before the first op and then
    after each op that brings the op time since its last run to
    `CALIBRATE_EVERY_S`; kernel time is not op time.
    """

    CALIBRATE_EVERY_S = 0.01

    def __init__(self, seconds: float, ops: int | None, reference=None):
        self.seconds = seconds
        self.ops = ops
        self.reference = reference
        self.durations: list[float] = []
        self.kernel_at: list[int] = []  # ops completed before each kernel run
        self.kernel_s: list[float] = []
        self._since_kernel = 0.0

    def start(self) -> None:
        self.first_op_monotonic = time.monotonic()
        self.t0 = time.perf_counter()
        if self.reference:
            self._calibrate()
        self.last = time.perf_counter()
        if self.ops:
            self.limit(ops=self.ops)
        else:
            self.limit(until=self.t0 + self.seconds)

    def limit(self, ops: int | None = None, until: float | None = None) -> None:
        self._stop_ops = ops if ops is not None else math.inf
        self._stop_time = until if until is not None else math.inf

    def _calibrate(self) -> None:
        t = time.perf_counter()
        self.reference()
        self.kernel_s.append(time.perf_counter() - t)
        self.kernel_at.append(len(self.durations))
        self._since_kernel = 0.0

    def mark(self) -> None:
        now = time.perf_counter()
        duration = now - self.last
        self.durations.append(duration)
        self.last = now
        if len(self.durations) >= self._stop_ops or now >= self._stop_time:
            raise StopRun
        self._since_kernel += duration
        if self.reference and self._since_kernel >= self.CALIBRATE_EVERY_S:
            self._calibrate()
            self.last = time.perf_counter()

    def reference_durations(self) -> list[float]:
        """Each op's duration at the reference speed: scaled by the kernel's
        `REFERENCE_S` over the mean of its runs just before and just after it."""
        out = []
        for i, d in enumerate(self.durations):
            after = bisect.bisect_left(self.kernel_at, i + 1)
            near = self.kernel_s[max(after - 1, 0):after + 1]
            out.append(d * self.reference.REFERENCE_S * len(near) / sum(near))
        return out


def no_span(name, fn):
    return fn


class OpBoundary:
    """Distinguisher wrapper that records each guess and closes the op."""

    def __init__(self, inner, clock: Clock, record, span=no_span):
        self._decide = span("games.decide", inner.decide)
        self._clock = clock
        self._record = record

    def decide(self, observation, rng_):
        guess = self._decide(observation, rng_)
        self._record(observation, guess)
        self._clock.mark()
        return guess


def _hex(bits) -> str:
    arr = np.asarray(bits, dtype=np.uint8)
    return f"{arr.size}:{np.packbits(arr).tobytes().hex()}"


def challenge_bits(master_seed: int, n: int) -> np.ndarray:
    """Hidden bits of trials 0..n-1, per the games module's stream contract."""
    master = rng.RandomStream(master_seed)
    return np.array([master.substream("challenge", i).bit() for i in range(n)], dtype=np.uint8)


def wilson(wins: int, trials: int, z: float) -> tuple[float, float]:
    """Wilson score interval at `z` (games.wilson_interval fixes z at 95%)."""
    p = wins / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half


class Workload:
    name = ""
    reference = InterpreterKernel

    def __init__(self, master_seed: int, span=no_span):
        self.master_seed = master_seed
        self.span = span
        self.rows: list[str] = []
        self.failed = 0
        self.problems: list[str] = []
        self.summary: dict[str, object] = {}

    def fail(self, op: int, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"op {op}: {why}")

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, clock: Clock) -> None:
        """Run ops until `clock` raises StopRun."""
        raise NotImplementedError

    def check(self) -> None:
        """Run-level checks; append to `problems`, count failed ops."""

    def _loop(self, clock: Clock, op) -> None:
        i = 0
        while True:
            try:
                op(i)
            except Exception as exc:  # a raising op is a failed op; the loop goes on
                self.fail(i, repr(exc))
                self.rows.append(f"{i} error")
            i += 1
            clock.mark()


class Bb84Long(Workload):
    """`bb84.run_session` at n=700 over a 5% Pauli-X channel."""

    name = "bb84-long"
    FLIP = 0.05

    def setup(self):
        self.config = bb84.Bb84Config(n=700)
        self.qchan = channel.QubitChannel(flip_probability=self.FLIP)
        self.master = rng.RandomStream(self.master_seed)
        self.errors: list[float] = []
        self.agree: list[bool] = []

    def run(self, clock):
        self._loop(clock, self._op)

    def _op(self, i):
        out = bb84.run_session(self.config, self.qchan, self.master.substream("session", i))
        s = out.session
        self.rows.append(
            f"{i} {int(out.aborted)} {s.estimated_error!r}"
            f" {_hex(out.alice.session_key if not out.aborted else [])}"
            f" {_hex(out.bob.session_key if not out.aborted else [])}"
        )
        if out.aborted:
            self.fail(i, "session aborted")
            return
        # Hamming[7,4] decodes a block onto u + C2 = {u, u + 1111111} exactly
        # when it holds at most one error or at least six.
        weights = (s.a ^ s.a_prime)[s.payload_positions].reshape(-1, self.config.codes.c1.n)
        weights = weights.sum(axis=1)
        predicted = bool(np.all((weights <= 1) | (weights >= 6)))
        if out.keys_agree != predicted:
            self.fail(i, f"keys_agree={out.keys_agree}, block errors predict {predicted}")
        self.errors.append(s.estimated_error)
        self.agree.append(out.keys_agree)

    def check(self):
        n = len(self.agree)
        if not n:
            self.problems.append("no completed session")
            return
        p = self.FLIP / 2  # sifted error rate: only computational-basis qubits flip
        q = 1 - p
        mean_error = float(np.mean(self.errors))
        sigma_e = math.sqrt(p * q / (self.config.n * n))
        block = q**7 + 7 * p * q**6 + 7 * p**6 * q + p**7
        predicted = block**self.config.blocks
        rate = float(np.mean(self.agree))
        sigma_r = math.sqrt(predicted * (1 - predicted) / n)
        self.summary = {
            "mean_error": mean_error, "mean_error_want": p,
            "agreement_rate": rate, "agreement_rate_want": predicted, "sessions": n,
        }
        if abs(mean_error - p) > Z_CHECK * sigma_e:
            self.problems.append(f"mean_error {mean_error:.5f} is not within {Z_CHECK} sigma of {p}")
        if abs(rate - predicted) > Z_CHECK * sigma_r:
            self.problems.append(
                f"agreement rate {rate:.4f} is not within {Z_CHECK} sigma of {predicted:.4f}"
            )


class DenyShort(Workload):
    """The coercer game on naive BB84 denial: n=14, 8 decoys, one flip."""

    name = "deny-short"
    reference = AllocationKernel
    N_DECOYS = 8

    def setup(self):
        self.config = bb84.Bb84Config(n=14)
        self.protocol = denial.NaiveBb84DenialProtocol(self.config, n_decoys=self.N_DECOYS, flips=1)
        self.judge = denial.JudgeDistinguisher()
        self.guesses: list[int] = []

    def _record(self, view, guess):
        self.rows.append(f"{len(self.guesses)} {guess} {len(view.eve_record)} {_hex(view.key)}")
        self.guesses.append(guess)

    def run(self, clock):
        boundary = OpBoundary(self.judge, clock, self._record, self.span)
        denial.coercer_experiment(self.protocol, boundary, GAME_TRIALS, self.master_seed)

    def check(self):
        n = len(self.guesses)
        if not n:
            self.problems.append("no trial completed")
            return
        guesses = np.array(self.guesses, dtype=np.uint8)
        bits = challenge_bits(self.master_seed, n)
        # The channel is noiseless, so an honest view never contradicts the record.
        for i in np.flatnonzero((bits == 0) & (guesses == 1)):
            self.fail(int(i), "judge accused an honest party")
        wins = int(np.sum(guesses == bits))
        target = self.N_DECOYS / (4 * self.config.qubit_count)  # eta / (2N), halved by the game
        lo, hi = wilson(wins, n, Z_CHECK)
        self.summary = {"advantage": wins / n - 0.5, "advantage_want": target, "trials": n}
        if not lo - 0.5 <= target <= hi - 0.5:
            self.problems.append(
                f"advantage interval [{lo - 0.5:.4f}, {hi - 0.5:.4f}] misses {target:.4f}"
            )


class WeakWarden(Workload):
    """Criterion 7's weak leg: seed search against the 16-bit schedule PRNG."""

    name = "weak-warden"
    reference = GatherKernel
    GAMES = ("covert", "deniability")

    def setup(self):
        self.config = dcqke.CovertQkeConfig(
            bb84.Bb84Config(n=7, delta=0.5),
            channel.TimeBinChannel(16384, 0.3, 0.95),
            dcqke.PrngSpec("weak"),
        )
        self.count_bias = channel.warden_bias_exact(self.config.timebin, self.config.effective_n_used)
        self.wardens = {game: dcqke.SeedSearchWarden(self.config) for game in self.GAMES}
        self.guesses: dict[str, list[int]] = {game: [] for game in self.GAMES}

    def _boundary(self, game, clock):
        def record(observation, guess):
            window = getattr(observation, "covert_window", observation)
            self.rows.append(f"{game} {len(self.guesses[game])} {guess} {window.count}")
            self.guesses[game].append(guess)

        return OpBoundary(self.wardens[game], clock, record, self.span)

    def run(self, clock):
        # Paired seeds: both games see the same master seed and trial indices.
        if clock.ops:
            clock.limit(ops=(clock.ops + 1) // 2)
        else:
            clock.limit(until=clock.t0 + clock.seconds / 2)
        try:
            dcqke.covert_game(
                self.config, GAME_TRIALS, self.master_seed, warden=self._boundary("covert", clock)
            )
        except StopRun:
            pass
        clock.limit(ops=2 * len(self.guesses["covert"]))
        dcqke.deniability_experiment(
            self.config, self._boundary("deniability", clock), GAME_TRIALS, self.master_seed
        )

    def check(self):
        self.summary = {"count_test_bias": self.count_bias}
        for game in self.GAMES:
            n = len(self.guesses[game])
            if not n:
                self.problems.append(f"no {game} trial completed")
                continue
            wins = int(np.sum(np.array(self.guesses[game]) == challenge_bits(self.master_seed, n)))
            advantage = abs(wins / n - 0.5)
            self.summary[f"{game}_advantage"] = advantage
            if advantage < 0.45:
                self.problems.append(f"{game} advantage {advantage:.3f} < 0.45")
            if advantage <= self.count_bias:
                self.problems.append(
                    f"{game} advantage {advantage:.3f} does not beat the count test's"
                    f" exact bias {self.count_bias:.3f}"
                )


class UeTeleport(Workload):
    """One key exchange over UE plus one over teleportation per op."""

    name = "ue-teleport"
    reference = AllocationKernel

    def setup(self):
        self.params = ue.UeParams(4, 4)
        self.codes = gf2.default_nested_pair()
        self.master = rng.RandomStream(self.master_seed)
        self.summary = {"ue_accepted": 0, "teleport_keys_equal": 0}

    def run(self, clock):
        self._loop(clock, self._op)

    def _op(self, i):
        r = self.master.substream("run", i)
        key = ue.generate_ue_key(self.params, r.substream("key"))
        res = ue.qke_from_ue(self.params, key, r.substream("session"))
        key_a, key_b, _ = distill.qke_over_teleportation(
            14, math.pi / 6, r.substream("teleport"), codes=self.codes
        )
        ue_key = res.key_alice if res.accepted else []
        self.rows.append(f"{i} {int(res.accepted)} {_hex(ue_key)} {_hex(key_a)} {_hex(key_b)}")
        if res.accepted and np.array_equal(res.key_alice, res.key_bob):
            self.summary["ue_accepted"] += 1
        else:
            self.fail(i, "UE exchange rejected or keys differ")
        if np.array_equal(key_a, key_b):
            self.summary["teleport_keys_equal"] += 1
        else:
            self.fail(i, "teleportation keys differ")


WORKLOADS = {w.name: w for w in (Bb84Long, DenyShort, WeakWarden, UeTeleport)}
