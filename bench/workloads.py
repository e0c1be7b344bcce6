"""The three benchmark workloads.

Each workload is closed loop with one caller: it issues the next library call
only after the previous one returned, as a library user does.  Inputs are
derived from the run's ``--seed`` (one ``random.Random`` per input item, keyed
by seed, workload and item index), outside the timed regions, so the same
seed gives the same inputs and the library only ever sees generated values.
Every operation's output is checked; a wrong output or an unexpected
exception counts as a failed operation.

The first ``digest_ops`` operations of every run are the same for a seed,
whatever the run length, and the SHA-256 digest covers exactly their outputs
in canonical text form.

This module never imports ``fgcrypt`` itself: the caller passes the package
in, so set-up time includes the import and the traced run can install its
wrappers first.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
PUBKEY_FIXTURE = ROOT / "tests" / "fixtures" / "pubkey_demo"


def quantile(values, q: float) -> float:
    """Inclusive linear-interpolation quantile, q in [0, 1]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Recorder:
    """Timings, counts, failures and the output digest of one run."""

    def __init__(self, tracer=None, on_round=None):
        self.tracer = tracer
        self.on_round = on_round
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.totals: dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # (work done, busy seconds) per rate sample, and the round each
        # latency sample was taken in: the gated metrics are medians of these
        self.rates: list[tuple[float, float]] = []
        self.round = 0
        self.sample_rounds: dict[str, list[int]] = defaultdict(list)
        self._digest = hashlib.sha256()
        self.digest_lines = 0

    def begin_op(self, kind: str):
        """Start one workload operation; returns its span context (a no-op
        context in untraced runs)."""
        self.attempted += 1
        if self.tracer is None:
            return nullcontext()
        self.tracer.op = self.attempted
        return self.tracer.span(f"bench.{kind}")

    def end_round(self) -> None:
        self.round += 1
        if self.on_round is not None:
            self.on_round()

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def digest(self, text: str) -> None:
        self._digest.update(text.encode())
        self._digest.update(b"\n")
        self.digest_lines += 1

    @property
    def digest_hex(self) -> str:
        return self._digest.hexdigest()


class _Timed:
    """``with _Timed(rec, "encrypt"):`` adds the block's wall time to a sample
    list (``sample=True``) and always to the named total."""

    __slots__ = ("rec", "name", "sample", "t0", "elapsed")

    def __init__(self, rec: Recorder, name: str, sample: bool = True):
        self.rec, self.name, self.sample = rec, name, sample

    def __enter__(self):
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = perf_counter() - self.t0
        self.rec.totals[self.name] += self.elapsed
        if self.sample and exc[0] is None:
            self.rec.samples[self.name].append(self.elapsed)
            self.rec.sample_rounds[self.name].append(self.rec.round)
        return False


def _rng(seed: int, workload: str, kind: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{kind}:{index}")


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _pct(rec: Recorder, name: str, q: float) -> float:
    return _ms(quantile(rec.samples[name], q))


def _median_rate(rec: Recorder) -> float:
    """Median of work per busy second over the rate samples: robust to the
    bursts of machine noise that slow a few of them."""
    return statistics.median(work / busy for work, busy in rec.rates)


def _round_p50(rec: Recorder, name: str) -> float:
    """Median over rounds of each round's median latency, in ms."""
    groups: dict[int, list[float]] = defaultdict(list)
    for r, value in zip(rec.sample_rounds[name], rec.samples[name]):
        groups[r].append(value)
    return _ms(statistics.median(statistics.median(v) for v in groups.values()))


def _random_word(fg, rng: random.Random, alphabet, lo: int, hi: int):
    q = alphabet.rank
    letters: list[int] = []
    for _ in range(rng.randint(lo, hi)):
        options = [x for i in range(1, q + 1) for x in (i, -i)
                   if not letters or x != -letters[-1]]
        letters.append(rng.choice(options))
    return fg.Word(alphabet, letters)


class Workload:
    name = ""
    # operations always completed, and covered by the digest
    digest_ops = 0

    def setup(self, fg, seed: int):
        """Parameter construction and warm-up; part of ``setup_s``."""
        raise NotImplementedError

    def run(self, fg, state, seed: int, rec: Recorder,
            deadline: Optional[float]) -> None:
        """Run until ``deadline`` (perf_counter) and at least the digest
        operations; with ``deadline=None`` run exactly the digest ops."""
        raise NotImplementedError

    def metrics(self, rec: Recorder) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end metrics: name -> (value, unit)."""
        raise NotImplementedError

    def headline(self, rec: Recorder) -> tuple[float, float]:
        """(work_per_s, op_ms): the workload's rate and headline latency,
        gated in BENCHMARK.json after speed normalization (run.py)."""
        raise NotImplementedError

    def sample_counts(self, rec: Recorder) -> dict[str, int]:
        counts = {k: len(v) for k, v in sorted(rec.samples.items())}
        counts["rounds"] = rec.round
        counts["rate_samples"] = len(rec.rates)
        return counts


# ---------------------------------------------------------------------------
# otp-session
# ---------------------------------------------------------------------------

class OtpSession(Workload):
    name = "otp-session"
    RANK_NAMES = ("a", "b", "c", "d")
    # N=5: at N=6 keygen's orbit search reached 5^6-tuple orbits (28 s) in
    # 3000 keys, and its tail points at runs that hit the 200000-tuple cap
    SYMBOLS = ("A", "B", "C", "D", "E")
    MODULI = (64, 128)
    MSGS_PER_SESSION = 2
    MSG_LEN = (100, 300)
    # a round is KEYS_PER_ROUND keygens, then one session with the round's
    # first key; interleaving spreads machine noise over both metrics
    KEYS_PER_ROUND = 60
    DIGEST_ROUNDS = 2
    digest_ops = DIGEST_ROUNDS * (KEYS_PER_ROUND + 1)

    def _params(self, fg, seed: int, i: int):
        rng = _rng(seed, self.name, "key", i)
        m = self.MODULI[i % len(self.MODULI)]
        alphabet = fg.Alphabet(self.RANK_NAMES)
        fam = fg.AutFamily(rng.getrandbits(64), alphabet, m)
        beta = (rng.getrandbits(m) & ~3) | 1       # maximal period: 1 mod 4
        gamma = rng.getrandbits(m) | 1
        params = fg.CipherPublicParams(alphabet, self.SYMBOLS, fam,
                                       fg.LcgParams(m, beta, gamma))
        return params, rng.getrandbits(64)

    def setup(self, fg, seed: int):
        # fixed inputs: set-up cost must not depend on the run's seed
        params, prg_seed = self._params(fg, 0, -1)
        key = fg.keygen(params, fg.Prg(prg_seed))
        c = fg.encrypt(params, key, self.SYMBOLS)
        if fg.decrypt_with_table(params, key, c) != list(self.SYMBOLS):
            raise RuntimeError("warm-up round trip failed")
        return {}

    def _keygen(self, fg, seed, i, rec):
        params, prg_seed = self._params(fg, seed, i)
        try:
            with rec.begin_op("keygen"), _Timed(rec, "keygen"):
                key = fg.keygen(params, fg.Prg(prg_seed))
        except Exception as exc:  # counted, the loop keeps running
            rec.fail(f"keygen {i}: {exc!r}")
            return None
        basis = key.basis
        if (len(basis) != len(self.SYMBOLS)
                or not fg.is_nielsen_reduced_segments(basis)):
            rec.fail(f"keygen {i}: basis is not a reduced rank-N tuple")
            return None
        if i < self.DIGEST_ROUNDS * self.KEYS_PER_ROUND:
            rec.digest(f"key {i} alpha={key.alpha} "
                       + " ; ".join(fg.format_word(w) for w in basis))
        return params, key

    def _session(self, fg, seed, j, rec, params, key):
        rng = _rng(seed, self.name, "session", j)
        msgs = [[rng.choice(self.SYMBOLS) for _ in range(rng.randint(*self.MSG_LEN))]
                for _ in range(self.MSGS_PER_SESSION)]
        try:
            with rec.begin_op("session"):
                ok = self._session_body(fg, params, key, msgs, rec, j)
        except Exception as exc:
            rec.fail(f"session {j}: {exc!r}")
            return
        if not ok:
            rec.fail(f"session {j}: round trip mismatch")

    def _session_body(self, fg, params, key, msgs, rec, j) -> bool:
        """One rate sample per message; the key-file round trip counts
        towards the first."""
        steps = []
        with _Timed(rec, "text", sample=False) as step:
            params2, key2 = fg.parse_key_file(fg.write_key_file(params, key))
        steps.append(step)
        ok = key2.alpha == key.alpha and key2.basis.elements == key.basis.elements
        for k, msg in enumerate(msgs):
            with _Timed(rec, "encrypt", sample=False) as step:
                c = fg.encrypt(params2, key2, msg)
            steps.append(step)
            rec.samples["encrypt_per_sym"].append(step.elapsed / len(msg))
            with _Timed(rec, "text", sample=False) as step:
                text = fg.format_ciphertext(c)
                c2 = fg.parse_ciphertext(text, params2.alphabet)
            steps.append(step)
            with _Timed(rec, "decrypt", sample=False) as step:
                plain = fg.decrypt(params2, key2, c2)
            steps.append(step)
            with _Timed(rec, "table_decrypt", sample=False) as step:
                plain_t = fg.decrypt_with_table(params2, key2, c2)
            steps.append(step)
            ok &= c2.units == c.units and plain == msg and plain_t == plain
            rec.totals["symbols"] += len(msg)
            rec.rates.append((len(msg), sum(s.elapsed for s in steps)))
            steps = []
            if j < self.DIGEST_ROUNDS:
                rec.digest(f"msg {j}.{k} {hashlib.sha256(text.encode()).hexdigest()}")
        return ok

    def run(self, fg, state, seed, rec, deadline):
        r = 0
        while r < self.DIGEST_ROUNDS or (deadline is not None
                                         and perf_counter() < deadline):
            first = None
            for i in range(r * self.KEYS_PER_ROUND, (r + 1) * self.KEYS_PER_ROUND):
                made = self._keygen(fg, seed, i, rec)
                first = first or made
            if first is not None:
                self._session(fg, seed, r, rec, *first)
            rec.end_round()
            r += 1

    def metrics(self, rec):
        t = rec.totals
        sym = t["symbols"]
        return {
            "otp.encrypt_sym_per_s": (sym / t["encrypt"], "1/s"),
            "otp.decrypt_sym_per_s": (sym / t["decrypt"], "1/s"),
            "otp.table_decrypt_sym_per_s": (sym / t["table_decrypt"], "1/s"),
            "otp.keygens_per_s": (len(rec.samples["keygen"]) / t["keygen"], "1/s"),
            "otp.keygen_ms_p50": (_pct(rec, "keygen", 0.5), "ms"),
            "otp.keygen_ms_p90": (_pct(rec, "keygen", 0.9), "ms"),
        }

    def headline(self, rec):
        # the gated latency is encryption's, per 100 symbols: keygen's ~1 ms
        # latencies swung by 20-45% between runs on a noisy 2-vCPU VM even at
        # their 10th percentile, so keygen is reported but not gated
        return _median_rate(rec), 100 * _pct(rec, "encrypt_per_sym", 0.5)


# ---------------------------------------------------------------------------
# pubkey-exchange
# ---------------------------------------------------------------------------

class PubkeyExchange(Workload):
    name = "pubkey-exchange"
    # every round runs each exponent pair of both grids once, in a seeded
    # order with seeded messages, so the latency distributions do not drift
    # with the seed; n + t reaches 14 (words of thousands of letters) and 8
    WORD_GRID = tuple((n, t) for n in range(1, 8) for t in range(1, 8))
    MATRIX_GRID = tuple((n, t) for n in range(1, 5) for t in range(1, 5))
    REJECT_EVERY = 8           # 1 in 8 matrix decrypts uses a wrong exponent
    WORD_MSG_LEN = (1, 20)
    MATRIX_MSG_LEN = (1, 10)
    DECODE_BOUND = 10          # small enough that the decoder certifies absence
    DIGEST_ROUNDS = 2
    digest_ops = DIGEST_ROUNDS * (len(WORD_GRID) + len(MATRIX_GRID))

    def setup(self, fg, seed: int):
        params_text = (PUBKEY_FIXTURE / "params.txt").read_text()
        aut_text = (PUBKEY_FIXTURE / "f.aut").read_text()
        names = next(ln.partition("=")[2].split() for ln in params_text.splitlines()
                     if ln.partition("=")[0].strip() == "alphabet")
        alphabet = fg.Alphabet(tuple(names))
        rep = fg.make_representation(alphabet)
        params = fg.pubkey.parse_params_file(params_text, aut_text, rep=rep)
        # warm-up: one exchange of each kind and one rejection, which fills
        # the decoder's half-ball table as a CLI decrypt would
        m = alphabet.parse(alphabet.names[0])
        c = fg.alice_keygen(params, 1)
        if fg.alice_decrypt(params, 1, fg.bob_encrypt(params, c, m, 1)) != m:
            raise RuntimeError("warm-up word exchange failed")
        pair = fg.bob_encrypt_matrix(params, c, m, 1)
        if fg.alice_decrypt_matrix(params, 1, pair, self.DECODE_BOUND) != m:
            raise RuntimeError("warm-up matrix exchange failed")
        try:
            fg.alice_decrypt_matrix(params, 2, pair, self.DECODE_BOUND)
        except fg.errors.DecryptionError:
            pass
        else:
            raise RuntimeError("warm-up rejection did not reject")
        return {"params": params, "alphabet": alphabet}

    def _word(self, fg, state, rng, rec, tag, n, t, digest) -> float:
        params, alphabet = state["params"], state["alphabet"]
        m = _random_word(fg, rng, alphabet, *self.WORD_MSG_LEN)
        try:
            with rec.begin_op("word_exchange"), \
                    _Timed(rec, "word_exchange") as timed:
                c = fg.alice_keygen(params, n)
                text = fg.pubkey.write_pair_file(fg.bob_encrypt(params, c, m, t))
                out = fg.alice_decrypt(
                    params, n, fg.pubkey.parse_pair_file(text, alphabet))
        except Exception as exc:
            rec.fail(f"word exchange {tag}: {exc!r}")
            return 0.0
        if out != m:
            rec.fail(f"word exchange {tag}: recovered the wrong message")
        elif digest:
            rec.digest(f"word {tag} n={n} t={t} "
                       f"{hashlib.sha256(text.encode()).hexdigest()}")
        return timed.elapsed

    def _matrix(self, fg, state, rng, rec, tag, n, t, digest, reject) -> float:
        params, alphabet = state["params"], state["alphabet"]
        m = _random_word(fg, rng, alphabet, *self.MATRIX_MSG_LEN)
        wrong = n + 1 if n == 1 or rng.random() < 0.5 else n - 1
        kind = "reject" if reject else "matrix_exchange"
        rejected = False
        out = None
        try:
            with rec.begin_op(kind), _Timed(rec, kind) as timed:
                c = fg.alice_keygen(params, n)
                text = fg.pubkey.write_pair_file(
                    fg.bob_encrypt_matrix(params, c, m, t))
                pair = fg.pubkey.parse_pair_file(text, alphabet, matrix=True)
                if reject:
                    try:
                        out = fg.alice_decrypt_matrix(params, wrong, pair,
                                                      self.DECODE_BOUND)
                    except fg.errors.DecryptionError:
                        rejected = True
                else:
                    out = fg.alice_decrypt_matrix(params, n, pair,
                                                  self.DECODE_BOUND)
        except Exception as exc:  # CapExceededError included: a failure
            rec.fail(f"{kind} {tag}: {exc!r}")
            return 0.0
        if reject and not rejected:
            rec.fail(f"reject {tag}: wrong exponent decoded to {out}")
            return 0.0
        if not reject and out != m:
            rec.fail(f"matrix exchange {tag}: recovered the wrong message")
            return 0.0
        if reject:
            rec.totals["rejections"] += 1
        if digest:
            rec.digest(f"{kind} {tag} n={n} t={t} wrong={wrong if reject else '-'} "
                       f"{hashlib.sha256(text.encode()).hexdigest()}")
        return timed.elapsed

    def run(self, fg, state, seed, rec, deadline):
        # the rejected exponent pairs walk a seeded order of the matrix grid,
        # so every pair is rejected equally often across rounds
        walk = list(self.MATRIX_GRID)
        _rng(seed, self.name, "rejects", 0).shuffle(walk)
        per_round = len(self.MATRIX_GRID) // self.REJECT_EVERY
        r = 0
        while r < self.DIGEST_ROUNDS or (deadline is not None
                                         and perf_counter() < deadline):
            rng = _rng(seed, self.name, "round", r)
            rejects = {walk[(r * per_round + k) % len(walk)] for k in range(per_round)}
            ops = ([("word", nt) for nt in self.WORD_GRID]
                   + [("matrix", nt) for nt in self.MATRIX_GRID])
            rng.shuffle(ops)
            digest = r < self.DIGEST_ROUNDS
            busy = 0.0
            for k, (kind, (n, t)) in enumerate(ops):
                tag = f"{r}.{k}"
                if kind == "word":
                    busy += self._word(fg, state, rng, rec, tag, n, t, digest)
                else:
                    busy += self._matrix(fg, state, rng, rec, tag, n, t, digest,
                                         reject=(n, t) in rejects)
            rec.rates.append((len(ops), busy))
            rec.end_round()
            r += 1

    def metrics(self, rec):
        return {
            "pubkey.word_exchange_ms_p50": (_pct(rec, "word_exchange", 0.5), "ms"),
            "pubkey.word_exchange_ms_p90": (_pct(rec, "word_exchange", 0.9), "ms"),
            "pubkey.matrix_exchange_ms_p50": (_pct(rec, "matrix_exchange", 0.5), "ms"),
            "pubkey.matrix_exchange_ms_p90": (_pct(rec, "matrix_exchange", 0.9), "ms"),
            "pubkey.reject_ms_p50": (_pct(rec, "reject", 0.5), "ms"),
        }

    def headline(self, rec):
        return _median_rate(rec), _round_p50(rec, "word_exchange")


# ---------------------------------------------------------------------------
# subset-attack
# ---------------------------------------------------------------------------

class SubsetAttack(Workload):
    name = "subset-attack"
    # (alphabet, ball radius, target rank N, subset size K); run round robin
    CONFIGS = ((("a", "b"), 3, 2, 2),      # 1326 subsets
               (("a", "b"), 2, 2, 3),      # 560 subsets
               (("x", "y", "z"), 2, 2, 2))  # 630 subsets, rank-3 alphabet
    PLANTS = 3                 # planted keys per configuration and seed
    DIGEST_ROUNDS = 2
    digest_ops = DIGEST_ROUNDS * len(CONFIGS) * PLANTS

    def setup(self, fg, seed: int):
        configs = []
        for names, radius, n, k in self.CONFIGS:
            alphabet = fg.Alphabet(names)
            cfg = fg.AttackConfig(ball_radius=radius, target_rank=n, subset_size=k)
            configs.append((alphabet, cfg))
        # warm-up: the smallest attack of the first configuration
        alphabet, cfg = configs[0]
        small = fg.AttackConfig(ball_radius=1, target_rank=cfg.target_rank,
                                subset_size=cfg.subset_size)
        fg.subset_attack(alphabet, small)
        return {"configs": configs}

    def plant(self, fg, alphabet, cfg, rng: random.Random):
        """A seeded full-rank K-subset of the ball and the 1-based colex
        index of the first subset generating the same subgroup, found with
        the mutual-membership test rather than canonical bases."""
        ball = fg.enumerate_ball(alphabet, cfg.ball_radius)
        while True:
            chosen = tuple(sorted(rng.sample(range(len(ball)), cfg.subset_size)))
            planted = fg.GeneratingTuple(alphabet, tuple(ball[i] for i in chosen))
            reduced, _ = fg.nielsen_reduce(planted)
            if len(reduced) == cfg.target_rank:
                break
        expected = None
        for index, subset in enumerate(_colex(len(ball), cfg.subset_size), 1):
            tup = fg.GeneratingTuple(alphabet, tuple(ball[i] for i in subset))
            red, _ = fg.nielsen_reduce(tup)
            if (len(red) == cfg.target_rank
                    and fg.same_subgroup_by_membership(red, reduced)):
                expected = index
                break
            if subset == chosen:
                break
        return planted, expected, math.comb(len(ball), cfg.subset_size)

    def run(self, fg, state, seed, rec, deadline):
        plants = []
        for c, (alphabet, cfg) in enumerate(state["configs"]):
            for p in range(self.PLANTS):
                rng = _rng(seed, self.name, f"plant{c}", p)
                plants.append((c, p, alphabet, cfg) + self.plant(fg, alphabet, cfg, rng))
        order = sorted(plants, key=lambda x: (x[1], x[0]))  # round robin
        r = 0
        while r < self.DIGEST_ROUNDS or (deadline is not None
                                         and perf_counter() < deadline):
            work = busy = 0.0
            for c, p, alphabet, cfg, planted, expected, subsets in order:
                done, elapsed = self._attack(fg, rec, r, c, p, alphabet, cfg,
                                             planted, expected, subsets)
                work += done
                busy += elapsed
            rec.rates.append((work, busy))
            rec.end_round()
            r += 1

    def _attack(self, fg, rec, r, c, p, alphabet, cfg, planted, expected,
                subsets) -> tuple[int, float]:
        tag = f"{r}.{c}.{p}"
        try:
            with rec.begin_op("attack"), _Timed(rec, f"attack{c}") as timed:
                report = fg.subset_attack(alphabet, cfg, planted)
                text = fg.cryptanalysis.format_report(report)
        except Exception as exc:
            rec.fail(f"attack {tag}: {exc!r}")
            return 0, 0.0
        if (report.hit_index != expected or expected is None
                or not report.complete or report.subsets_examined != subsets):
            rec.fail(f"attack {tag}: hit_index {report.hit_index}, "
                     f"expected {expected}")
            return 0, 0.0
        rec.totals["subsets"] += report.subsets_examined
        if r < self.DIGEST_ROUNDS:
            rec.digest(f"attack {c}.{p} hit={report.hit_index} "
                       f"{hashlib.sha256(text.encode()).hexdigest()}")
        return report.subsets_examined, timed.elapsed

    def metrics(self, rec):
        return {"attack.subsets_per_s": (_median_rate(rec), "1/s")}

    def headline(self, rec):
        return _median_rate(rec), _round_p50(rec, "attack0")


def _colex(n: int, k: int):
    if k == 0:
        yield ()
        return
    for top in range(k - 1, n):
        for rest in _colex(top, k - 1):
            yield rest + (top,)


WORKLOADS = {w.name: w for w in (OtpSession(), PubkeyExchange(), SubsetAttack())}
