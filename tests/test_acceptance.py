"""Acceptance criteria, one test per criterion, each printing a PASS line.

Reference values are frozen from the bundled demo fixtures (the worked
examples the package reproduces); timing bounds are checked on the bare
computation, best of three runs.
"""

import math
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import fgcrypt as fg
from fgcrypt import (
    Alphabet,
    AttackConfig,
    AutFamily,
    CipherPublicParams,
    GeneratingTuple,
    LcgParams,
    Mat2Q,
    Prg,
    PubkeyParams,
)
from fgcrypt.errors import CapExceededError

FIXTURES = Path(__file__).parent / "fixtures"

ABCD = Alphabet(("a", "b", "c", "d"))
X123 = Alphabet(("x1", "x2", "x3"))

SUITE_BUDGET_SECONDS = 300.0
_property_durations: dict[str, float] = {}


def best_of_three(fn):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return result, min(times)


def report(criterion, detail=""):
    print(f"\nACCEPTANCE {criterion}: PASS {detail}")


def demo_otp():
    params, key = fg.parse_key_file((FIXTURES / "otp_demo" / "key.txt").read_text())
    auts = [fg.parse_automorphism(
        (FIXTURES / "otp_demo" / f"aut{i}.txt").read_text(), params.alphabet)
        for i in range(1, 9)]
    return params, key, auts


def demo_pubkey(rep=False):
    f = fg.parse_automorphism((FIXTURES / "pubkey_demo" / "f.aut").read_text(),
                              X123)
    a = X123.parse("x1^2 x2 x3^-2 x2")
    spec = fg.make_representation(X123) if rep else None
    return PubkeyParams(X123, a, f, rep=spec)


def rand_word(rng, alphabet, max_len, min_len=1):
    n = rng.randint(min_len, max_len)
    letters = []
    for _ in range(n):
        options = [x for i in range(1, alphabet.rank + 1) for x in (i, -i)
                   if not letters or x != -letters[-1]]
        letters.append(rng.choice(options))
    return fg.Word(alphabet, letters)


def test_criterion_1_keystream():
    lcg = LcgParams(128, 5, 3)
    expected = [93, 468, 2343, 11718, 58593, 292968, 1464843, 7324218]
    got, elapsed = best_of_three(lambda: fg.keystream(lcg, 93, 8))
    assert got == expected
    assert elapsed < 0.001
    report(1, f"(keystream exact, {elapsed * 1e6:.0f} us)")


def test_criterion_2_automorphism_images():
    _, _, auts = demo_otp()
    expected = [
        ("a d^2 c^-1", "b c^-1", "c a d^2 c^-1", "d c^-1"),
        ("d^-1 a^-1 c a d", "d^-1 b", "d^-1 a^-1 c^-1", "d c a d c a d"),
        ("a b^3", "a^-1 d^-1", "c^-1 d a", "b a^-1 d^-1"),
        ("a c a^2", "b^-1 a^3 d", "c a^2", "d b^-1 a^3 d"),
        ("b^-1 a^-1 b", "b^-1 d c^-2", "c b^-1 a^-1 b", "d c^-2"),
        ("a^-1 c^-1 b^-1", "c^-1 b^-1", "c a^-1", "d c^-1 b^-1"),
        ("a^-1 b a^3", "a^-3 b^-1 d c^-3", "c^-1 a^-1 b a^3", "d c^-3"),
        ("d^-1 a^-1", "b^-1 a d", "d^-2 c", "d^-1 b^-1 a d"),
    ]
    texts = [(FIXTURES / "otp_demo" / f"aut{i}.txt").read_text()
             for i in range(1, 9)]

    def compute():
        return [fg.from_factors(fg.parse_moves(t), ABCD).images
                for t in texts]

    images, elapsed = best_of_three(compute)
    for got, want in zip(images, expected):
        assert tuple(str(w) for w in got) == want
    assert elapsed < 0.010
    report(2, f"(8 automorphisms exact, {elapsed * 1e3:.2f} ms)")


def test_criterion_3_demo_encryption():
    params, key, auts = demo_otp()
    expected_units = [
        "d c^-1 d^-1 a^-1 d^-2 a^-1 c^-1",
        "d^-1 b c a b d^-1 a^-1 c a d b^-1 d",
        "b a^-1 d^-1 b a^-1 d^-1 a^-1 d^-1 c a^-1 d^-1 c",
        "c a^2 c a^2 b^-1 a^3 d a c a^2",
        "c b^-1 a^-1 b d c^-2",
        "b c a d c^-1 b^-1 d c^-1 b^-1 d c^-1 b^-1 a c^-1",
        "a^-3 b^-1 a^-2 b^-1 d c^-3",
        "a b^-1 a b^-1 a b^-1 a d c^-1 d^2",
    ]

    def compute():
        ct = fg.encrypt(params, key, "I LIKE BOB", automorphisms=auts)
        by_inverse = fg.decrypt(params, key, ct, automorphisms=auts)
        by_table = fg.decrypt_with_table(params, key, ct, automorphisms=auts)
        return ct, by_inverse, by_table

    (ct, by_inverse, by_table), elapsed = best_of_three(compute)
    assert [str(u) for u in ct.units] == expected_units
    assert "".join(by_inverse) == "ILIKEBOB"
    assert "".join(by_table) == "ILIKEBOB"
    assert elapsed < 0.100
    report(3, f"(8 units verbatim + both decryptions, {elapsed * 1e3:.1f} ms)")


def test_criterion_4_table_spot_checks():
    params, key, auts = demo_otp()
    indices = fg.keystream(params.lcg, key.alpha, 8)
    table = fg.build_cipher_table(params, key, indices, automorphisms=auts)
    symbol_row = {s: k for k, s in enumerate(params.plaintext_alphabet)}
    # fixed spot checks across all four reference tables (column = position)
    checks = [
        ("A", 1, "b c^-1 a d^2 c^-1 a d^2 c^-1"),
        ("K", 1, "c a d^2 a d^2 c^-1 b c^-1 a d^2 c^-1"),
        ("I", 2, "d c a d c a d^2 c a d c a d c a d c a d"),
        ("U", 2, "d^-1 a^-1 c^4 a d b^-1 d"),
        ("O", 3, "b^-3 a^-2 d^-1"),
        ("M", 4, "b^-1 a^3 d c a^2 c a^2 c a^2"),
        ("E", 5, "c b^-1 a^-1 b d c^-2"),
        ("I", 5, "d c^-2 d c^-2 b^-1 a b c^-1 b^-1 a b c^-1"),
        ("Y", 6, "c a^-1 c a^-1 d c^-1 b^-1 a^-1"),
        ("N", 7, "a^-1 b a^2 b a^3 d c^-3 a^-3 b^-1 d c^-3 a^-3 b^-1"),
        ("K", 8, "d^-2 c d^-2 c b^-1"),
        ("B", 8, "a b^-1 a b^-1 a b^-1 a d c^-1 d^2"),
    ]
    for symbol, position, expected in checks:
        got = table[symbol_row[symbol]][position - 1]
        assert str(got) == expected, (symbol, position, str(got))
    report(4, f"({len(checks)} table entries verbatim)")


def test_criterion_5_matrix_ciphertext():
    spec = fg.demo_representation(ABCD)
    expected_generators = (
        Mat2Q(F(75, 2), F(-1111, 4), F(-11), F(163, 2)),
        Mat2Q(F(-1189), F(3990), F(104), F(-349)),
        Mat2Q(F(-2681), F(19966), F(360), F(-2681)),
        Mat2Q(F(15), F(-109), F(4), F(-29)),
    )
    assert spec.generator_matrices == expected_generators
    units = [
        "d c^-1 d^-1 a^-1 d^-2 a^-1 c^-1",
        "d^-1 b c a b d^-1 a^-1 c a d b^-1 d",
        "b a^-1 d^-1 b a^-1 d^-1 a^-1 d^-1 c a^-1 d^-1 c",
        "c a^2 c a^2 b^-1 a^3 d a c a^2",
        "c b^-1 a^-1 b d c^-2",
        "b c a d c^-1 b^-1 d c^-1 b^-1 d c^-1 b^-1 a c^-1",
        "a^-3 b^-1 a^-2 b^-1 d c^-3",
        "a b^-1 a b^-1 a b^-1 a d c^-1 d^2",
    ]
    expected_matrices = [
        Mat2Q(F(-429743093559909, 2), F(-6400784021410159, 4),
              F(-62588240305379), F(-932216979117085, 2)),
        Mat2Q(F(-3240070331754423030683243991, 2),
              F(47007695458416827592369656315, 4),
              F(-223326322203710575272321977),
              F(3240070327830150751386194361, 2)),
        Mat2Q(F(-6899014060703475554169965, 2),
              F(102756972145191520348785607, 4),
              F(301722468685102729969483),
              F(-4493988131847945704997109, 2)),
        Mat2Q(F(-397074726172421275253684843812134445, 2),
              F(5883318761059670223751985896578473377, 4),
              F(26659253089426526822952736194350493),
              F(-395000924306510751052288425218790757, 2)),
        Mat2Q(F(46475888407425825, 2), F(692232489736400389, 4),
              F(-3120351373297111), F(-46475896943687759, 2)),
        Mat2Q(F(-37154085868492177463035768197599, 2),
              F(-553374013794643763898030444104547, 4),
              F(1624906569753714749910956723073),
              F(24201404758781402065719318991873, 2)),
        Mat2Q(F(-3418963163764785449276501363, 2),
              F(-50923553357916815212095363641, 4),
              F(-230751369629481141540301125),
              F(-3436913216344813651054341083, 2)),
        Mat2Q(F(2739747352948144349387, 2), F(-39628644296581967709615, 4),
              F(-402070084312200114547), F(5815679440792026855107, 2)),
    ]
    words = [ABCD.parse(u) for u in units]

    def compute():
        return [fg.word_to_matrix(spec, w) for w in words]

    got, elapsed = best_of_three(compute)
    assert got == expected_matrices
    assert elapsed < 1.0
    report(5, f"(4 generator images + 8 ciphertext matrices exact, "
              f"{elapsed * 1e3:.1f} ms)")


def test_criterion_6_pubkey_worked_example():
    params = demo_pubkey()
    x1, x2, x3 = fg.generators(X123)
    f = params.f

    def compute():
        f7, f5 = f.power(7), f.power(5)
        c = f7.apply(params.a)
        m = x3 ** -2 * x2 ** 2 * x3 * x1 ** 2 * x2 ** -1 * x1 ** -1
        pair = fg.bob_encrypt(params, c, m, 5)
        return f7, f5, c, m, pair, fg.alice_decrypt(params, 7, pair)

    (f7, f5, c, m, pair, decrypted), elapsed = best_of_three(compute)
    assert f7.images == (
        x1 * x2 ** 2 * x3 ** -1 * x2 * (x2 * x3) ** 2
        * (x3 * x2 * x3 ** 2 * x2) ** 2 * x3 * x2,
        x2 ** -1 * ((x3 ** -1 * x2 ** -1 * x3 ** -1) ** 2
                    * x2 ** -1 * x3 ** -1) ** 2 * x3 ** -1 * x2 ** -1 * x3 ** -2,
        (((x2 ** -1 * x3 ** -1) ** 2 * x3 ** -1) ** 2
         * x2 ** -1 * x3 ** -2) ** 2 * x2 ** -1
        * (x3 ** -1 * x2 ** -1 * x3 ** -1) ** 2 * x3 ** -1,
    )
    assert f5.images == (
        x1 * x2 ** 2 * x3 ** -1 * x2 ** 2 * x3 * (x3 * x2) ** 2,
        x2 ** -1 * (x3 ** -1 * x2 ** -1 * x3 ** -1) ** 2 * x3 ** -1,
        ((x2 ** -1 * x3 ** -1) ** 2 * x3 ** -1) ** 2 * x2 ** -1 * x3 ** -2,
    )
    assert c == ((x1 * x2 ** 2 * x3 ** -1 * x2 * (x2 * x3) ** 2
                  * (x3 * x2 * x3 ** 2 * x2) ** 2 * x3 * x2) ** 2
                 * (x3 ** 2 * x2) ** 2
                 * ((x3 * x2 * x3) ** 2 * x2 * x3) ** 2
                 * x3 * x2 * x3 ** 2 * x2 * x3 ** -1)
    assert pair.c2 == ((x1 * x2 ** 2 * x3 ** -1 * x2 ** 2 * x3
                        * (x3 * x2) ** 2) ** 2 * x3 ** 2 * x2
                       * (x3 * x2 * x3) ** 2 * x3 * x2 * x3 ** -1)
    assert decrypted == m
    assert elapsed < 1.0
    report(6, f"(f^7, f^5, c, c2 and decryption exact, {elapsed * 1e3:.1f} ms)")


# --- criterion 7: the property suite ---------------------------------------

def _timed(name):
    class _Ctx:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            _property_durations[name] = time.perf_counter() - self.start
            return False
    return _Ctx()


def test_criterion_7a_predicate_equivalence():
    rng = random.Random(0xACCE01)
    with _timed("7a"):
        for _ in range(10000):
            q = rng.randint(2, 3)
            alphabet = Alphabet(tuple("xyz"[:q]))
            tup = GeneratingTuple(alphabet, tuple(
                rand_word(rng, alphabet, 6)
                for _ in range(rng.randint(1, 4))))
            assert fg.is_nielsen_reduced(tup) == \
                fg.is_nielsen_reduced_segments(tup), [str(w) for w in tup]
    report("7a", f"(10000 tuples, zero disagreements, "
                 f"{_property_durations['7a']:.1f} s)")


def test_criterion_7b_lcg_max_period_iff():
    rng = random.Random(0xACCE02)

    def orbit(p, start=0):
        x = start % p.modulus
        cur = x
        for steps in range(1, p.modulus + 1):
            cur = fg.lcg_next(p, cur)
            if cur == x:
                return steps
        return p.modulus + 1

    with _timed("7b"):
        for m in range(1, 11):
            modulus = 1 << m
            for _ in range(200):
                p = LcgParams(m, rng.randrange(modulus), rng.randrange(modulus))
                assert (orbit(p) == modulus) == fg.has_max_period(p), p
    report("7b", f"(m <= 10, 200 pairs each, zero counterexamples, "
                 f"{_property_durations['7b']:.1f} s)")


def test_criterion_7c_otp_round_trips():
    rng = random.Random(0xACCE03)
    with _timed("7c"):
        for trial in range(500):
            q = rng.randint(2, 4)
            alphabet = Alphabet(tuple("abcd"[:q]))
            n_symbols = rng.randint(2, 6)
            symbols = tuple("ABCDEFGH"[:n_symbols])
            m = rng.choice([16, 32, 64])
            params = CipherPublicParams(
                alphabet, symbols,
                AutFamily(rng.getrandbits(64), alphabet, m),
                LcgParams(m, 5, 3))
            key = fg.keygen(params, Prg(rng.getrandbits(64)))
            message = "".join(rng.choice(symbols)
                              for _ in range(rng.randint(1, 64)))
            ct = fg.encrypt(params, key, message)
            assert "".join(fg.decrypt(params, key, ct)) == message, trial
    report("7c", f"(500/500 OTP round trips, {_property_durations['7c']:.1f} s)")


def test_criterion_7d_pubkey_round_trips():
    rng = random.Random(0xACCE04)
    word_params = demo_pubkey()
    matrix_params = demo_pubkey(rep=True)
    with _timed("7d"):
        for trial in range(200):
            n, t = rng.randint(1, 6), rng.randint(1, 6)
            m = rand_word(rng, X123, 10, min_len=0)
            c = fg.alice_keygen(word_params, n)
            pair = fg.bob_encrypt(word_params, c, m, t)
            assert fg.alice_decrypt(word_params, n, pair) == m, trial
            mpair = fg.bob_encrypt_matrix(matrix_params, c, m, t)
            recovered = fg.mat_mul(mpair.c1, fg.mat_inv(fg.word_to_matrix(
                matrix_params.rep, matrix_params.f.power(n).apply(mpair.c2))))
            assert recovered == fg.word_to_matrix(matrix_params.rep, m), trial
            decoded = fg.alice_decrypt_matrix(matrix_params, n, mpair,
                                              decode_bound=max(1, len(m)))
            assert decoded == m, trial
    report("7d", f"(200/200 word+matrix round trips, intermediate exact, "
                 f"{_property_durations['7d']:.1f} s)")


def test_criterion_7e_representation_round_trip():
    rng = random.Random(0xACCE05)
    ab = Alphabet(("a", "b"))
    spec2 = fg.make_representation(ab)
    spec4 = fg.demo_representation(ABCD)
    with _timed("7e"):
        # rank-2 default schedule: exhaustive over the whole ball |w| <= 8
        frontier = [()]
        checked = 1
        assert fg.matrix_to_word(spec2, Mat2Q.identity(), 8) == ab.parse("1")
        for _ in range(8):
            nxt = []
            for seq in frontier:
                for i in (1, 2):
                    for s in (i, -i):
                        if seq and seq[-1] == -s:
                            continue
                        nxt.append(seq + (s,))
            frontier = nxt
            for seq in frontier:
                w = fg.Word(ab, seq)
                assert fg.matrix_to_word(spec2, fg.word_to_matrix(spec2, w), 8) == w
                checked += 1
        # rank-4 preset: randomized sample at the same bound
        for _ in range(400):
            w = rand_word(rng, ABCD, 8, min_len=0)
            assert fg.matrix_to_word(spec4, fg.word_to_matrix(spec4, w), 8) == w
            checked += 1
    report("7e", f"({checked} round trips across two representations, "
                 f"{_property_durations['7e']:.1f} s)")


def test_criterion_7f_planted_attack_recovery():
    with _timed("7f"):
        planted = GeneratingTuple(Alphabet(("a", "b")),
                                  (Alphabet(("a", "b")).parse("a"),
                                   Alphabet(("a", "b")).parse("b")))
        cfg = AttackConfig(ball_radius=2, target_rank=2, subset_size=2)
        rep = fg.subset_attack(Alphabet(("a", "b")), cfg, planted)
        target = fg.canonical_minimal_basis(planted).elements
        assert any(c.elements == target for c in rep.candidates)
        assert rep.hit_index is not None and rep.complete
    report("7f", f"(planted basis recovered at subset {rep.hit_index}, "
                 f"{_property_durations['7f']:.1f} s)")


def test_criterion_7_total_runtime():
    total = sum(_property_durations.values())
    assert len(_property_durations) == 6, "property sub-tests must run first"
    assert total < SUITE_BUDGET_SECONDS
    report(7, f"(property suite total {total:.1f} s < {SUITE_BUDGET_SECONDS:.0f} s)")


def test_criterion_8_desk_scale_honesty():
    # full-scale parameters are refused outright ...
    with pytest.raises(CapExceededError):
        fg.enumerate_ball(ABCD, 50)
    # ... while the cost arithmetic stays exact at any scale
    est = fg.attack_cost_estimate(AttackConfig(7, 12, 12), 4)
    assert est.ball == sum(8 * 7 ** (k - 1) for k in range(1, 8))
    assert est.subsets == math.comb(est.ball, 12)
    assert est.subsets > 10 ** 60
    big = fg.attack_cost_estimate(AttackConfig(128, 12, 12), 4)
    assert big.ball == sum(8 * 7 ** (k - 1) for k in range(1, 129))
    report(8, "(enumeration refused beyond caps; exact binomial growth exposed)")
