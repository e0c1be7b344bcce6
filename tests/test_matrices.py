import functools
import hashlib
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from fgcrypt import (
    Alphabet,
    Mat2Q,
    matrices,
    concat,
    default_tl_params,
    demo_representation,
    format_matrix,
    format_word,
    make_representation,
    mat_det,
    mat_inv,
    mat_mul,
    matrix_to_word,
    nielsen,
    parse_matrix,
    tl_generator,
    word_to_matrix,
)
from fgcrypt.errors import (
    CapExceededError,
    PreconditionError,
    SingularMatrixError,
    WordSyntaxError,
)
from fgcrypt.matrices import _IDENTITY, _MAX_ENTRY_BITS, _kmul

from conftest import random_word

AB = Alphabet(("a", "b"))
ABC = Alphabet(("x1", "x2", "x3"))
ABCD = Alphabet(("a", "b", "c", "d"))

# integral (den 1), the bundled demo (den > 1) and a rational schedule
SPECS = {
    "int2": (lambda: make_representation(AB), AB),
    "int3": (lambda: make_representation(ABC), ABC),
    "demo4": (lambda: demo_representation(ABCD), ABCD),
    "rat2": (lambda: make_representation(AB, tl_params=(F(7, 3), F(17, 3))),
             AB),
}
SHEAR = Mat2Q(F(1), F(1), F(0), F(1))  # det 1, outside every spec's image
MINUS_I = Mat2Q(F(-1), F(0), F(0), F(-1))  # order 2: in no free image

X1 = tl_generator(F(7, 2))
X2 = tl_generator(F(15, 2))
X3 = tl_generator(F(23, 2))


class TestArithmetic:
    def test_product(self):
        got = mat_mul(X1, X2)
        assert got == Mat2Q(F(75, 2), F(-1111, 4), F(-11), F(163, 2))

    def test_inverse(self):
        assert mat_mul(X1, mat_inv(X1)).is_identity()

    def test_det(self):
        assert mat_det(X3) == 1
        assert mat_det(Mat2Q(F(2), F(0), F(0), F(3))) == 6

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            mat_inv(Mat2Q(F(1), F(2), F(2), F(4)))

    @example([F(0)] * 4 + [F(2), F(0), F(0), F(3)])
    @example([F(-1, 2), F(0), F(3), F(-4, 3), F(5), F(-7, 6), F(0), F(1)])
    @example([F(1), F(2), F(-2), F(-4), F(3, 4), F(-5, 6), F(7, 10), F(2)])
    @given(st.lists(st.fractions(min_value=-50, max_value=50,
                                 max_denominator=12), min_size=8, max_size=8))
    def test_mul_matches_fraction_formula(self, entries):
        # any rational entries: det != 1, zero and negative ones included
        a, b, c, d, e, f, g, h = entries
        A = Mat2Q(a, b, c, d)
        assert mat_mul(A, Mat2Q(e, f, g, h)) == Mat2Q(
            a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        # one value: ints, Fractions and strings all give the lowest-terms
        # tuple over the least common denominator
        den = math.lcm(a.denominator, b.denominator, c.denominator,
                       d.denominator)
        key = Mat2Q._make(tuple(int(x * den) for x in (a, b, c, d)) + (den,))
        assert _is_canonical(key.k)
        ints = [x.numerator if x.denominator == 1 else x for x in (a, b, c, d)]
        for M in (A, Mat2Q(*ints), Mat2Q(*map(str, (a, b, c, d)))):
            assert M == key and hash(M) == hash(key)
            assert M.entries() == (a, b, c, d)
        det = a * d - b * c
        assert mat_det(A) == det
        if det == 0:
            with pytest.raises(SingularMatrixError):
                mat_inv(A)
        else:
            assert mat_inv(A) == Mat2Q(d / det, -b / det, -c / det, a / det)
        for name in ("k", "a11"):
            with pytest.raises(AttributeError):
                setattr(A, name, 0)
        assert A == key


class TestTlGenerator:
    def test_demo_values(self):
        assert X1 == Mat2Q(F(-7, 2), F(45, 4), F(1), F(-7, 2))
        assert X3 == Mat2Q(F(-23, 2), F(525, 4), F(1), F(-23, 2))

    def test_smallest(self):
        assert tl_generator(2) == Mat2Q(F(-2), F(3), F(1), F(-2))

    def test_always_unimodular(self):
        for r in (F(2), F(7, 2), F(100, 3)):
            assert mat_det(tl_generator(r)) == 1


class TestMakeRepresentation:
    def test_demo_generator_images(self):
        spec = demo_representation(ABCD)
        assert spec.generator_matrices[0] == Mat2Q(F(75, 2), F(-1111, 4),
                                                   F(-11), F(163, 2))
        assert spec.generator_matrices[1] == Mat2Q(F(-1189), F(3990),
                                                   F(104), F(-349))
        assert spec.generator_matrices[2] == Mat2Q(F(-2681), F(19966),
                                                   F(360), F(-2681))
        assert spec.generator_matrices[3] == Mat2Q(F(15), F(-109),
                                                   F(4), F(-29))

    def test_default_rank2(self):
        spec = make_representation(AB)
        assert spec.generator_matrices == (tl_generator(2), tl_generator(5))
        assert default_tl_params(3) == (F(2), F(5), F(8))

    def test_constraints(self):
        with pytest.raises(PreconditionError):
            make_representation(AB, tl_params=(F(1), F(5)))
        with pytest.raises(PreconditionError):
            make_representation(AB, tl_params=(F(2), F(4)))

    def test_non_basis_words_rejected(self):
        aux = Alphabet(("y1", "y2"))
        words = (aux.parse("y1"), aux.parse("y1"))
        with pytest.raises(PreconditionError):
            make_representation(AB, gen_words=words)


class TestWordToMatrix:
    def test_other_alphabet_refused(self):
        with pytest.raises(PreconditionError,
                           match="^alphabet mismatch: a b vs x1 x2 x3$"):
            word_to_matrix(make_representation(AB), ABC.parse("x1"))

    def test_first_demo_ciphertext_matrix(self):
        spec = demo_representation(ABCD)
        w = ABCD.parse("d c^-1 d^-1 a^-1 d^-2 a^-1 c^-1")
        assert word_to_matrix(spec, w) == Mat2Q(
            F(-429743093559909, 2), F(-6400784021410159, 4),
            F(-62588240305379), F(-932216979117085, 2))

    def test_identity(self):
        spec = make_representation(AB)
        assert word_to_matrix(spec, AB.parse("1")).is_identity()

    def test_homomorphism(self):
        rng = random.Random(4)
        spec = demo_representation(ABCD)
        for _ in range(50):
            u = random_word(rng, ABCD, 6, min_len=0)
            v = random_word(rng, ABCD, 6, min_len=0)
            assert word_to_matrix(spec, concat(u, v)) == \
                mat_mul(word_to_matrix(spec, u), word_to_matrix(spec, v))

    def test_always_det_one(self):
        rng = random.Random(5)
        spec = make_representation(AB)
        for _ in range(30):
            w = random_word(rng, AB, 10, min_len=0)
            assert mat_det(word_to_matrix(spec, w)) == 1

    def test_exact_lowest_terms(self):
        rng = random.Random(7)
        spec = demo_representation(ABCD)
        for _ in range(20):
            M = word_to_matrix(spec, random_word(rng, ABCD, 9, min_len=0))
            for e in M.entries():
                assert isinstance(e, F)
                assert e.denominator >= 1
                assert math.gcd(abs(e.numerator), e.denominator) == 1


class TestEntryCap:
    def test_cap_is_the_largest_entry_that_reads_back(self):
        big = (1 << _MAX_ENTRY_BITS) - 1
        M = Mat2Q._make((big, 1, -big, 1, big - 2))
        assert parse_matrix(format_matrix(M)) == M
        with pytest.raises(ValueError):  # one bit more may not print
            str((1 << (_MAX_ENTRY_BITS + 1)) - 1)

    def test_long_word_refused_at_the_first_product_past_the_cap(
            self, monkeypatch):
        spec = demo_representation(ABCD)
        products = []

        def counting(A, B):
            products.append(_kmul(A, B))
            return products[-1]

        monkeypatch.setattr(matrices, "_kmul", counting)
        with pytest.raises(CapExceededError):
            word_to_matrix(spec, ABCD.parse("a^4000 b"))
        # every product is checked: the last one made is the first past the
        # cap, long before the 4001st
        *before, last = [max(map(abs, k)).bit_length() for k in products]
        assert last > _MAX_ENTRY_BITS >= max(before)
        assert len(products) < 4001

    def test_result_past_the_cap_refused(self):
        # the letter of y1^8 at r = 2 has 15-bit entries and grows by its
        # eigenvalue (2 + 3^(1/2))^8, about 2^15.2, per letter
        a = Alphabet(("a",))
        spec = make_representation(
            a, gen_words=(Alphabet(("y1",)).parse("y1^8"),), tl_params=(2,))
        M = word_to_matrix(spec, a.parse("a^939"))
        assert parse_matrix(format_matrix(M)) == M
        with pytest.raises(CapExceededError, match="14288-bit entry"):
            word_to_matrix(spec, a.parse("a^940"))


class TestMatrixToWord:
    def test_negative_bound_refused(self):
        with pytest.raises(PreconditionError, match="max_len must be >= 0"):
            matrix_to_word(make_representation(AB), Mat2Q.identity(), -1)

    def test_round_trip_basic(self):
        spec = demo_representation(ABCD)
        w = ABCD.parse("b a^2")
        assert matrix_to_word(spec, word_to_matrix(spec, w), 3) == w

    def test_identity(self):
        spec = make_representation(AB)
        assert matrix_to_word(spec, Mat2Q.identity(), 4) == AB.parse("1")

    def test_absent(self):
        spec = make_representation(AB)
        outside = Mat2Q(F(1), F(1), F(0), F(1))
        assert matrix_to_word(spec, outside, 12) is None

    def test_det_precondition(self):
        spec = make_representation(AB)
        with pytest.raises(PreconditionError):
            matrix_to_word(spec, Mat2Q(F(2), F(0), F(0), F(3)), 4)

    def test_bound_respected(self):
        spec = make_representation(AB)
        for text in ("a b a b a b", "a b^-2 a^3 b a^-1 b^2 a b"):
            w = AB.parse(text)
            M = word_to_matrix(spec, w)
            assert matrix_to_word(spec, M, len(w) - 1) is None
            assert matrix_to_word(spec, M, len(w)) == w
            assert matrix_to_word(spec, M, 12) == w
            assert matrix_to_word(spec, mat_mul(M, SHEAR), 12) is None

    def test_absent_at_large_bounds(self):
        for tag in ("int2", "demo4"):
            spec = SPECS[tag][0]()
            for bound in (40, 1000):
                assert matrix_to_word(spec, SHEAR, bound) is None
                assert matrix_to_word(spec, MINUS_I, bound) is None

    def test_auxiliary_word_outside_subgroup(self):
        # y1 alone lies outside the subgroup the demo words generate: the
        # auxiliary peel succeeds, the membership test rejects it
        spec = demo_representation(ABCD)
        assert matrix_to_word(spec, X1, 8) is None
        assert matrix_to_word(spec, mat_mul(X1, X2), 8) == ABCD.parse("a")

    def test_random_round_trips_two_specs(self):
        rng = random.Random(6)
        for spec, alphabet in ((make_representation(AB), AB),
                               (demo_representation(ABCD), ABCD)):
            for _ in range(60):
                w = random_word(rng, alphabet, 8, min_len=0)
                assert matrix_to_word(spec, word_to_matrix(spec, w), 8) == w

    def test_round_trips_under_six_schedules(self):
        rng = random.Random(13)
        # six rank-2 schedules, then the first again
        schedules = [(F(2 + k), F(5 + k)) for k in range(6)]
        for params in schedules + schedules[:1]:
            spec = make_representation(AB, tl_params=params)
            for _ in range(5):
                w = random_word(rng, AB, 6, min_len=0)
                assert matrix_to_word(spec, word_to_matrix(spec, w), 6) == w
            assert matrix_to_word(spec, SHEAR, 6) is None

    def test_decodes_do_not_recheck_the_basis(self, monkeypatch):
        # the spec checks its basis and builds its strips once; decodes
        # only peel and strip
        spec = demo_representation(ABCD)
        calls = []
        original = nielsen.is_nielsen_reduced

        def counting(t):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(nielsen, "is_nielsen_reduced", counting)
        rng = random.Random(50)
        for _ in range(50):
            w = random_word(rng, ABCD, 6, min_len=0)
            assert matrix_to_word(spec, word_to_matrix(spec, w), 6) == w
        assert calls == []
        demo_representation(ABCD)
        assert len(calls) == 1


class TestPingPong:
    # the schedules the decoder runs on: the default, a rational one and the
    # demo preset's auxiliary one
    @pytest.mark.parametrize("params", [
        default_tl_params(2), (F(7, 3), F(17, 3)),
        (F(7, 2), F(15, 2), F(23, 2))], ids=["default2", "rat2", "demo-aux3"])
    def test_first_letter_interval_holds_w_of_0(self, params):
        # letter x_(i+1), code 2i, maps into (-r-1, -r+1), its inverse,
        # code 2i + 1, into (r-1, r+1)
        interval = {}
        for i, r in enumerate(params):
            interval[2 * i] = (-r - 1, -r + 1)
            interval[2 * i + 1] = (r - 1, r + 1)
        ends = sorted(interval.values())
        assert all(hi < lo for (_, hi), (lo, _) in zip(ends, ends[1:]))
        assert not any(lo <= 0 <= hi for lo, hi in ends)
        names = tuple(f"x{i}" for i in range(1, len(params) + 1))
        spec = make_representation(Alphabet(names), tl_params=params)
        assert [(s, F(lo, q), F(hi, q)) for s, lo, hi, q, _ in
                spec._ping_pong] == [(s, *interval[s]) for s in interval]

        maps = {}
        for s in interval:
            a, b, c, d = tl_generator(params[s >> 1]).entries()
            maps[s] = (d, -b, -c, a) if s & 1 else (a, b, c, d)

        def moebius(s, x):
            a, b, c, d = maps[s]
            return (a * x + b) / (c * x + d)

        # every reduced word of length 1..7, built by prepending letters:
        # w(0) = s_1(rest(0)), one Moebius step from the suffix's value
        level = {(): F(0)}
        count = 0
        for _ in range(7):
            level = {(s,) + w: moebius(s, x) for w, x in level.items()
                     for s in maps if not w or s != w[0] ^ 1}
            for w, x in level.items():
                lo, hi = interval[w[0]]
                assert lo < x < hi, w
            count += len(level)
        assert count == 2 * len(params) * sum(
            (2 * len(params) - 1) ** k for k in range(7))


class TestText:
    def test_format(self):
        assert format_matrix(X1) == "[[-7/2, 45/4],[1, -7/2]]"
        assert format_matrix(Mat2Q(F(15), F(-109), F(4), F(-29))) == \
            "[[15, -109],[4, -29]]"

    def test_parse_round_trip(self):
        for M in (X1, X2, Mat2Q(F(15), F(-109), F(4), F(-29))):
            assert parse_matrix(format_matrix(M)) == M

    def test_parse_errors(self):
        with pytest.raises(WordSyntaxError):
            parse_matrix("[[1, 2],[3]]")
        with pytest.raises(WordSyntaxError):
            parse_matrix("[[1, 2],[3, x]]")


def _fraction_product(spec, letters):
    """Reference evaluation: plain Fraction arithmetic, letter by letter."""
    out = (F(1), F(0), F(0), F(1))
    for s in letters:
        a, b, c, d = spec.generator_matrices[abs(s) - 1].entries()
        if s < 0:
            det = a * d - b * c
            a, b, c, d = d / det, -b / det, -c / det, a / det
        p, q, r, t = out
        out = (p * a + q * c, p * b + q * d, r * a + t * c, r * b + t * d)
    return Mat2Q(*out)


def _is_canonical(K) -> bool:
    return K[4] > 0 and math.gcd(*K) == 1


class TestKernel:
    @pytest.mark.parametrize("tag", ["int2", "demo4", "rat2"])
    def test_word_to_matrix_matches_fraction_product(self, tag):
        build, alphabet = SPECS[tag]
        spec = build()
        rng = random.Random(f"kernel product {tag}")
        for _ in range(300):
            w = random_word(rng, alphabet, 12, min_len=0)
            assert word_to_matrix(spec, w) == _fraction_product(spec, w.signed)

    @pytest.mark.parametrize("tag", ["int2", "demo4", "rat2"])
    def test_letter_table_inverses(self, tag):
        spec = SPECS[tag][0]()
        table = spec._letters
        assert sorted(table) == sorted(
            c for i in range(spec.alphabet.rank) for c in (2 * i, 2 * i + 1))
        for i, M in enumerate(spec.generator_matrices):
            assert table[2 * i] == M.k
            assert _kmul(table[2 * i], table[2 * i + 1]) == _IDENTITY
            assert _kmul(table[2 * i + 1], table[2 * i]) == _IDENTITY

    def test_kernel_round_trip_and_bit_size(self):
        rng = random.Random(12)
        mats = [Mat2Q(F(0), F(-3, 4), F(5, 6), F(2)),
                Mat2Q(F(1, 2), F(3), F(0), F(2)),
                Mat2Q(F(-7), F(0), F(0), F(-1, 7)),
                Mat2Q.identity(), X1, X2]
        for build, alphabet in SPECS.values():
            spec = build()
            mats += [word_to_matrix(spec, random_word(rng, alphabet, 9, 0))
                     for _ in range(40)]
        for M in mats:
            K = M.k
            assert _is_canonical(K)
            assert Mat2Q._make(K) == M
            assert Mat2Q(*M.entries()) == M

    @pytest.mark.parametrize("tag", ["int2", "demo4", "rat2"])
    def test_equal_matrices_equal_keys(self, tag):
        build, alphabet = SPECS[tag]
        spec = build()
        mats = spec._letters
        rng = random.Random(f"kernel keys {tag}")
        for _ in range(50):
            w = random_word(rng, alphabet, 8, min_len=0)
            x = rng.choice(list(mats))
            k = rng.randint(0, len(w))
            # w itself, and w with x x^-1 spliced in: never freely reduced
            padded = w.codes[:k] + bytes((x, x ^ 1)) + w.codes[k:]
            keys = [functools.reduce(_kmul, (mats[c] for c in letters),
                                     _IDENTITY)
                    for letters in (w.codes, padded,
                                    w.codes + bytes((x, x ^ 1)))]
            assert all(_is_canonical(K) for K in keys)
            assert keys[0] == keys[1] == keys[2] == word_to_matrix(spec, w).k


def _decode_outcome(spec, M, bound):
    w = matrix_to_word(spec, M, bound)
    return "none" if w is None else format_word(w)


def _decode_grid():
    """Per spec, from one seeded stream: 25 words up to the spec's top
    length, then 10 words of length 6 to 10."""
    for tag, (build, alphabet) in SPECS.items():
        rng = random.Random(f"decode-grid {tag}")
        top = 7 if alphabet.rank == 4 else 8
        short = [random_word(rng, alphabet, top, min_len=0) for _ in range(25)]
        long = [random_word(rng, alphabet, 10, min_len=6) for _ in range(10)]
        yield tag, build(), top, short, long


class TestDecodeGolden:
    # SHA-256 over the outcomes of matrix_to_word on a seeded grid: hits at
    # and above the word's length, rejections below it and off the image
    # (M * SHEAR), and one rank-2 bound-17 rejection.  Computed with the
    # Fraction-based search decoder that the integer kernel and then the
    # ping-pong peel replaced.
    DIGEST = "39d7d463e89c625402450e379d4586986fe6459b40aa624dc1fe13a3661ce04c"
    # the longer words at bound 40, each decoded, and SHEAR rejected there
    BOUND_40_DIGEST = "0af6fc6a7473c356cefa14f6062721f25c63c5cecbf8cd07daa1c699e60cae6b"

    def test_golden_digest(self):
        lines = []
        for tag, spec, top, short, _ in _decode_grid():
            for k, w in enumerate(short):
                M = word_to_matrix(spec, w)
                for bound in (len(w), top, max(len(w) - 1, 0)):
                    lines.append(f"{tag} hit {k} {bound} "
                                 f"{_decode_outcome(spec, M, bound)}")
                lines.append(f"{tag} off {k} "
                             f"{_decode_outcome(spec, mat_mul(M, SHEAR), top)}")
        int2 = SPECS["int2"][0]()
        lines.append(f"int2 deep {_decode_outcome(int2, SHEAR, 17)}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.DIGEST

    def test_bound_40_digest(self):
        lines = []
        for tag, spec, _, _, long in _decode_grid():
            for k, w in enumerate(long):
                got = _decode_outcome(spec, word_to_matrix(spec, w), 40)
                assert got == format_word(w)
                lines.append(f"{tag} bound40 {k} {got}")
            assert _decode_outcome(spec, SHEAR, 40) == "none"
            lines.append(f"{tag} shear40 none")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.BOUND_40_DIGEST
