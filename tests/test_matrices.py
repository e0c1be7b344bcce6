import functools
import hashlib
import math
import random
from fractions import Fraction as F

import pytest

from fgcrypt import (
    Alphabet,
    Mat2Q,
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
    parse_matrix,
    tl_generator,
    word_to_matrix,
)
from fgcrypt import matrices
from fgcrypt.errors import (
    CapExceededError,
    PreconditionError,
    SingularMatrixError,
    WordSyntaxError,
)
from fgcrypt.matrices import (
    _IDENTITY,
    _TABLE_CACHE_SIZE,
    _from_kernel,
    _half_table,
    _kmul,
    _ksize,
    _letter_matrices,
    _meet_in_middle,
    _to_kernel,
)

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


class TestMatrixToWord:
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
        w = AB.parse("a b a b a b")
        assert matrix_to_word(spec, word_to_matrix(spec, w), 5) is None
        assert matrix_to_word(spec, word_to_matrix(spec, w), 6) == w

    def test_absence_cap(self):
        spec = demo_representation(ABCD)
        outside = Mat2Q(F(1), F(1), F(0), F(1))
        with pytest.raises(CapExceededError):
            matrix_to_word(spec, outside, 40, search_budget=2000)

    def test_small_bound_skips_best_first(self, monkeypatch):
        # at bound 12 and rank 2 the half-ball holds 1456 words, so a word
        # the greedy peel misses goes straight to the meet-in-the-middle
        def refuse(*args, **kwargs):
            raise AssertionError("best-first search at a small bound")

        monkeypatch.setattr(matrices, "_best_first", refuse)
        spec = make_representation(AB)
        w = AB.parse("a b^-2 a^3 b a^-1 b^2 a b")
        M = word_to_matrix(spec, w)
        assert matrix_to_word(spec, mat_mul(M, SHEAR), 12) is None
        assert matrix_to_word(spec, M, 12) == w
        monkeypatch.setattr(matrices, "_greedy_peel", lambda *args: None)
        assert matrix_to_word(spec, M, 12) == w

    def test_random_round_trips_two_specs(self):
        rng = random.Random(6)
        for spec, alphabet in ((make_representation(AB), AB),
                               (demo_representation(ABCD), ABCD)):
            for _ in range(60):
                w = random_word(rng, alphabet, 8, min_len=0)
                assert matrix_to_word(spec, word_to_matrix(spec, w), 8) == w


class TestText:
    def test_format(self):
        assert format_matrix(X1) == "[[-7/2, 45/4],[1, -7/2]]"
        assert format_matrix(Mat2Q(F(15), F(-109), F(4), F(-29))) == \
            "[[15, -109],[4, -29]]"

    def test_parse_round_trip(self):
        for M in (X1, X2, Mat2Q(F(15), F(-109), F(4), F(-29))):
            assert parse_matrix(format_matrix(M)) == M

    def test_sequence_round_trip(self):
        from fgcrypt import format_matrix_sequence, parse_matrix_sequence
        spec = demo_representation(ABCD)
        mats = [word_to_matrix(spec, ABCD.parse(s))
                for s in ("b a^2", "c d", "1")]
        text = format_matrix_sequence(mats)
        assert " | " in text
        assert parse_matrix_sequence(text) == tuple(mats)
        assert parse_matrix_sequence("") == ()

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


def _fraction_size(M: Mat2Q) -> int:
    """The decoder's measure, entry by entry in lowest terms."""
    return sum(abs(e.numerator).bit_length() + e.denominator.bit_length()
               for e in M.entries())


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
            K = _to_kernel(M)
            assert _is_canonical(K)
            assert _from_kernel(K) == M
            assert _ksize(K) == _fraction_size(M)

    @pytest.mark.parametrize("tag", ["int2", "demo4", "rat2"])
    def test_equal_matrices_equal_keys(self, tag):
        build, alphabet = SPECS[tag]
        spec = build()
        mats = _letter_matrices(spec)
        rng = random.Random(f"kernel keys {tag}")
        for _ in range(50):
            w = random_word(rng, alphabet, 8, min_len=0)
            x = rng.choice(list(mats))
            k = rng.randint(0, len(w))
            # w itself, and w with x x^-1 spliced in: never freely reduced
            padded = w.signed[:k] + (x, -x) + w.signed[k:]
            keys = [functools.reduce(_kmul, (mats[s] for s in letters),
                                     _IDENTITY)
                    for letters in (w.signed, padded, w.signed + (x, -x))]
            assert all(_is_canonical(K) for K in keys)
            assert keys[0] == keys[1] == keys[2] == \
                _to_kernel(word_to_matrix(spec, w))


def _decode_outcome(spec, M, bound, budget):
    try:
        w = matrix_to_word(spec, M, bound, search_budget=budget)
    except CapExceededError:
        return "cap"
    return "none" if w is None else format_word(w)


class TestDecodeGolden:
    # SHA-256 over the outcomes of matrix_to_word on a seeded grid: hits at
    # and above the word's length, rejections below it and off the image
    # (M * SHEAR), budget sweeps at bound 40 that pin the best-first node
    # counts (a word or CapExceededError), the bound-40 cap itself, and one
    # rank-2 bound-17 rejection that runs best-first and then a depth-9
    # meet-in-the-middle.  Computed with the Fraction-based decoder that the
    # integer kernel replaced.
    DIGEST = "b0f26fb57cefa7a6ad8dfccbb984f6dc2049ffa2b3e46b18c9ea0bda021f17b8"

    def test_golden_digest(self):
        lines = []
        for tag, (build, alphabet) in SPECS.items():
            spec = build()
            rng = random.Random(f"decode-grid {tag}")
            top = 7 if alphabet.rank == 4 else 8
            for k in range(25):
                w = random_word(rng, alphabet, top, min_len=0)
                M = word_to_matrix(spec, w)
                for bound in (len(w), top, max(len(w) - 1, 0)):
                    lines.append(f"{tag} hit {k} {bound} "
                                 f"{_decode_outcome(spec, M, bound, 50_000)}")
                lines.append(f"{tag} off {k} "
                             f"{_decode_outcome(spec, mat_mul(M, SHEAR), top, 50_000)}")
            for k in range(10):
                M = word_to_matrix(spec, random_word(rng, alphabet, 10, min_len=6))
                for budget in (1, 4, 7, 8, 9, 10, 11, 12, 16, 40, 300):
                    lines.append(f"{tag} budget {k} {budget} "
                                 f"{_decode_outcome(spec, M, 40, budget)}")
            lines.append(f"{tag} cap {_decode_outcome(spec, SHEAR, 40, 2000)}")
        int2 = SPECS["int2"][0]()
        lines.append(f"int2 deep {_decode_outcome(int2, SHEAR, 17, 300)}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.DIGEST


class TestTableCache:
    def test_bounded_and_still_right(self):
        rng = random.Random(13)
        # more distinct representations than the cache holds, then the
        # first again, after it has been evicted
        schedules = [(F(2 + k), F(5 + k)) for k in range(_TABLE_CACHE_SIZE + 2)]
        for params in schedules + schedules[:1]:
            spec = make_representation(AB, tl_params=params)
            for _ in range(5):
                w = random_word(rng, AB, 6, min_len=0)
                K = _to_kernel(word_to_matrix(spec, w))
                assert _meet_in_middle(spec, K, 6) == list(w.signed)
                assert matrix_to_word(spec, word_to_matrix(spec, w), 6) == w
            assert matrix_to_word(spec, SHEAR, 6) is None
            assert _half_table.cache_info().currsize <= _TABLE_CACHE_SIZE
