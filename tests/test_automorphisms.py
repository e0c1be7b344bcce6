import functools
import hashlib
import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fgcrypt import (
    Alphabet,
    AutFamily,
    ElementaryMove,
    FactoredAutomorphism,
    Prg,
    Word,
    WhiteheadMove,
    apply_moves,
    canonical_minimal_basis,
    concat,
    derive_automorphism,
    format_automorphism,
    from_factors,
    generators,
    identity_automorphism,
    parse_automorphism,
    parse_moves,
    random_whitehead_automorphism,
)
from fgcrypt import automorphisms, words
from fgcrypt.automorphisms import _invert_factor, _mutually_inverse, _step
from fgcrypt.errors import (
    AlphabetMismatchError,
    CapExceededError,
    IllegalMoveError,
    NotRegularError,
    PreconditionError,
    WordSyntaxError,
)
from fgcrypt.nielsen import GeneratingTuple

from conftest import random_word

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
ABCD = Alphabet(("a", "b", "c", "d"))
X123 = Alphabet(("x1", "x2", "x3"))

DEMO_SEQ = "T1 3\nT2 1 4\nT2 4 3\nT2 2 3\nT1 3\nT2 1 4\nT2 3 1"
PUBKEY_SEQ = "T2 1 2\nT2 1 2\nT2 3 2\nT1 3\nT2 2 3"
OTP_DEMO = Path(__file__).parent / "fixtures" / "otp_demo"


def whitehead_moves(q):
    """Every Whitehead move at rank q: the q inversions, then for each
    multiplier every placement of the other generators into L, R, M or
    none that is not the identity map."""
    moves = [WhiteheadMove("INV", a) for a in range(1, q + 1)]
    for a in range(1, q + 1):
        rest = [x for x in range(1, q + 1) if x != a]
        for assignment in itertools.product(range(4), repeat=q - 1):
            L, R, M = (frozenset(r for r, where in zip(rest, assignment)
                                 if where == part) for part in range(3))
            if L or R or M:
                moves.append(WhiteheadMove("W", a, L, R, M | {a}))
    return moves


@functools.lru_cache(maxsize=None)
def factor_pool(q):
    """Every Whitehead move, T1 and T2 move at rank q."""
    pool = whitehead_moves(q) + [ElementaryMove("T1", i) for i in range(1, q + 1)]
    return pool + [ElementaryMove("T2", i, j) for i in range(1, q + 1)
                   for j in range(1, q + 1) if i != j]


def reference_step(images, factor, inverse=False):
    """Oracle: one fold step on Words, through the public ``concat`` and
    ``Word.inverse``, as the fold ran before it moved onto signed tuples."""
    out = list(images)
    if isinstance(factor, WhiteheadMove):
        x = images[factor.a - 1]
        if factor.kind == "INV":
            out[factor.a - 1] = x.inverse()
            return tuple(out)
        left, right = (x.inverse(), x) if inverse else (x, x.inverse())
        for b in factor.L:
            out[b - 1] = concat(left, images[b - 1])
        for b in factor.R:
            out[b - 1] = concat(images[b - 1], right)
        for b in factor.M - {factor.a}:
            out[b - 1] = concat(concat(left, images[b - 1]), right)
        return tuple(out)
    u = images[factor.i - 1]
    if factor.kind == "T1":
        out[factor.i - 1] = u.inverse()
    else:
        v = images[factor.j - 1]
        out[factor.i - 1] = concat(u, v.inverse() if inverse else v)
    return tuple(out)


def reference_fold(factors, alphabet, inverse=False):
    images = generators(alphabet)
    for factor in factors:
        images = reference_step(images, factor, inverse)
    return images


@st.composite
def factor_lists(draw):
    q = draw(st.integers(2, 4))
    fs = draw(st.lists(st.sampled_from(factor_pool(q)), max_size=14))
    return Alphabet(tuple("abcd"[:q])), fs


@st.composite
def regular_move_lists(draw):
    """A rank 2-4 alphabet and a list of its T1 and T2 moves."""
    q = draw(st.integers(2, 4))
    moves = [f for f in factor_pool(q) if isinstance(f, ElementaryMove)]
    return Alphabet(tuple("abcd"[:q])), draw(st.lists(st.sampled_from(moves),
                                                      max_size=14))


@st.composite
def lists_with_out_of_range_move(draw):
    """A regular move list with one T1 or T2 naming index q + 1 inserted;
    returns the alphabet, that move and the list."""
    alphabet, moves = draw(regular_move_lists())
    q, k = alphabet.rank, draw(st.integers(1, alphabet.rank))
    bad = draw(st.sampled_from([ElementaryMove("T1", q + 1),
                                ElementaryMove("T2", k, q + 1),
                                ElementaryMove("T2", q + 1, k)]))
    pos = draw(st.integers(0, len(moves)))
    return alphabet, bad, moves[:pos] + [bad] + moves[pos:]


class ScriptedPrg:
    """Deterministic stand-in yielding a fixed list of draws."""

    def __init__(self, values):
        self.values = list(values)

    def next(self):
        return self.values.pop(0)


class TestFromNielsen:
    def test_demo_images(self):
        f = from_factors(parse_moves(DEMO_SEQ), ABCD)
        assert [str(w) for w in f.images] == [
            "a d^2 c^-1", "b c^-1", "c a d^2 c^-1", "d c^-1"]

    def test_pubkey_demo_images(self):
        f = from_factors(parse_moves(PUBKEY_SEQ), X123)
        assert [str(w) for w in f.images] == ["x1 x2^2", "x3^-1", "x2^-1 x3^-1"]

    def test_empty_is_identity(self):
        f = from_factors([], ABCD)
        assert f.is_identity()

    def test_t3_rejected(self):
        with pytest.raises(NotRegularError):
            from_factors([ElementaryMove("T3", 1)], AB)


class TestFromWhitehead:
    def test_inversion(self):
        f = from_factors([WhiteheadMove("INV", 1)], AB)
        assert [str(w) for w in f.images] == ["a^-1", "b"]

    def test_multiplier(self):
        move = WhiteheadMove("W", 1, L=frozenset({2}), M=frozenset({1}))
        f = from_factors([move], AB)
        assert [str(w) for w in f.images] == ["a", "a b"]

    def test_inversion_involution(self):
        f = from_factors([WhiteheadMove("INV", 1)] * 2, AB)
        assert f.is_identity()

    def test_invariants(self):
        with pytest.raises(IllegalMoveError):
            WhiteheadMove("W", 1, M=frozenset({2}))  # a not in M
        with pytest.raises(IllegalMoveError):
            WhiteheadMove("W", 1, L=frozenset({1}), M=frozenset({1}))
        with pytest.raises(IllegalMoveError):
            WhiteheadMove("W", 1, L=frozenset({2}), R=frozenset({2}),
                          M=frozenset({1}))
        with pytest.raises(IllegalMoveError):
            WhiteheadMove("W", 1, M=frozenset({1}))  # identity map


class TestApply:
    def test_demo_unit(self):
        f = from_factors(parse_moves(DEMO_SEQ), ABCD)
        assert str(f.apply(ABCD.parse("d^2 c^-2"))) == \
            "d c^-1 d^-1 a^-1 d^-2 a^-1 c^-1"

    def test_identity_automorphism(self):
        w = ABCD.parse("b a^2 c")
        assert identity_automorphism(ABCD).apply(w) == w

    def test_fourth_unit(self):
        seq = "T2 3 1\nT2 3 1\nT1 2\nT2 2 1\nT2 2 1\nT2 2 1\nT2 2 4\nT2 4 2\nT2 1 3"
        f = from_factors(parse_moves(seq), ABCD)
        assert str(f.apply(ABCD.parse("c^2 b a"))) == \
            "c a^2 c a^2 b^-1 a^3 d a c a^2"

    def test_other_alphabet_refused(self):
        f = from_factors(parse_moves(PUBKEY_SEQ), X123)
        with pytest.raises(AlphabetMismatchError):
            f.apply(ABCD.parse("a"))
        with pytest.raises(AlphabetMismatchError):
            f.compose(identity_automorphism(ABCD))


class TestComposePower:
    def test_power7_first_image(self):
        f = from_factors(parse_moves(PUBKEY_SEQ), X123)
        x1, x2, x3 = generators(X123)
        expected = (x1 * x2 ** 2 * x3 ** -1 * x2 * (x2 * x3) ** 2
                    * (x3 * x2 * x3 ** 2 * x2) ** 2 * x3 * x2)
        assert f.power(7).images[0] == expected

    def test_power5_second_image(self):
        f = from_factors(parse_moves(PUBKEY_SEQ), X123)
        x1, x2, x3 = generators(X123)
        assert f.power(5).images[1] == \
            x2 ** -1 * (x3 ** -1 * x2 ** -1 * x3 ** -1) ** 2 * x3 ** -1

    def test_power_one(self):
        f = from_factors(parse_moves(PUBKEY_SEQ), X123)
        assert f.power(1).images == f.images

    def test_negative_power_refused(self):
        f = from_factors(parse_moves(PUBKEY_SEQ), X123)
        with pytest.raises(PreconditionError, match="n >= 0"):
            f.power(-1)

    def test_power_addition(self):
        f = from_factors(parse_moves(PUBKEY_SEQ), X123)
        for m, n in itertools.product(range(5), repeat=2):
            assert f.power(m + n).images == f.power(m).compose(f.power(n)).images

    def test_power_matches_compose_fold(self):
        # repeated squaring against the left fold ((f o f) o f) o ... of
        # compose: the pubkey demo up to n = 20, and seeded random maps at
        # ranks 2-4 up to n = 12, stopping once a power passes 50 000 letters
        rng = random.Random(19)
        cases = [(from_factors(parse_moves(PUBKEY_SEQ), X123), 20)]
        for _ in range(60):
            q = rng.randint(2, 4)
            factors = rng.choices(factor_pool(q), k=rng.randint(1, 4))
            cases.append((from_factors(factors, Alphabet(tuple("abcd"[:q]))), 12))
        for f, top in cases:
            fold = identity_automorphism(f.alphabet)
            for n in range(top + 1):
                assert f.power(n).images == fold.images, (f.factors, n)
                if sum(map(len, fold.images)) > 50_000:
                    break
                fold = fold.compose(f)

    def test_power_builds_q_words(self, monkeypatch):
        # the power loop composes coded images and stores them as codes,
        # so it builds no Word
        f = from_factors(parse_moves(PUBKEY_SEQ), X123)
        made = []
        make = Word._make.__func__

        def counting(cls, alphabet, codes):
            made.append(codes)
            return make(cls, alphabet, codes)

        monkeypatch.setattr(Word, "_make", classmethod(counting))
        for n in range(1, 8):
            made.clear()
            fn = f.power(n)
            assert len(made) == 0
            assert fn.factors == f.factors * n
        assert fn.images and len(made) == X123.rank
        zero = f.power(0)
        assert zero == identity_automorphism(X123)
        assert zero.factors == () and zero.is_identity()

    def test_compose_order(self):
        # (f o g)(w) = f(g(w))
        f = from_factors([ElementaryMove("T2", 1, 2)], AB)
        g = from_factors([ElementaryMove("T1", 1)], AB)
        w = AB.parse("a")
        assert f.compose(g).apply(w) == f.apply(g.apply(w))


class TestSizeCap:
    # the Fibonacci map a -> ab, b -> a: image lengths grow by the golden ratio
    FIBONACCI = "T2 1 2\nT1 1\nT2 2 1\nT1 1\nT1 2"

    def test_fibonacci_images(self):
        f = parse_automorphism(self.FIBONACCI, AB)
        assert [str(w) for w in f.images] == ["a b", "a"]
        assert [len(w) for w in f.power(20).images] == [17711, 10946]

    def test_power_raises_past_word_cap(self):
        f = parse_automorphism(self.FIBONACCI, AB)
        with pytest.raises(CapExceededError, match="more than 16777216"):
            f.power(60)

    @pytest.mark.parametrize("how", ["power", "compose", "square"])
    def test_overshoot_is_at_most_one_image(self, how, monkeypatch):
        # x_i -> x_i x_(i+1) roughly doubles every image per power; with the
        # cap at the size of f^6, all of f^7 would overshoot it by 585 letters.
        # power(7) ends on f^4 o f^3, power(8) on the square f^4 o f^4
        f = from_factors(parse_moves("T2 1 2\nT2 2 3\nT2 3 4\nT2 4 1"), ABCD)
        f6 = f.power(6)
        cap = sum(map(len, f6.images))
        longest = max(map(len, f.power(7).images))
        monkeypatch.setattr(automorphisms, "_MAX_LETTERS", cap)
        build = {"power": lambda: f.power(7), "compose": lambda: f.compose(f6),
                 "square": lambda: f.power(8)}[how]
        with pytest.raises(CapExceededError) as err:
            build()
        total = int(re.search(r"total (\d+) letters", str(err.value)).group(1))
        assert cap < total <= cap + longest

    def test_power_caps_its_factor_list(self, monkeypatch):
        # f^n carries len(f.factors) * n factors; past the cap it is refused
        # before any composition, while a factor-free map of the same images
        # has no list to grow
        f = parse_automorphism("T1 1", AB)
        bare = FactoredAutomorphism(AB, (), f.images)
        monkeypatch.setattr(automorphisms, "_MAX_LETTERS", 10)
        assert len(f.power(10).factors) == 10
        assert bare.power(10 ** 6).is_identity()
        assert bare.power(10 ** 6 + 1).images == f.images

        def refuse(*args):
            raise AssertionError("composed a refused power")
        monkeypatch.setattr(automorphisms, "_compose_codes", refuse)
        with pytest.raises(CapExceededError,
                           match="power has 11 factors, more than 10"):
            f.power(11)

    def test_apply_overshoot_is_at_most_one_image(self, monkeypatch):
        f = from_factors(parse_moves("T2 1 2\nT2 2 3\nT2 3 4\nT2 4 1"),
                         ABCD).power(3)
        w = ABCD.parse("a b^-1 c d") ** 20
        size = len(f.apply(w))
        longest = max(map(len, f.images))
        monkeypatch.setattr(automorphisms, "_MAX_LETTERS", size)
        assert len(f.apply(w)) == size
        monkeypatch.setattr(automorphisms, "_MAX_LETTERS", size - 1)
        with pytest.raises(CapExceededError) as err:
            f.apply(w)
        assert str(err.value).startswith("image has ")
        monkeypatch.setattr(automorphisms, "_MAX_LETTERS", size // 3)
        with pytest.raises(CapExceededError) as err:
            f.apply(w)
        got = int(re.search(r"image has (\d+) letters", str(err.value)).group(1))
        assert size // 3 < got <= size // 3 + longest

    def test_apply_cap_counts_reduced_letters(self, monkeypatch):
        # f: a -> a b^5 sends (a b^-5)^30, 330 letters before free
        # reduction, to a^30
        f = from_factors(parse_moves("T2 1 2\n" * 5), AB)
        w = AB.parse("a b^-5") ** 30
        monkeypatch.setattr(automorphisms, "_MAX_LETTERS", 40)
        assert f.apply(w) == AB.parse("a^30")

    def test_apply_skips_the_running_check_under_the_cap(self, monkeypatch):
        f = from_factors(parse_moves(DEMO_SEQ), ABCD).power(4)
        w = ABCD.parse("d c^-1 d^-1 a^-1 d^-2 a^-1 c^-1") ** 5

        def refuse(*args):
            raise AssertionError("running check on a small image")
        expected = f.apply(w)
        monkeypatch.setattr(words, "_capped", refuse)
        assert f.apply(w) == expected


class TestInverse:
    def test_identity(self):
        assert identity_automorphism(AB).inverse().is_identity()

    def test_demo_decryption(self):
        f = from_factors(parse_moves(DEMO_SEQ), ABCD)
        unit = ABCD.parse("d c^-1 d^-1 a^-1 d^-2 a^-1 c^-1")
        assert str(f.inverse().apply(unit)) == "d^2 c^-2"

    def test_double_inverse(self):
        f = from_factors(parse_moves(DEMO_SEQ), ABCD)
        assert f.inverse().inverse().images == f.images

    def test_whitehead_conjugation_identity_exhaustive_rank3(self):
        # over all 45 non-identity multiplier moves at rank 3:
        # images of [INV a, W, INV a] match images of inverse([W])
        count = 0
        for move in whitehead_moves(3):
            if move.kind != "W":
                continue
            ia = WhiteheadMove("INV", move.a)
            lhs = from_factors([ia, move, ia], ABC)
            rhs = from_factors([move], ABC).inverse()
            assert lhs.images == rhs.images
            assert from_factors([move], ABC).compose(rhs).is_identity()
            count += 1
        assert count == 45

    @staticmethod
    def agreement_samples():
        """Derived automorphisms (rank 2-4, m = 64 and m = 128 with high
        index bits), the T1/T2 demo and fixture automorphisms, and random
        T1/T2 and mixed factor lists."""
        for q, m, base in ((2, 64, 0), (3, 64, 0), (4, 64, 0),
                           (4, 128, 0xDEADBEEF << 64)):
            fam = AutFamily(0x5EED + q, Alphabet(tuple("abcd"[:q])), m)
            for i in range(25):
                yield derive_automorphism(fam, base | i)
        yield from_factors(parse_moves(DEMO_SEQ), ABCD)
        yield from_factors(parse_moves(PUBKEY_SEQ), X123)
        for i in range(1, 9):
            yield parse_automorphism((OTP_DEMO / f"aut{i}.txt").read_text(), ABCD)
        rng = random.Random(13)
        for _ in range(40):
            q = rng.randint(2, 4)
            alphabet = Alphabet(tuple("abcd"[:q]))
            pool = [ElementaryMove("T1", i) for i in range(1, q + 1)]
            pool += [ElementaryMove("T2", i, j) for i in range(1, q + 1)
                     for j in range(1, q + 1) if i != j]
            if rng.random() < 0.5:
                pool += whitehead_moves(q)
            yield from_factors(rng.choices(pool, k=rng.randint(1, 12)), alphabet)

    def test_inverse_images_match_refolded_factors(self):
        # the inverse's images are folded from self.factors; refolding its
        # longer factor list forward must give the same words
        count = 0
        for f in self.agreement_samples():
            inv = f.inverse()
            assert inv.images == from_factors(inv.factors, f.alphabet).images
            assert f.compose(inv).is_identity()
            assert inv.compose(f).is_identity()
            count += 1
        assert count == 150

    def test_random_round_trip(self):
        rng = random.Random(8)
        for _ in range(80):
            q = rng.randint(2, 3)
            alphabet = Alphabet(tuple("abc"[:q]))
            f = random_whitehead_automorphism(
                ScriptedPrg([rng.getrandbits(32) for _ in range(4000)]),
                alphabet, length=rng.randint(1, 10))
            w = random_word(rng, alphabet, 12, min_len=0)
            assert f.inverse().apply(f.apply(w)) == w
            assert f.apply(f.inverse().apply(w)) == w

    def test_homomorphism(self):
        rng = random.Random(9)
        f = from_factors(parse_moves(DEMO_SEQ), ABCD)
        for _ in range(40):
            u = random_word(rng, ABCD, 8, min_len=0)
            v = random_word(rng, ABCD, 8, min_len=0)
            assert f.apply(concat(u, v)) == concat(f.apply(u), f.apply(v))

    def test_basis_preservation(self):
        rng = random.Random(10)
        gens = generators(ABC)
        for _ in range(25):
            f = random_whitehead_automorphism(
                ScriptedPrg([rng.getrandbits(32) for _ in range(4000)]), ABC)
            canon = canonical_minimal_basis(GeneratingTuple(ABC, f.images))
            assert canon.elements == gens


class TestSignedFold:
    @given(factor_lists())
    def test_matches_word_fold(self, case):
        alphabet, fs = case
        f = from_factors(fs, alphabet)
        assert f.images == reference_fold(fs, alphabet)
        assert f.inverse().images == reference_fold(reversed(fs), alphabet,
                                                    inverse=True)

    def test_single_step_exhaustive_rank3(self):
        # every Whitehead move, forward and inverse, from the basis and from
        # images whose letters cancel against the multiplier's; the inverse
        # steps through the move's factor-wise inverse list
        starts = [generators(ABC),
                  tuple(ABC.parse(t) for t in ("a b c^-1", "a^-1 b", "c a^-1")),
                  tuple(ABC.parse(t) for t in ("b^-1 a", "a^2 b", "b a^-1 c"))]
        count = 0
        for move in whitehead_moves(3):
            for start in starts:
                for inverse in (False, True):
                    codes = [w.codes for w in start]
                    for factor in _invert_factor(move) if inverse else [move]:
                        _step(codes, factor)
                    expected = reference_step(start, move, inverse)
                    assert codes == [w.codes for w in expected], (move, inverse)
                    count += 1
        assert count == 48 * 3 * 2

    @given(st.integers(2, 4).flatmap(lambda q: st.tuples(
        st.just(q), st.sampled_from(factor_pool(q)))))
    def test_factor_wise_inverse_cancels(self, case):
        q, f = case
        alphabet = Alphabet(tuple("abcd"[:q]))
        assert from_factors([f, *_invert_factor(f)], alphabet).is_identity()
        assert from_factors([*_invert_factor(f), f], alphabet).is_identity()

    def test_one_word_per_image(self, monkeypatch):
        # the fold works on code strings and a map stores its images as
        # codes: sampling a map and inverting it build no Word
        made = []
        make = Word._make.__func__

        def counting(cls, alphabet, codes):
            made.append(codes)
            return make(cls, alphabet, codes)

        monkeypatch.setattr(Word, "_make", classmethod(counting))
        fam = AutFamily(0x5EED, ABCD, 64)
        for index in range(8):
            made.clear()
            f = derive_automorphism(fam, index)
            assert len(made) == 0
            g = f.inverse()
            assert len(made) == 0
            assert g.images and len(made) == 4  # read, the q images are built


class TestSampler:
    def test_single_zero_bit_trace(self):
        # one factor, bit 0, z-draw 0 -> INV of the first generator
        f = random_whitehead_automorphism(ScriptedPrg([0, 0]), AB, length=1)
        assert f.factors == (WhiteheadMove("INV", 1),)

    def test_identity_avoidance_path(self):
        # bit 1, z -> a = x1, z1 = z2 = z3 = 0 forces the extra assignment
        f = random_whitehead_automorphism(
            ScriptedPrg([1, 0, 0, 0, 0, 0, 0]), AB, length=1)
        (move,) = f.factors
        assert move.kind == "W" and move.a == 1
        assert move.L == frozenset({2}) and not move.R and move.M == frozenset({1})
        assert not f.is_identity()

    def test_never_identity(self):
        rng = random.Random(12)
        for _ in range(60):
            f = random_whitehead_automorphism(
                ScriptedPrg([rng.getrandbits(32) for _ in range(4000)]), AB)
            assert not f.is_identity()

    def test_rank_one_rejected(self):
        with pytest.raises(PreconditionError):
            random_whitehead_automorphism(ScriptedPrg([0, 0]), Alphabet(("a",)))

    @pytest.mark.parametrize("q, pairs", [(2, 64), (3, 2304), (4, 65536)])
    def test_cancel_test_matches_fold_exhaustive(self, q, pairs):
        # the sampler's structural cancel test against the two-factor fold
        alphabet = Alphabet(tuple("abcd"[:q]))
        count = 0
        for prev, new in itertools.product(whitehead_moves(q), repeat=2):
            folded = from_factors((prev, new), alphabet).is_identity()
            assert _mutually_inverse(prev, new) == folded, (prev, new)
            count += 1
        assert count == pairs

    def test_default_length_policy(self):
        # first draw fixes the factor count at 4 + (v mod 13)
        values = [3] + [17] * 4000
        f = random_whitehead_automorphism(ScriptedPrg(values), ABC)
        assert len(f.factors) == 7

    # sha256 over the maps drawn one after another from one Prg(7) at the
    # default length: each map's factor list and images, then the final
    # generator state.  A fresh Prg per map (as in the keystream goldens)
    # cannot see an extra or a missing trailing draw.  The rank 2 maps here
    # redraw an identity composite's last factor 38 times, in 21 maps.
    @pytest.mark.parametrize("alphabet, maps, digest", [
        (AB, 2000,
         "b0a8c29890f7aeacd48ba417b370289dcf1856de725fcda9e5b01a0d956b0791"),
        (ABCD, 500,
         "7aa0a25d1d169a559012f7e4792e37d652655e52568bf5dda15a834c1950b609"),
    ], ids=["rank2", "rank4"])
    def test_golden_sequential_draws(self, alphabet, maps, digest):
        prg = Prg(7)
        h = hashlib.sha256()
        for _ in range(maps):
            f = random_whitehead_automorphism(prg, alphabet)
            h.update(format_automorphism(f).encode())
            for w in f.images:
                h.update(b"\n" + str(w).encode())
            h.update(b"\n\n")
        h.update(str(prg.state).encode())
        assert h.hexdigest() == digest

    def test_one_factor_built_per_multiplier(self, monkeypatch):
        # inversions are shared constants: deriving a map builds each of its
        # multiplier factors once and no inversion, and inverting it builds
        # no factor
        made = []
        make = WhiteheadMove._make.__func__

        def counting(cls, *values):
            made.append(values[0])
            return make(cls, *values)

        monkeypatch.setattr(WhiteheadMove, "_make", classmethod(counting))
        fam = AutFamily(0x5EED, ABCD, 64)
        for index in range(8):
            made.clear()
            f = derive_automorphism(fam, index)
            kinds = [factor.kind for factor in f.factors]
            assert "INV" in kinds and "W" in kinds
            assert made == ["W"] * kinds.count("W")
            made.clear()
            f.inverse()
            assert made == []


class TestTrustedFactors:
    """The sampler and the factor inverse build Whitehead factors through
    ``WhiteheadMove._make``, skipping the checks of ``__init__``: every such factor
    must be one the validating constructor accepts and equals."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
    def test_drawn_and_inverted_factors_validate(self, q):
        alphabet = Alphabet(tuple("abcdef"[:q]))
        fam = AutFamily(0x7E57 + q, alphabet, 64)
        seen = 0
        for index in range(300):
            f = derive_automorphism(fam, index)
            for factor in f.factors + f.inverse().factors:
                assert all(type(getattr(factor, part)) is frozenset
                           for part in "LRM")
                rebuilt = WhiteheadMove(factor.kind, factor.a,
                                        factor.L, factor.R, factor.M)
                assert rebuilt == factor and hash(rebuilt) == hash(factor)
                seen += 1
        assert seen >= 300 * 8  # at least 4 factors each way per member

    def test_no_validation_on_the_trusted_path(self, monkeypatch):
        validated = []
        init = WhiteheadMove.__init__

        def counting(self, *args):
            validated.append(args)
            init(self, *args)

        monkeypatch.setattr(WhiteheadMove, "__init__", counting)
        for q in (2, 4, 6):
            fam = AutFamily(0x5EED, Alphabet(tuple("abcdef"[:q])), 64)
            for index in range(40):
                derive_automorphism(fam, index).inverse()
        assert validated == []
        WhiteheadMove("INV", 1)
        assert len(validated) == 1


class TestMoveEngine:
    """Tuple moves and the automorphism fold share one move engine: moving
    the generators gives the automorphism's images, and moving them by the
    inverse's factors gives the inverse's images."""

    @given(regular_move_lists())
    def test_tuple_moves_are_automorphism_images(self, case):
        alphabet, moves = case
        start = GeneratingTuple(alphabet, generators(alphabet))
        f = from_factors(moves, alphabet)
        moved = apply_moves(start, moves)
        assert moved.elements == f.images
        inv = f.inverse()
        assert apply_moves(start, inv.factors).elements == inv.images
        assert apply_moves(moved, inv.factors).elements == generators(alphabet)

    @given(lists_with_out_of_range_move())
    def test_out_of_range_move_raises_everywhere(self, case):
        alphabet, bad, moves = case
        start = GeneratingTuple(alphabet, generators(alphabet))
        with pytest.raises(IllegalMoveError):
            apply_moves(start, [bad])
        with pytest.raises(IllegalMoveError):
            apply_moves(start, moves)
        with pytest.raises(IllegalMoveError):
            from_factors(moves, alphabet)
        built = FactoredAutomorphism(alphabet, tuple(moves), generators(alphabet))
        with pytest.raises(IllegalMoveError):
            built.inverse()


class TestFactorErrors:
    @pytest.mark.parametrize("factor", [
        WhiteheadMove("INV", 3),
        WhiteheadMove("W", 3, L={1}, M={3}),
        WhiteheadMove("W", 1, R={3}, M={1}),
        WhiteheadMove("W", 1, L={2}, M={1, 3}),
        ElementaryMove("T1", 3),
        ElementaryMove("T2", 1, 3),
        ElementaryMove("T2", 3, 1),
        WhiteheadMove("W", 1, L={0}, M={1}),
        WhiteheadMove("W", 1, L={-1}, M={1}),
        WhiteheadMove("W", 2, R={0}, M={2}),
        WhiteheadMove("W", 1, M={1, 0}),
    ], ids=repr)
    def test_out_of_range_factor(self, factor):
        with pytest.raises(IllegalMoveError):
            from_factors([ElementaryMove("T1", 1), factor], AB)
        built = FactoredAutomorphism(AB, (factor, ElementaryMove("T1", 1)),
                                     generators(AB))
        with pytest.raises(IllegalMoveError):
            built.inverse()

    def test_t3_singular_in_fold_and_inverse(self):
        t3 = ElementaryMove("T3", 1)
        with pytest.raises(NotRegularError):
            from_factors([ElementaryMove("T1", 2), t3], AB)
        built = FactoredAutomorphism(AB, (t3,), generators(AB))
        with pytest.raises(NotRegularError):
            built.inverse()


class TestText:
    def test_round_trip_mixed(self):
        f = from_factors(
            [ElementaryMove("T2", 1, 2),
             WhiteheadMove("INV", 3),
             WhiteheadMove("W", 2, L=frozenset({1}), R=frozenset({4}),
                           M=frozenset({2, 3})),
             ElementaryMove("T1", 4)],
            ABCD)
        text = format_automorphism(f)
        assert parse_automorphism(text, ABCD).images == f.images
        assert "W b ; L = a ; R = d ; M = b c" in text

    @pytest.mark.parametrize("text", ["T1 x", "T2 1", "T2 1 1", "T1 0", "T4 1",
                                      "W a ; L = b", "INV", "T2 1_0 2",
                                      "T1 \u0663", "T2 1 \u0662"])
    def test_malformed_lines(self, text):
        with pytest.raises(WordSyntaxError):
            parse_automorphism(text, ABCD)

    def test_t3_line_rejected_as_singular(self):
        with pytest.raises(NotRegularError):
            parse_automorphism("T1 2\nT3 1", ABCD)

    def test_comments_and_blank_lines_skipped(self):
        f = parse_automorphism("# demo\n\n" + DEMO_SEQ + "\n", ABCD)
        assert f.factors == tuple(parse_moves(DEMO_SEQ))

    def test_parse_demo(self):
        f = parse_automorphism(DEMO_SEQ, ABCD)
        assert str(f.apply(ABCD.parse("d^2 c^-2"))) == \
            "d c^-1 d^-1 a^-1 d^-2 a^-1 c^-1"
