import re
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from fgcrypt import (
    Alphabet,
    Word,
    compare_words,
    concat,
    format_word,
    generators,
    parse_word,
    words,
)
from fgcrypt.errors import (
    AlphabetMismatchError,
    CapExceededError,
    InvalidLetterError,
    PreconditionError,
    WordSyntaxError,
)
from fgcrypt.pubkey import parse_params_file

AB = Alphabet(("a", "b"))
DEMO = Path(__file__).parent / "fixtures" / "pubkey_demo"
ABCD = Alphabet(("a", "b", "c", "d"))


def letters_strategy(q=2, max_len=16):
    return st.lists(
        st.integers(min_value=-q, max_value=q).filter(lambda x: x != 0),
        max_size=max_len)


def words_strategy(alphabet=AB, max_len=12):
    return letters_strategy(alphabet.rank, max_len).map(
        lambda ls: Word(alphabet, ls))


class TestAlphabet:
    def test_basic(self):
        assert ABCD.rank == 4
        assert ABCD.index("c") == 3
        assert str(ABCD.generator(2)) == "b"

    @pytest.mark.parametrize("names", [
        (), ("a", "a"), ("a", ""), ("a", "x y"), ("a", "b^"), ("a", "b|c"),
        ("a", "12"), ("a", "b=c"), ("a", "b;c"),
    ])
    def test_invalid_names(self, names):
        with pytest.raises(ValueError):
            Alphabet(names)

    def test_invalid_names_are_precondition_errors(self):
        with pytest.raises(PreconditionError):
            Alphabet(("a", "a"))

    def test_unknown_generator(self):
        with pytest.raises(InvalidLetterError):
            ABCD.index("e")

    def test_rank_limit(self):
        # a letter is one byte, code 2i-2 for x_i and 2i-1 for x_i^-1, so an
        # alphabet holds 128 generators at most
        names = tuple(f"x{i}" for i in range(1, 130))
        top = Alphabet(names[:128])
        assert top.rank == 128
        assert top.generator(128).inverse().codes == b"\xff"
        assert str(top.parse("x128^-2 x1")) == "x128^-2 x1"
        with pytest.raises(PreconditionError, match="1 to 128 generators"):
            Alphabet(names)

    def test_derived_index_leaves_value_semantics(self):
        # the name -> index map is derived, so equality, hashing and repr
        # see the names alone
        assert Alphabet(["a", "b"]) == AB
        assert hash(Alphabet(["a", "b"])) == hash(AB) == hash((AB.names,))
        assert AB != Alphabet(("b", "a"))
        assert repr(AB) == "Alphabet(names=('a', 'b'))"
        assert [ABCD.index(n) for n in ABCD.names] == [1, 2, 3, 4]


class TestSignedKernel:
    @given(words_strategy(ABCD), words_strategy(ABCD), words_strategy(ABCD))
    def test_helpers_agree_with_word(self, u, v, w):
        # u w . w^-1 v cancels at least |w| letters at the seam
        a, b = concat(u, w).codes, concat(w.inverse(), v).codes
        for x, y in ((u.codes, v.codes), (a, b)):
            product = words._concat_codes(x, y)
            assert product == words._reduce_codes(x + y)
        assert words._concat_codes(u.codes, v.codes) == concat(u, v).codes
        inverse = words._invert_codes(u.codes)
        assert inverse == words._reduce_codes([c ^ 1 for c in reversed(u.codes)])
        assert inverse == u.inverse().codes


class TestFreeReduce:
    def test_full_cancellation(self):
        w = Word(AB, [1, -1])
        assert w.is_identity()
        assert format_word(w) == "1"

    def test_composite_unit(self):
        # d c^-1 d c^-1 . (c d^-2 a^-1 c^-1) . (c d^-2 a^-1 c^-1)
        raw = ([4, -3, 4, -3] + [3, -4, -4, -1, -3] * 2)
        w = Word(ABCD, raw)
        assert format_word(w) == "d c^-1 d^-1 a^-1 d^-2 a^-1 c^-1"

    def test_already_reduced(self):
        w = Word(AB, [2, 1, 1, -2])
        assert w.signed == (2, 1, 1, -2)

    def test_out_of_range(self):
        with pytest.raises(InvalidLetterError):
            Word(AB, [3])

    @pytest.mark.parametrize("raw", [[3, -3], [1, 7, -7], [-3, 3, 2]])
    def test_out_of_range_checked_before_reduction(self, raw):
        # letters that would cancel are still not letters of the alphabet
        with pytest.raises(InvalidLetterError):
            Word(AB, raw)

    @pytest.mark.parametrize("letter", [0, "a", 1.0, None])
    def test_non_letters_rejected(self, letter):
        with pytest.raises(InvalidLetterError):
            Word(AB, [1, letter])

    @given(letters_strategy())
    def test_idempotent(self, raw):
        once = Word(AB, raw)
        assert Word(AB, once.signed) == once

    @given(letters_strategy())
    def test_parity_and_shrink(self, raw):
        w = Word(AB, raw)
        assert len(w) <= len(raw)
        assert (len(w) - len(raw)) % 2 == 0


class TestArithmetic:
    def test_concat_cancel(self):
        assert str(concat(AB.parse("a b"), AB.parse("b^-1 a"))) == "a^2"

    def test_concat_inverse_law(self):
        w = ABCD.parse("b a^2 c d^-1")
        assert concat(w, w.inverse()).is_identity()

    def test_concat_no_cancel(self):
        u = ABCD.parse("b a^2")
        v = ABCD.parse("c d")
        assert str(concat(u, v)) == "b a^2 c d"

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            concat(AB.parse("a"), ABCD.parse("a"))

    def test_invert(self):
        assert str(AB.parse("b a^2").inverse()) == "a^-2 b^-1"
        assert AB.parse("1").inverse().is_identity()
        assert str(ABCD.parse("d^2 c^-2").inverse()) == "c^2 d^-2"

    def test_pow(self):
        a, b = generators(AB)
        assert str((a * b) ** 3) == "a b a b a b"
        assert (a * b) ** 0 == AB.identity()
        assert (a * b) ** -1 == (a * b).inverse()

    def test_pow_cap_counts_reduced_letters(self, monkeypatch):
        monkeypatch.setattr(words, "_MAX_LETTERS", 100)
        with pytest.raises(CapExceededError, match="image has 102 letters"):
            AB.parse("a b") ** 51
        # a b^98 a^-1: 294 letters before free reduction, 100 after
        assert AB.parse("a b a^-1") ** 98 == AB.parse("a b^98 a^-1")
        # the letters are fed lazily: a refused power allocates no n entries
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                AB.parse("a b") ** 10 ** 6
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n", [10 ** 20, -2 ** 63])
    def test_power_past_the_cap_refused_at_once(self, n):
        # |w^n| >= |n| for w != 1; itertools.repeat cannot even count to n
        with pytest.raises(CapExceededError, match="> 16777216 letters"):
            AB.parse("a") ** n

    def test_identity_power_returns_at_once(self):
        # n empty substitutions would take hours; the identity is its own power
        start = time.perf_counter()
        assert AB.identity() ** 10 ** 18 == AB.identity()
        assert AB.identity() ** -10 ** 18 == AB.identity()
        assert time.perf_counter() - start < 0.5

    @given(words_strategy(), words_strategy())
    def test_concat_parity(self, u, v):
        assert (len(concat(u, v)) - len(u) - len(v)) % 2 == 0

    @given(words_strategy(), words_strategy(), words_strategy())
    def test_associative(self, u, v, w):
        assert concat(concat(u, v), w) == concat(u, concat(v, w))

    @given(words_strategy())
    def test_involution(self, w):
        assert w.inverse().inverse() == w
        assert len(w.inverse()) == len(w)


class TestKernel:
    """The code kernel against letter-by-letter reduction."""

    @staticmethod
    def written_out(images, letters):
        out = []
        for c in letters:
            image = images[c >> 1]
            out.extend(words._invert_codes(image) if c & 1 else image)
        return out

    @given(st.lists(words_strategy(), min_size=1, max_size=3),
           st.lists(st.tuples(st.integers(0, 6), st.booleans()), max_size=12))
    def test_substitute_matches_letter_reduction(self, base, picks):
        # inverse images and products of two images let a cancellation run
        # through a whole image into the ones before it
        images = [u.codes for u in base]
        images += [words._invert_codes(u) for u in images]
        images.append(words._concat_codes(images[0], images[-1]))
        letters = [2 * (p % len(images)) + neg for p, neg in picks]
        got = words._substitute(images, letters)
        assert got == words._reduce_codes(self.written_out(images, letters))

    def test_running_check_needs_a_length_hint_to_skip(self, monkeypatch):
        # letters that give no length hint may be any number: always checked
        calls = []
        capped = words._capped

        def record(*args):
            calls.append(args)
            return capped(*args)
        monkeypatch.setattr(words, "_capped", record)
        assert words._substitute([b"\0\2"], [0, 0], 10) == b"\0\2\0\2"
        assert not calls
        letters = (c for c in [0, 0])  # a generator gives no hint
        assert words._substitute([b"\0\2"], letters, 10) == b"\0\2\0\2"
        assert len(calls) == 1

    def test_cancellation_across_images(self):
        images = [AB.parse(w).codes for w in ("a b", "b^-1", "a^-1 b a")]
        assert words._substitute(images, [0, 2, 4]) == b"\2\0"
        assert words._substitute(images, [0, 2, 4, 5, 3, 1]) == b""

    @given(words_strategy(alphabet=ABCD))
    def test_pow_matches_concat_fold(self, w):
        for n in range(-6, 7):
            step = w if n >= 0 else w.inverse()
            fold = ABCD.identity()
            for _ in range(abs(n)):
                fold = concat(fold, step)
            assert w ** n == fold

    @given(words_strategy(), words_strategy())
    def test_seam_counts_cancelled_letters(self, u, v):
        c = words._seam(u.codes, v.codes)
        assert len(concat(u, v)) == len(u) + len(v) - 2 * c


class TestOrder:
    def test_shorter_first(self):
        assert compare_words(AB.parse("a"), AB.parse("a b")) < 0

    def test_sign_order(self):
        assert compare_words(AB.parse("a"), AB.parse("a^-1")) < 0
        assert AB.parse("a^-1") < AB.parse("b")

    def test_equal(self):
        assert compare_words(AB.parse("a b"), AB.parse("a b")) == 0

    @given(words_strategy(), words_strategy(), words_strategy())
    def test_total_order(self, u, v, w):
        # antisymmetric, transitive, total
        cu, cv = compare_words(u, v), compare_words(v, u)
        assert cu == -cv
        assert (cu == 0) == (u == v)
        if u <= v and v <= w:
            assert u <= w


class TestText:
    def test_demo_unit_round_trip(self):
        text = "d c^-1 d^-1 a^-1 d^-2 a^-1 c^-1"
        assert format_word(parse_word(text, ABCD)) == text

    def test_identity(self):
        assert format_word(parse_word("1", ABCD)) == "1"

    def test_power_unit(self):
        w = parse_word("a^3", AB)
        assert w.signed == (1, 1, 1)
        assert format_word(w) == "a^3"

    def test_unknown_name_position(self):
        with pytest.raises(WordSyntaxError) as err:
            parse_word("a q^2", AB)
        assert err.value.position == 2

    @pytest.mark.parametrize("bad", ["", "a^0", "a^x", "1 a", "a 1",
                                     "a^1_0", "b a^-1_0", "a^\u0663",
                                     "a^\uff13", "a^ 2", "a^+-2", "a^",
                                     "a^" + "9" * 5000])
    def test_syntax_errors(self, bad):
        with pytest.raises(WordSyntaxError):
            parse_word(bad, AB)

    def test_unreduced_input_is_reduced(self):
        assert parse_word("a a^-1 b", AB) == AB.parse("b")

    def test_letter_cap(self, monkeypatch):
        monkeypatch.setattr(words, "_MAX_LETTERS", 10)
        assert len(parse_word("a^4 b^-6", AB)) == 10
        # the cap counts letters as spelled, before free reduction
        for bad in ("a^11", "a^5 b^6", "a^6 a^-5"):
            with pytest.raises(CapExceededError):
                parse_word(bad, AB)

    def test_huge_exponent_refused_before_expanding(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                parse_word("a b^-3 a^999999999", AB)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @given(words_strategy(alphabet=ABCD))
    def test_round_trip(self, w):
        assert parse_word(format_word(w), ABCD) == w


def reference_parse(text, alphabet):
    """The letter-list parser: expand every unit, then reduce the list."""
    tokens = list(words._TOKEN.finditer(text))
    if not tokens:
        raise WordSyntaxError("empty word text; identity is spelled '1'")
    if len(tokens) == 1 and tokens[0].group() == "1":
        return Word(alphabet, ())
    signed = []
    for tok in tokens:
        unit = tok.group()
        pos = tok.start()
        if unit == "1":
            raise WordSyntaxError("'1' cannot be mixed with other units", pos)
        name, sep, exp_text = unit.partition("^")
        try:
            idx = alphabet.index(name)
        except InvalidLetterError:
            raise WordSyntaxError(f"unknown generator {name!r}", pos) from None
        if sep:
            try:
                exp = int(exp_text)
            except ValueError:
                raise WordSyntaxError(f"bad exponent {exp_text!r}", pos) from None
            if exp == 0:
                raise WordSyntaxError("exponent must be nonzero", pos)
        else:
            exp = 1
        if len(signed) + abs(exp) > words._MAX_LETTERS:
            raise CapExceededError(
                f"word text spells more than {words._MAX_LETTERS} letters "
                f"(at position {pos})")
        signed.extend([idx if exp > 0 else -idx] * abs(exp))
    return Word(alphabet, signed)


SPACES = st.sampled_from([" ", "  ", "\t", "\n", "\u2003", "\x1c", " \u3000"])
UNITS = st.tuples(st.sampled_from(ABCD.names),
                  st.one_of(st.none(), st.integers(-6, 6).filter(bool)))


# exponent texts: small and large counts of both signs, zero, and texts
# that are not integers (each read alike by int() and the parser)
EXPONENTS = st.one_of(
    st.none(), st.integers(-40, 40).map(str),
    st.sampled_from(["+3", "00", "-0", "x", "", "-", "+-2", "2^3"]))
MIXED_UNITS = st.tuples(st.sampled_from(ABCD.names + ("q", "1")), EXPONENTS)


class TestParserOracle:
    """The one-pass parser against the letter-list reference."""

    def test_split_agrees_with_token_pattern(self):
        # the parser splits with str.split(); positions come from _TOKEN
        every = "".join(map(chr, range(0x110000)))
        assert every.split() == words._TOKEN.findall(every)
        for sep in ("\u2003", "\x1c", "\x85", "\u3000"):
            assert sep.isspace() and re.fullmatch(r"\s", sep)

    @given(st.lists(st.tuples(UNITS, SPACES), min_size=1, max_size=40),
           SPACES, st.booleans())
    @example([(("a", 5), " "), (("a", -3), " "), (("b", None), " "),
              (("b", -1), " "), (("a", -2), " ")], " ", False)
    def test_same_word(self, units, lead, pad):
        text = (lead if pad else "") + "".join(
            (name if exp is None else f"{name}^{exp}") + sep
            for (name, exp), sep in units)
        assert parse_word(text, ABCD) == reference_parse(text, ABCD)

    def test_cancellation_across_units(self):
        assert parse_word("a^5 a^-3 b b^-1 a^-2", ABCD).is_identity()
        assert parse_word("a b^2 b^-3 a^-1", ABCD) == ABCD.parse("a b^-1 a^-1")

    @pytest.mark.parametrize("text", [
        "", " \u2003\x1c ",                 # empty
        "1 a", "a\u20031", "a^2 1",         # '1' mixed with units
        "a q^2", "a\x1cq", "a 1^2",         # unknown name
        "a^x", "b\u2003a^", "a a^2^3",      # bad exponent
        "a b^0", "b\x1ca^-0",               # zero exponent
        "a^6 b a^-5", "b\u2003" * 11,       # past a cap of 10 letters
        "a^3 " * 4, "b a^99999999999999999999",  # a repeat, a huge unit
        "a^11 q", "a^6 b^5 q",              # cap crossed before a bad unit
        "q a^11", "a^6 q b^5",              # bad unit before a crossing
        "a^3 b a^3 a^3 q",                  # exactly at the cap, then q
        "a^6 a^-6 q",                       # distinct units alone pass it
        "b a^x a a^x", "a^2 q b q",         # a bad unit repeats
    ])
    def test_same_error(self, text, monkeypatch):
        monkeypatch.setattr(words, "_MAX_LETTERS", 10)
        with pytest.raises((WordSyntaxError, CapExceededError)) as ref:
            reference_parse(text, ABCD)
        with pytest.raises(type(ref.value)) as got:
            parse_word(text, ABCD)
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value)
        assert getattr(got.value, "position", None) == \
            getattr(ref.value, "position", None)

    @given(st.lists(st.tuples(MIXED_UNITS, SPACES), min_size=1, max_size=12),
           st.integers(10, 30))
    @example([(("a", "6"), " "), (("b", "5"), " "), (("q", None), " ")], 10)
    @example([(("q", None), " "), (("a", "11"), " ")], 10)
    def test_error_precedence(self, units, cap):
        # good units, bad units and large exponents in any order: the first
        # unit at which a left-to-right reading goes wrong names the error
        text = "".join((name if exp is None else f"{name}^{exp}") + sep
                       for (name, exp), sep in units)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(words, "_MAX_LETTERS", cap)
            try:
                expected = reference_parse(text, ABCD)
            except (WordSyntaxError, CapExceededError) as ref:
                with pytest.raises(type(ref)) as got:
                    parse_word(text, ABCD)
                assert type(got.value) is type(ref)
                assert str(got.value) == str(ref)
                assert getattr(got.value, "position", None) == \
                    getattr(ref, "position", None)
            else:
                assert parse_word(text, ABCD) == expected

    def test_demo_orbit_texts(self):
        # f^k(a) on the bundled demo, the longest texts its pair files hold,
        # alone and followed by the first units of their inverses
        params = parse_params_file((DEMO / "params.txt").read_text(),
                                   (DEMO / "f.aut").read_text())
        alphabet = params.alphabet
        w = params.a
        for k in range(1, 15):
            w = params.f.apply(w)
            text = format_word(w)
            tail = format_word(w.inverse()).split()
            for n in (0, 1, 2, len(tail) // 2, len(tail) - 1, len(tail)):
                full = " ".join([text, *tail[:n]])
                assert parse_word(full, alphabet) == \
                    reference_parse(full, alphabet)
        assert len(text.split()) > 1000
