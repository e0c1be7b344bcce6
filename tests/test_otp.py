import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fgcrypt import (
    Alphabet,
    AutFamily,
    CipherPrivateKey,
    CipherPublicParams,
    Ciphertext,
    FactoredAutomorphism,
    GeneratingTuple,
    LcgParams,
    Prg,
    Word,
    build_cipher_table,
    canonical_minimal_basis,
    decrypt,
    decrypt_with_table,
    derive_automorphism,
    encrypt,
    format_ciphertext,
    from_factors,
    identity_automorphism,
    is_nielsen_reduced,
    keygen,
    keystream,
    parse_automorphism,
    parse_ciphertext,
    parse_key_file,
    write_key_file,
)
from fgcrypt.errors import (
    AlphabetMismatchError,
    CapExceededError,
    DecryptionError,
    EncodingError,
    FgError,
    PreconditionError,
    WordSyntaxError,
)
from fgcrypt.nielsen import _level_minimum, nielsen_reduce, parse_tuple

FIXTURES = Path(__file__).parent / "fixtures" / "otp_demo"

ABCD = Alphabet(("a", "b", "c", "d"))


def demo_setup():
    params, key = parse_key_file((FIXTURES / "key.txt").read_text())
    auts = [parse_automorphism((FIXTURES / f"aut{i}.txt").read_text(),
                               params.alphabet) for i in range(1, 9)]
    return params, key, auts


def small_params(seed=0xBEEF, symbols=("X", "Y", "Z"), m=16):
    alphabet = Alphabet(("a", "b"))
    lcg = LcgParams(m, 5, 3)
    return CipherPublicParams(alphabet, symbols, AutFamily(seed, alphabet, m), lcg)


class TestParams:
    def test_validation(self):
        alphabet = Alphabet(("a", "b"))
        with pytest.raises(PreconditionError):
            CipherPublicParams(alphabet, ("X",), AutFamily(0, alphabet, 8),
                               LcgParams(8, 5, 3))
        with pytest.raises(PreconditionError):
            CipherPublicParams(alphabet, ("X", "Y"), AutFamily(0, alphabet, 8),
                               LcgParams(8, 4, 3))  # not max period
        with pytest.raises(PreconditionError):
            CipherPublicParams(Alphabet(("a",)), ("X", "Y"),
                               AutFamily(0, Alphabet(("a",)), 8),
                               LcgParams(8, 5, 3))


class TestKeygen:
    def test_postconditions(self):
        params = small_params()
        key = keygen(params, Prg(1))
        assert len(key.basis) == 3
        assert is_nielsen_reduced(key.basis)
        assert key.basis.elements == canonical_minimal_basis(key.basis).elements
        assert 0 <= key.alpha < params.lcg.modulus

    def test_golden(self):
        params = small_params(seed=0x1234)
        key = keygen(params, Prg(0xDEADBEEF))
        assert [str(w) for w in key.basis] == [
            "a b", "a^-2 b^-2", "a^-1 b^-3 a b^-1"]
        assert key.alpha == 4467

    def test_demo_basis_is_valid_key(self):
        params, key, _ = demo_setup()
        key.validate(params)  # Nielsen reduced, 12 entries, no identity

    def test_level_past_budget_is_redrawn(self):
        # the README setup at N=7: Prg(1792) first draws a tuple whose level
        # holds more than 200 000 tuples, which used to raise after ~12 s
        lcg = LcgParams(64, 5, 3)
        params = CipherPublicParams(ABCD, tuple("HELOWRD"),
                                    AutFamily(0x1234, ABCD, 64), lcg)
        key = keygen(params, Prg(1792))
        key.validate(params)
        assert key.basis.elements == canonical_minimal_basis(key.basis).elements

    def test_budget_drops_only_larger_levels(self):
        # the level of (a b, b c, a c) holds 16 tuples: a budget of 16 walks
        # it and 15 drops it, so keygen keeps levels of _LEVEL_BUDGET tuples
        t = parse_tuple("begin tuple\na b\nb c\na c\nend tuple",
                        Alphabet(("a", "b", "c")))
        reduced, _ = nielsen_reduce(t)
        _level_minimum(reduced, 16)
        with pytest.raises(CapExceededError, match="exceeded 15 tuples"):
            _level_minimum(reduced, 15)

    def test_rejects_bad_keys(self):
        params = small_params()
        bad = CipherPrivateKey(GeneratingTuple(
            params.alphabet,
            tuple(params.alphabet.parse(s) for s in ("a b", "b", "a"))), 0)
        with pytest.raises(PreconditionError):
            bad.validate(params)

    def test_rejects_a_key_over_another_alphabet(self):
        # the same basis letters under other names: every entry point
        # refuses the key, decrypt too, though it compares codes
        params = small_params()
        key = keygen(params, Prg(1))
        c = encrypt(params, key, "XYZ")
        pq = Alphabet(("p", "q"))
        foreign = CipherPrivateKey(GeneratingTuple(
            pq, tuple(Word(pq, w.signed) for w in key.basis)), key.alpha)
        with pytest.raises(AlphabetMismatchError):
            encrypt(params, foreign, "XYZ")
        for call in (decrypt, decrypt_with_table):
            with pytest.raises(AlphabetMismatchError):
                call(params, foreign, c)


class TestDemoVectors:
    def test_encrypt_matches_reference(self):
        params, key, auts = demo_setup()
        ct = encrypt(params, key, "I LIKE BOB", automorphisms=auts)
        expected = (FIXTURES / "ciphertext.txt").read_text().strip()
        assert format_ciphertext(ct) == expected
        assert [str(u) for u in ct.units][:2] == [
            "d c^-1 d^-1 a^-1 d^-2 a^-1 c^-1",
            "d^-1 b c a b d^-1 a^-1 c a d b^-1 d"]

    def test_both_decryptions(self):
        params, key, auts = demo_setup()
        ct = parse_ciphertext((FIXTURES / "ciphertext.txt").read_text(),
                              params.alphabet)
        assert "".join(decrypt(params, key, ct, automorphisms=auts)) == "ILIKEBOB"
        assert "".join(decrypt_with_table(params, key, ct,
                                          automorphisms=auts)) == "ILIKEBOB"

    def test_keystream_positions(self):
        params, key, _ = demo_setup()
        assert keystream(params.lcg, key.alpha, 8) == [
            93, 468, 2343, 11718, 58593, 292968, 1464843, 7324218]


class TestEncryptDecrypt:
    def test_empty(self):
        params = small_params()
        key = keygen(params, Prg(2))
        ct = encrypt(params, key, "")
        assert len(ct) == 0
        assert decrypt(params, key, ct) == []

    def test_identity_automorphism_forced(self):
        params = small_params()
        key = keygen(params, Prg(3))
        ct = encrypt(params, key, "X",
                     automorphisms=[identity_automorphism(params.alphabet)])
        assert ct.units == (key.basis[0],)

    def test_whitespace_stripped(self):
        params = small_params()
        key = keygen(params, Prg(4))
        spaced = encrypt(params, key, "X Y\tZ")
        plain = encrypt(params, key, "XYZ")
        assert spaced.units == plain.units

    def test_unknown_symbol(self):
        params = small_params()
        key = keygen(params, Prg(5))
        with pytest.raises(EncodingError) as err:
            encrypt(params, key, "XQ")
        assert err.value.symbol == "Q" and err.value.position == 1

    def test_tampered_unit(self):
        params = small_params()
        key = keygen(params, Prg(6))
        ct = encrypt(params, key, "XYZ")
        flipped = list(ct.units[0].signed)
        flipped[0] = -flipped[0]
        bad = Ciphertext((Word(params.alphabet, flipped),) + ct.units[1:])
        with pytest.raises(DecryptionError) as err:
            decrypt(params, key, bad)
        assert err.value.unit_index == 0

    def test_round_trips(self):
        rng = random.Random(77)
        for trial in range(25):
            params = small_params(seed=rng.getrandbits(64))
            key = keygen(params, Prg(rng.getrandbits(64)))
            msg = "".join(rng.choice(params.plaintext_alphabet)
                          for _ in range(rng.randint(1, 40)))
            ct = encrypt(params, key, msg)
            assert "".join(decrypt(params, key, ct)) == msg

    def test_multichar_symbols_via_list(self):
        params = small_params(symbols=("ESC", "NUL", "TAB"))
        key = keygen(params, Prg(12))
        msg = ["NUL", "ESC", "NUL", "TAB"]
        ct = encrypt(params, key, msg)
        assert decrypt(params, key, ct) == msg


class TestTable:
    def test_identity_column(self):
        params = small_params()
        key = keygen(params, Prg(8))
        table = build_cipher_table(params, key, [0],
                                   automorphisms=[identity_automorphism(params.alphabet)])
        assert tuple(row[0] for row in table) == key.basis.elements

    def test_too_few_overrides(self):
        # the table checks its overrides as encrypt and decrypt do, instead
        # of building rows shorter than the schedule
        params, key, auts = demo_setup()
        indices = keystream(params.lcg, key.alpha, 4)
        with pytest.raises(PreconditionError, match="need 4 override"):
            build_cipher_table(params, key, indices, automorphisms=auts[:1])
        ct = encrypt(params, key, "ILIKEBOB", automorphisms=auts)
        with pytest.raises(PreconditionError, match="need 8 override"):
            decrypt_with_table(params, key, ct, automorphisms=auts[:7])

    def test_agrees_with_inverse_decryption(self):
        rng = random.Random(99)
        for _ in range(10):
            params = small_params(seed=rng.getrandbits(64))
            key = keygen(params, Prg(rng.getrandbits(64)))
            msg = "".join(rng.choice(params.plaintext_alphabet)
                          for _ in range(12))
            ct = encrypt(params, key, msg)
            assert decrypt(params, key, ct) == decrypt_with_table(params, key, ct)

    def test_empty(self):
        params = small_params()
        key = keygen(params, Prg(2))
        assert decrypt_with_table(params, key, Ciphertext(())) == []

    def test_tampered_unit(self):
        # as the inverse path: the failing unit's index, no partial plaintext
        params = small_params()
        key = keygen(params, Prg(6))
        ct = encrypt(params, key, "XYZ")
        flipped = list(ct.units[1].signed)
        flipped[0] = -flipped[0]
        bad = Ciphertext(ct.units[:1] + (Word(params.alphabet, flipped),)
                         + ct.units[2:])
        with pytest.raises(DecryptionError) as err:
            decrypt_with_table(params, key, bad)
        assert err.value.unit_index == 1

    @pytest.mark.parametrize("bad_unit", [0, 2, 5])
    def test_stops_at_the_first_unmatched_unit(self, bad_unit, monkeypatch):
        # the search matches unit by unit and raises at the first unit no key
        # word maps to, having applied at most N maps per unit up to it
        params = small_params()
        key = keygen(params, Prg(6))
        ct = encrypt(params, key, "XYZZYX")
        flipped = list(ct.units[bad_unit].signed)
        flipped[0] = -flipped[0]
        units = list(ct.units)
        units[bad_unit] = Word(params.alphabet, flipped)
        applied = []
        apply = FactoredAutomorphism.apply

        def counting(self, w):
            applied.append(w)
            return apply(self, w)

        monkeypatch.setattr(FactoredAutomorphism, "apply", counting)
        with pytest.raises(DecryptionError) as err:
            decrypt_with_table(params, key, Ciphertext(tuple(units)))
        assert err.value.unit_index == bad_unit
        assert 0 < len(applied) <= params.n_symbols * (bad_unit + 1)

    def test_foreign_overrides_and_units_refused(self):
        # the demo's overrides and ciphertext renamed to p q r s, the key
        # over a b c d: the codes would match, the alphabets do not
        params, key, auts = demo_setup()
        ct = encrypt(params, key, "ILIKEBOB", automorphisms=auts)
        mismatch = "^alphabet mismatch: a b c d vs p q r s$"
        for call in (decrypt, decrypt_with_table):
            with pytest.raises(AlphabetMismatchError, match=mismatch):
                call(params, key, _renamed(ct, PQRS),
                     automorphisms=_renamed_auts(auts, PQRS))

    def test_foreign_units_refused(self):
        params, key, auts = demo_setup()
        ct = _renamed(encrypt(params, key, "ILIKEBOB", automorphisms=auts),
                      PQRS)
        for call in (decrypt, decrypt_with_table):
            with pytest.raises(AlphabetMismatchError):
                call(params, key, ct, automorphisms=auts)
            with pytest.raises(AlphabetMismatchError):
                call(params, key, ct)

    def test_foreign_overrides_refused(self):
        # refused where the overrides are read, before any is applied
        params, key, auts = demo_setup()
        ct = encrypt(params, key, "ILIKEBOB", automorphisms=auts)
        foreign = _renamed_auts(auts, PQRS)
        indices = keystream(params.lcg, key.alpha, 8)
        mismatch = "^alphabet mismatch: a b c d vs p q r s$"
        with pytest.raises(AlphabetMismatchError, match=mismatch):
            encrypt(params, key, "ILIKEBOB", automorphisms=foreign)
        with pytest.raises(AlphabetMismatchError, match=mismatch):
            build_cipher_table(params, key, indices, automorphisms=foreign)
        for call in (decrypt, decrypt_with_table):
            with pytest.raises(AlphabetMismatchError, match=mismatch):
                call(params, key, ct, automorphisms=foreign)


def _renamed(c, alphabet):
    """The ciphertext with the same letters under another alphabet."""
    return Ciphertext(tuple(Word(alphabet, u.signed) for u in c.units))


def _renamed_auts(auts, alphabet):
    return [from_factors(f.factors, alphabet) for f in auts]


PQ = Alphabet(("p", "q"))
PQRS = Alphabet(("p", "q", "r", "s"))
SMALL = small_params()
SMALL_KEYS = [keygen(SMALL, Prg(seed)) for seed in range(4)]


def _outcome(call, params, key, c, auts):
    try:
        return call(params, key, c, automorphisms=auts)
    except FgError as err:
        return type(err), getattr(err, "unit_index", None)


@st.composite
def decrypt_inputs(draw):
    """A key, a ciphertext and maybe overrides, each unit possibly mutated
    and the units or the overrides possibly over another alphabet."""
    key = draw(st.sampled_from(SMALL_KEYS))
    msg = draw(st.text("XYZ", min_size=1, max_size=5))
    auts = None
    if draw(st.booleans()):
        auts = [derive_automorphism(SMALL.fam, draw(st.integers(0, 15)))
                for _ in msg]
    units = list(encrypt(SMALL, key, msg, automorphisms=auts).units)
    for i in draw(st.lists(st.integers(0, len(units) - 1), max_size=2)):
        letters = list(units[i].signed)
        kind = draw(st.sampled_from(("flip", "append", "replace")))
        if kind == "flip" and letters:
            j = draw(st.integers(0, len(letters) - 1))
            letters[j] = -letters[j]
        elif kind == "append":
            letters.append(draw(st.sampled_from((1, -1, 2, -2))))
        else:
            letters = draw(st.lists(st.sampled_from((1, -1, 2, -2)),
                                    max_size=6))
        units[i] = Word(SMALL.alphabet, letters)
    c = Ciphertext(units)
    if draw(st.booleans()):
        c = _renamed(c, PQ)
    if auts is not None and draw(st.booleans()):
        auts = _renamed_auts(auts, PQ)
    return key, c, auts


@settings(max_examples=150, deadline=None)
@given(decrypt_inputs())
def test_both_decryptions_agree(inputs):
    # the README's promise on every input: the same symbols, or the same
    # error at the same unit
    key, c, auts = inputs
    assert (_outcome(decrypt, SMALL, key, c, auts)
            == _outcome(decrypt_with_table, SMALL, key, c, auts))


class TestPolyalphabetic:
    def test_repeated_symbol_units_differ(self):
        # a maximal-period schedule gives every position of a period its own
        # index, so a repeated symbol is enciphered by a fresh automorphism
        params = small_params(m=8)
        key = keygen(params, Prg(10))
        period = params.lcg.modulus
        indices = keystream(params.lcg, key.alpha, period + 1)
        assert len(set(indices[:period])) == period
        assert indices[period] == indices[0]
        ct = encrypt(params, key, "XX")
        assert ct.units[0] != ct.units[1]


class TestFraming:
    def test_round_trip(self):
        params, key, auts = demo_setup()
        ct = encrypt(params, key, "I LIKE BOB", automorphisms=auts)
        again = parse_ciphertext(format_ciphertext(ct), params.alphabet)
        assert again.units == ct.units

    def test_observable_length(self):
        params, key, auts = demo_setup()
        ct = encrypt(params, key, "I LIKE BOB", automorphisms=auts)
        assert ct.total_length() == sum(len(u) for u in ct.units)

    def test_empty_serialization(self):
        assert format_ciphertext(Ciphertext(())) == ""
        assert parse_ciphertext("\n", ABCD).units == ()


class TestKeyFile:
    def test_round_trip(self):
        params, key, _ = demo_setup()
        text = write_key_file(params, key)
        params2, key2 = parse_key_file(text)
        assert params2.plaintext_alphabet == params.plaintext_alphabet
        assert params2.lcg == params.lcg
        assert key2.basis.elements == key.basis.elements
        assert key2.alpha == key.alpha

    def test_fixture_bytes_round_trip(self):
        text = (FIXTURES / "key.txt").read_text()
        assert write_key_file(*parse_key_file(text)) == text

    @pytest.mark.parametrize("old, new", [
        ("m = 128", "m = sixty"),
        ("seed = 0000000000000000", "seed = zz"),
        ("alpha = 93", "alpha = ninety"),
        ("N = 12", "N = twelve"),
        ("N = 12", "N = 11"),
        ("end tuple", "end"),
        ("d^2 c^-2", "d^2 q"),
    ])
    def test_malformed_lines_raise_syntax_error(self, old, new):
        text = (FIXTURES / "key.txt").read_text()
        with pytest.raises(WordSyntaxError):
            parse_key_file(text.replace(old, new))

    def test_seed_outside_64_bits_rejected(self):
        # a 65-bit seed used to be masked to its low 64 bits, so it encrypted
        # like another key file and did not round-trip
        text = (FIXTURES / "key.txt").read_text()
        for seed in ("1dde04cfe366bd8cb", "-1"):
            with pytest.raises(PreconditionError):
                parse_key_file(text.replace("0000000000000000", seed))
        top = text.replace("0000000000000000", "ffffffffffffffff")
        assert write_key_file(*parse_key_file(top)) == top

    def test_duplicate_alphabet_name(self):
        text = (FIXTURES / "key.txt").read_text()
        with pytest.raises(PreconditionError):
            parse_key_file(text.replace("alphabet = a b c d", "alphabet = a b c a"))

    def test_demo_key_values(self):
        params, key, _ = demo_setup()
        assert key.alpha == 93
        assert params.lcg == LcgParams(128, 5, 3)
        assert params.plaintext_alphabet == tuple("A E I O U T M L K Y B N".split())
        assert str(key.basis[2]) == "d^2 c^-2"


class TestSessionGolden:
    """The benchmark's session path (rank 4, N=5 symbols) pinned end to end:
    keygen, one derived automorphism per symbol, encryption and both
    decryptions of a 300-symbol message."""

    SYMBOLS = ("A", "B", "C", "D", "E")

    @pytest.mark.parametrize("m, digest", [
        (64, "791fe3bd9a5c1d76cefc5ca2aa67125cd14971a7d42e79ce25c79f964b3b22f2"),
        (128, "80f097d7cfe5e7a89ab9af6af174f3da7bcc7bc7c291da4b1d86a08b9cde8016"),
    ])
    def test_ciphertext_digest(self, m, digest):
        params = CipherPublicParams(ABCD, self.SYMBOLS,
                                    AutFamily(0x5E551000 + m, ABCD, m),
                                    LcgParams(m, 5, 3))
        key = keygen(params, Prg(0xC0FFEE + m))
        rng = random.Random(m)
        msg = [rng.choice(self.SYMBOLS) for _ in range(300)]
        ct = encrypt(params, key, msg)
        text = format_ciphertext(ct)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert decrypt(params, key, ct) == msg
        assert decrypt_with_table(params, key, ct) == msg
