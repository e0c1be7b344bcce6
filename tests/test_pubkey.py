import hashlib
import random
import warnings
from pathlib import Path

import pytest

from fgcrypt import (
    Alphabet,
    PubkeyParams,
    WhiteheadMove,
    alice_decrypt,
    alice_decrypt_matrix,
    alice_keygen,
    bob_encrypt,
    bob_encrypt_matrix,
    concat,
    from_factors,
    generators,
    make_representation,
    mat_inv,
    mat_mul,
    parse_moves,
    word_to_matrix,
)
from fgcrypt.errors import DecryptionError, PreconditionError
from fgcrypt.pubkey import (parse_pair_file, parse_params_file,
                            write_pair_file)

from conftest import random_word

X123 = Alphabet(("x1", "x2", "x3"))
F_SEQ = "T2 1 2\nT2 1 2\nT2 3 2\nT1 3\nT2 2 3"


def demo_params(rep=False):
    f = from_factors(parse_moves(F_SEQ), X123)
    a = X123.parse("x1^2 x2 x3^-2 x2")
    spec = make_representation(X123) if rep else None
    return PubkeyParams(X123, a, f, rep=spec)


def demo_message():
    x1, x2, x3 = generators(X123)
    return x3 ** -2 * x2 ** 2 * x3 * x1 ** 2 * x2 ** -1 * x1 ** -1


class TestParams:
    def test_rejects_identity_word(self):
        f = from_factors(parse_moves(F_SEQ), X123)
        with pytest.raises(PreconditionError):
            PubkeyParams(X123, X123.parse("1"), f)

    def test_rejects_identity_automorphism(self):
        with pytest.raises(PreconditionError):
            PubkeyParams(X123, X123.parse("x1"),
                         from_factors([], X123))

    def test_finite_order_warning(self):
        inv = from_factors([WhiteheadMove("INV", 1)], X123)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            PubkeyParams(X123, X123.parse("x1"), inv)
        assert any("finite order" in str(w.message) for w in seen)

    def test_exponent_cap(self):
        params = demo_params()
        with pytest.raises(PreconditionError):
            alice_keygen(params, 33)
        with pytest.raises(PreconditionError):
            alice_keygen(params, 0)


class TestWordVariant:
    def test_public_element(self):
        params = demo_params()
        x1, x2, x3 = generators(X123)
        expected = ((x1 * x2 ** 2 * x3 ** -1 * x2 * (x2 * x3) ** 2
                     * (x3 * x2 * x3 ** 2 * x2) ** 2 * x3 * x2) ** 2
                    * (x3 ** 2 * x2) ** 2
                    * ((x3 * x2 * x3) ** 2 * x2 * x3) ** 2
                    * x3 * x2 * x3 ** 2 * x2 * x3 ** -1)
        assert alice_keygen(params, 7) == expected

    def test_n1_is_f_of_a(self):
        params = demo_params()
        assert alice_keygen(params, 1) == params.f.apply(params.a)

    def test_demo_round_trip(self):
        params = demo_params()
        x1, x2, x3 = generators(X123)
        c = alice_keygen(params, 7)
        m = demo_message()
        pair = bob_encrypt(params, c, m, 5)
        expected_c2 = ((x1 * x2 ** 2 * x3 ** -1 * x2 ** 2 * x3
                        * (x3 * x2) ** 2) ** 2 * x3 ** 2 * x2
                       * (x3 * x2 * x3) ** 2 * x3 * x2 * x3 ** -1)
        assert pair.c2 == expected_c2
        assert alice_decrypt(params, 7, pair) == m

    def test_empty_message(self):
        params = demo_params()
        c = alice_keygen(params, 3)
        pair = bob_encrypt(params, c, X123.parse("1"), 2)
        assert pair.c1 == params.f.power(2).apply(c)
        assert alice_decrypt(params, 3, pair) == X123.parse("1")

    def test_total_cancellation(self):
        # message chosen as the inverse of the pad: c1 collapses to "1"
        params = demo_params()
        c = alice_keygen(params, 2)
        pad = params.f.power(3).apply(c)
        pair = bob_encrypt(params, c, pad.inverse(), 3)
        assert pair.c1.is_identity()
        assert alice_decrypt(params, 2, pair) == pad.inverse()

    def test_power_commutation(self):
        params = demo_params()
        f, a = params.f, params.a
        for n in range(1, 7):
            for t in range(1, 7):
                assert f.power(t).apply(f.power(n).apply(a)) == \
                    f.power(n + t).apply(a)

    def test_random_round_trips(self):
        rng = random.Random(55)
        params = demo_params()
        for _ in range(40):
            n, t = rng.randint(1, 6), rng.randint(1, 6)
            m = random_word(rng, X123, 10, min_len=0)
            c = alice_keygen(params, n)
            pair = bob_encrypt(params, c, m, t)
            assert alice_decrypt(params, n, pair) == m

    def test_demo_c1_and_pad_inverse_frozen(self):
        # the full n=7 / t=5 exchange, against frozen long-form words
        params = demo_params()
        x1, x2, x3 = generators(X123)
        c = alice_keygen(params, 7)
        m = demo_message()
        pair = bob_encrypt(params, c, m, 5)
        s = x3 ** -1 * x2 ** -1 * x3 ** -2 * x2 ** -1      # recurring block
        block = (s ** 2 * x3 ** -2 * x2 ** -1) ** 2        # recurring block
        expected_c1 = (
            x3 ** -2 * x2 ** 2 * x3 * x1 ** 2 * (x2 * x3 ** -1) ** 2
            * block
            * (x3 ** -1 * x2 ** -1 * x3 ** -1) ** 2 * x3 ** -1 * x2 ** -1
            * ((((x3 ** -1 * x2 ** -1 * x3 ** -1) ** 2 * x2 ** -1 * x3 ** -1) ** 2
                * x3 ** -1 * x2 ** -1 * x3 ** -1 * x2 ** -1 * x3 ** -1) ** 2
               * s ** 2 * x3 ** -1 * x2 ** -1 * x3 ** -1) ** 2
            * block * (x3 ** -1 * x2 ** -1 * x3 ** -1) ** 2 * x3 ** -1
            * x1 * x2 ** 2 * x3 ** -1 * x2
            * (x3 ** -1
               * (block * (x3 ** -1 * x2 ** -1 * x3 ** -1) ** 2 * x3 ** -1
                  * x2 ** -1) ** 3
               * (x3 ** -1 * x2 ** -1 * x3 ** -1) ** 2 * x2 ** -1 * x3 ** -1
               * block * (x3 ** -1 * x2 ** -1 * x3 ** -1) ** 2 * x2 ** -1) ** 3
            * x3 ** -1 * block * (x3 ** -1 * x2 ** -1 * x3 ** -1) ** 2
            * x2 ** -1 * x3 ** -1 * x2)
        assert pair.c1 == expected_c1
        pad_inverse = params.f.power(7).apply(pair.c2).inverse()
        expected_pad_inverse = (
            x2 ** -1
            * (((((x3 * x2) ** 2 * x3) ** 2 * x3 * x2 * x3) ** 2 * x3 * x2
                * (x3 * x2 * x3) ** 2) ** 2 * x3 * x2
               * ((x3 * x2 * x3) ** 2 * x2 * x3) ** 2 * x3 * x2 * x3) ** 2
            * (x3 * x2 * (((x3 * x2 * x3) ** 2 * x2 * x3) ** 2
                          * x3 * x2 * x3 * x2 * x3) ** 2
               * (x3 * x2 * x3 ** 2 * x2) ** 2 * x3) ** 2
            * x2
            * (((((x3 ** 2 * x2) ** 2 * x3 * x2) ** 2
                 * x3 ** 2 * x2 * x3 * x2) ** 2
                * x3 * (x3 * x2 * x3 ** 2 * x2) ** 2 * x3 * x2) ** 2
               * x3 * (x3 * x2 * x3 ** 2 * x2) ** 2 * x3 ** 2 * x2
               * (((x3 * x2 * x3) ** 2 * x2 * x3) ** 2
                  * x3 * x2 * x3 * x2 * x3) ** 2
               * (x3 * x2 * x3 ** 2 * x2) ** 2 * x3
               * (x3 * x2 ** -1) ** 2 * x2 ** -1 * x1 ** -1) ** 2)
        assert pad_inverse == expected_pad_inverse
        assert concat(pair.c1, pad_inverse) == m


class TestMatrixVariant:
    def test_round_trip(self):
        params = demo_params(rep=True)
        c = alice_keygen(params, 2)
        m = X123.parse("x1 x2^-1")
        pair = bob_encrypt_matrix(params, c, m, 2)
        assert alice_decrypt_matrix(params, 2, pair, decode_bound=4) == m

    def test_identity_message(self):
        params = demo_params(rep=True)
        c = alice_keygen(params, 1)
        pair = bob_encrypt_matrix(params, c, X123.parse("1"), 1)
        assert alice_decrypt_matrix(params, 1, pair,
                                    decode_bound=2) == X123.parse("1")

    def test_intermediate_equality(self):
        params = demo_params(rep=True)
        rng = random.Random(66)
        for _ in range(15):
            n, t = rng.randint(1, 4), rng.randint(1, 4)
            m = random_word(rng, X123, 8, min_len=0)
            c = alice_keygen(params, n)
            pair = bob_encrypt_matrix(params, c, m, t)
            recovered = mat_mul(pair.c1, mat_inv(word_to_matrix(
                params.rep, params.f.power(n).apply(pair.c2))))
            assert recovered == word_to_matrix(params.rep, m)

    def test_c1_is_the_product_of_evaluations(self):
        # g is a homomorphism, so evaluating the word c1 gives the product
        # of the two evaluations exactly
        params = demo_params(rep=True)
        m = demo_message()
        for n in range(1, 5):
            c = alice_keygen(params, n)
            for t in range(1, 5):
                pair = bob_encrypt_matrix(params, c, m, t)
                ft = params.f.power(t)
                assert pair.c1 == mat_mul(word_to_matrix(params.rep, m),
                                          word_to_matrix(params.rep, ft.apply(c)))
                assert pair.c2 == bob_encrypt(params, c, m, t).c2

    def test_bound_too_small(self):
        params = demo_params(rep=True)
        c = alice_keygen(params, 2)
        m = X123.parse("x1 x2 x1 x2 x1 x2")
        pair = bob_encrypt_matrix(params, c, m, 2)
        with pytest.raises(DecryptionError):
            alice_decrypt_matrix(params, 2, pair, decode_bound=3)

    def test_requires_rep(self):
        params = demo_params(rep=False)
        with pytest.raises(PreconditionError):
            bob_encrypt_matrix(params, alice_keygen(params, 1),
                               X123.parse("x1"), 1)


class TestPairFile:
    def test_word_round_trip(self):
        params = demo_params()
        pair = bob_encrypt(params, alice_keygen(params, 2), demo_message(), 2)
        again = parse_pair_file(write_pair_file(pair), X123)
        assert again == pair

    def test_matrix_round_trip(self):
        params = demo_params(rep=True)
        pair = bob_encrypt_matrix(params, alice_keygen(params, 2),
                                  X123.parse("x1 x2"), 2)
        again = parse_pair_file(write_pair_file(pair), X123, matrix=True)
        assert again == pair


class TestPairFileGolden:
    """Pinned ``write_pair_file`` bytes for every n, t in 1..7 on the bundled
    demo, with seeded messages; each text must parse back to its pair."""

    DEMO = Path(__file__).parent / "fixtures" / "pubkey_demo"
    GOLDEN = {
        "word": "789d5d2fbce08562d0fc0089c7be1fc73d9d008a79ffcb1a059190a4f36fbe1d",
        "matrix": "d0efc70887875646091a3feccd4006f3f38586fe07c08297dd1b3dece40c3339",
    }

    @pytest.mark.parametrize("variant", ["word", "matrix"])
    def test_pair_texts(self, variant):
        matrix = variant == "matrix"
        params = parse_params_file((self.DEMO / "params.txt").read_text(),
                                   (self.DEMO / "f.aut").read_text())
        if matrix:
            params = PubkeyParams(params.alphabet, params.a, params.f,
                                  rep=make_representation(params.alphabet))
        encrypt = bob_encrypt_matrix if matrix else bob_encrypt
        rng = random.Random(11)
        digest = hashlib.sha256()
        for n in range(1, 8):
            c = alice_keygen(params, n)
            for t in range(1, 8):
                m = random_word(rng, params.alphabet, 12, min_len=0)
                pair = encrypt(params, c, m, t)
                text = write_pair_file(pair)
                assert parse_pair_file(text, params.alphabet, matrix) == pair
                digest.update(text.encode())
        assert digest.hexdigest() == self.GOLDEN[variant]
