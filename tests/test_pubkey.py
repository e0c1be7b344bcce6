import hashlib
import random
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

from fgcrypt import (
    Alphabet,
    CipherPair,
    ElementaryMove,
    FactoredAutomorphism,
    Mat2Q,
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
    parse_automorphism,
    parse_moves,
    word_to_matrix,
)
from fgcrypt import automorphisms, pubkey, words
from fgcrypt.errors import (AlphabetMismatchError, CapExceededError,
                            DecryptionError, PreconditionError)
from fgcrypt.nielsen import _realization
from fgcrypt.pubkey import (_finite_order, parse_pair_file, parse_params_file,
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

    def test_rejects_other_alphabets(self):
        f = from_factors(parse_moves(F_SEQ), X123)
        abc = Alphabet(("a", "b", "c"))
        with pytest.raises(PreconditionError,
                           match="^alphabet mismatch: x1 x2 x3 vs a b c$"):
            PubkeyParams(X123, abc.parse("a"), f)
        with pytest.raises(PreconditionError,
                           match="^alphabet mismatch: x1 x2 x3 vs a b c$"):
            PubkeyParams(X123, X123.parse("x1"),
                         from_factors(parse_moves(F_SEQ), abc))

    def test_rejects_a_representation_over_another_alphabet(self):
        # refused when built, not at the first matrix encryption
        f = from_factors(parse_moves(F_SEQ), X123)
        abc = Alphabet(("a", "b", "c"))
        with pytest.raises(AlphabetMismatchError,
                           match="^alphabet mismatch: x1 x2 x3 vs a b c$"):
            PubkeyParams(X123, X123.parse("x1"), f,
                         rep=make_representation(abc))

    def test_finite_order_warning(self):
        inv = from_factors([WhiteheadMove("INV", 1)], X123)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            PubkeyParams(X123, X123.parse("x1"), inv)
        assert any("finite order" in str(w.message) for w in seen)
        # the warning names the line that built the parameters
        assert [w.filename for w in seen] == [__file__]

    @staticmethod
    def order_warnings(alphabet, f):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            PubkeyParams(alphabet, generators(alphabet)[0], f)
        return [str(w.message) for w in seen if "finite order" in str(w.message)]

    @staticmethod
    def count_compositions(monkeypatch):
        """Record each composition and inverse the order check makes of f."""
        calls = []

        def compose(outer, inner, _compose=automorphisms._compose_codes):
            calls.append("compose")
            return _compose(outer, inner)

        def inverse(self, _inverse=FactoredAutomorphism.inverse):
            calls.append("inverse")
            return _inverse(self)

        monkeypatch.setattr(automorphisms, "_compose_codes", compose)
        monkeypatch.setattr(FactoredAutomorphism, "inverse", inverse)
        return calls

    @staticmethod
    def signed_cycles(cycles, inverted=()):
        """x_(p_i) -> x_(p_(i+1)) round each cycle p of 1-based indices; the
        last generator of a cycle maps to the first, inverted when the cycle
        is in ``inverted``."""
        moves = []
        for cycle in cycles:
            for i, j in zip(cycle, cycle[1:]):  # (u_i, u_j) -> (u_j, u_i^-1)
                moves += (_realization(i, j, "R", 1)
                          + _realization(j, i, "R", -1)
                          + _realization(i, j, "L", 1))
            # x_(p_1) now carries the sign (-1)^(len - 1)
            if (len(cycle) % 2 == 1) == (cycle in inverted):
                moves.append(ElementaryMove("T1", cycle[-1]))
        return moves

    def test_order_two_is_exact(self, monkeypatch):
        # f^1 against (f^-1)^1: one inverse and no composition
        calls = self.count_compositions(monkeypatch)
        inv = from_factors([WhiteheadMove("INV", 1)], X123)
        assert self.order_warnings(X123, inv) == [
            "automorphism has finite order 2; the scheme expects infinite order"]
        assert calls == ["inverse"]

    @pytest.mark.parametrize("inverted", [False, True])
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 7, 8])
    def test_signed_cycle_orders(self, q, inverted):
        # x_i -> x_(i+1), x_q -> x_1^(+-1) has order q, or 2q when inverted;
        # at rank 7 the inverted cycle's order 14 escaped a k <= 12 search
        alphabet = Alphabet(tuple(f"x{i}" for i in range(1, q + 1)))
        cycle = tuple(range(1, q + 1))
        f = from_factors(self.signed_cycles(
            [cycle], [cycle] if inverted else []), alphabet)
        last = "x1^-1" if inverted else "x1"
        assert [str(w) for w in f.images] == list(alphabet.names[1:]) + [last]
        order = 2 * q if inverted else q
        assert f.power(order).is_identity()
        assert not f.power(order // 2).is_identity()
        assert self.order_warnings(alphabet, f) == [
            f"automorphism has finite order {order}; "
            "the scheme expects infinite order"]

    @pytest.mark.parametrize("conj, warned", [
        (None, [1_021_020]),
        (WhiteheadMove("W", 4, M={1, 4}), []),
        (WhiteheadMove("W", 2, M={1, 2}), []),
    ], ids=["permutation", "linear-growth", "exponential-growth"])
    def test_high_order_in_log_compositions(self, monkeypatch, conj, warned):
        # rank 60, generators permuted in cycles of 3, 4, 5, 7, 11, 13 and 17:
        # order 1 021 020, decided in O(log k) compositions.  A conjugation
        # after it keeps A, so f is composed; x1 -> x4 x1 x4^-1 grows f^n
        # linearly and f^k != id is decided, x1 -> x2 x1 x2^-1 grows it
        # exponentially and the composite that passes the cap is refused
        # once it does, leaving the order undecided
        alphabet = Alphabet(tuple(f"x{i}" for i in range(1, 61)))
        cycles, start = [], 1
        for length in (3, 4, 5, 7, 11, 13, 17):
            cycles.append(tuple(range(start, start + length)))
            start += length
        f = from_factors(self.signed_cycles(cycles) + ([conj] if conj else []),
                         alphabet)
        calls = self.count_compositions(monkeypatch)
        began = time.perf_counter()
        tracemalloc.start()
        try:
            assert self.order_warnings(alphabet, f) == [
                f"automorphism has finite order {k}; "
                "the scheme expects infinite order" for k in warned]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - began < 10.0
        # f^h and (f^-1)^(k-h) with h = ceil(k/2), by squaring
        assert calls.count("compose") <= 4 * (1_021_020).bit_length()
        # f has 483 factors, so the factor list of f^h, h = 510 510, would
        # alone take about 2 GB
        if warned:
            assert peak < 1 << 24, peak

    @pytest.mark.parametrize("text", [F_SEQ, "T2 1 2", "T2 1 2\nT1 3"],
                             ids=["demo", "unipotent", "jordan"])
    def test_infinite_order_of_A_composes_nothing(self, monkeypatch, text):
        # the demo's A has infinite order; x1 -> x1 x2 has A != I with every
        # eigenvalue 1, so A^1 != I already decides it; with x3 -> x3^-1 as
        # well, chi = (x - 1)^2 (x + 1) admits k = 2 but A^2 != I, which
        # r(A) v = (A^2 - I) v != 0 shows before f is composed
        calls = self.count_compositions(monkeypatch)
        f = from_factors(parse_moves(text), X123)
        assert self.order_warnings(X123, f) == []
        assert calls == []

    def test_torsion_free_kernel_cases(self, monkeypatch):
        # A = I (f in IA): f != id decides it with nothing composed; A of
        # order 2 with f^2 != id: f against f^-1, and infinite order
        calls = self.count_compositions(monkeypatch)
        conj = from_factors([WhiteheadMove("W", 2, M={1, 2})], X123)
        mixed = from_factors([WhiteheadMove("INV", 1),
                              WhiteheadMove("W", 2, M={1, 2})], X123)
        assert str(mixed.images[0]) == "x2 x1^-1 x2^-1"
        for f, made in ((conj, []), (mixed, ["inverse"])):
            calls.clear()
            assert self.order_warnings(X123, f) == []
            assert calls == made

    def test_costly_blocks_search_orders_up_to_12(self, monkeypatch):
        # with no budget for characteristic polynomials, the orders 1..12
        # with A^k v = v are tried: order 2 is found, order 14 is not
        monkeypatch.setattr(pubkey, "_ORDER_WORK", 0)
        inv = from_factors([WhiteheadMove("INV", 1)], X123)
        assert self.order_warnings(X123, inv) == [
            "automorphism has finite order 2; the scheme expects infinite order"]
        x7 = Alphabet(tuple(f"x{i}" for i in range(1, 8)))
        cycle = tuple(range(1, 8))
        f = from_factors(self.signed_cycles([cycle], [cycle]), x7)
        assert self.order_warnings(x7, f) == []
        assert _finite_order(f.power(7)) == 2

    @pytest.mark.parametrize("warned", [[], [13]],
                             ids=["one-block", "small-blocks"])
    def test_large_rank_stays_cheap(self, monkeypatch, warned):
        # a 128-cycle (the largest rank) with x1 -> x1 x2 after it is one
        # strongly connected block, whose characteristic polynomial would
        # cost 128^2 * 129 > 2^21 entry operations, so the bounded search
        # runs; a 13-cycle among 115 fixed generators splits into small
        # blocks and is decided exactly
        q = 128
        alphabet = Alphabet(tuple(f"x{i}" for i in range(1, q + 1)))
        if warned:
            moves = self.signed_cycles([tuple(range(1, 14))])
        else:
            moves = (self.signed_cycles([tuple(range(1, q + 1))])
                     + [ElementaryMove("T2", 1, 2)])
        f = from_factors(moves, alphabet)
        polys = []
        char_poly = pubkey._char_poly
        monkeypatch.setattr(pubkey, "_char_poly",
                            lambda block: polys.append(block) or char_poly(block))
        began = time.perf_counter()
        assert self.order_warnings(alphabet, f) == [
            f"automorphism has finite order {k}; "
            "the scheme expects infinite order" for k in warned]
        assert time.perf_counter() - began < 5.0
        assert bool(polys) == bool(warned)  # no polynomial on the bounded path

    def test_blocks_multiply_to_the_characteristic_polynomial(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 8)
            A = [{j: rng.choice((-2, -1, 1, 2)) for j in range(n)
                  if rng.random() < 0.25} for _ in range(n)]
            # the blocks are the strongly connected components
            reach = [[i == j or j in A[i] for j in range(n)] for i in range(n)]
            for m in range(n):
                for i in range(n):
                    if reach[i][m]:
                        reach[i] = [r or reach[m][j]
                                    for j, r in enumerate(reach[i])]
            components = {frozenset(j for j in range(n)
                                    if reach[i][j] and reach[j][i])
                          for i in range(n)}
            blocks = pubkey._diagonal_blocks(A)
            assert sorted(map(len, blocks)) == sorted(map(len, components))
            product = [1]
            for block in blocks:
                chi = pubkey._char_poly(block)
                product = [sum(product[i] * chi[j - i]
                               for i in range(len(product))
                               if 0 <= j - i < len(chi))
                           for j in range(len(product) + len(chi) - 1)]
            assert product == pubkey._char_poly(A), A

    def test_half_powers_stay_under_the_cap(self, monkeypatch):
        # A has order 12 (chi = Phi_4 Phi_6) and the images grow about 5.4x
        # per power, so f^12 passes the 2^24-letter cap at f^9; f^6 against
        # f^-6 decides the order within it
        abcd = Alphabet(tuple("abcd"))
        f = parse_automorphism(
            "W d ; L = b ; R = ; M = a d\n"
            "W a ; L = b d ; R = ; M = a c\n"
            "W d ; L = b ; R = a ; M = c d\n"
            "W b ; L = a ; R = c d ; M = b\n"
            "W c ; L = a ; R = ; M = b c\n", abcd)
        refused = []

        def bounded(outer, inner, _bounded=automorphisms._compose_codes):
            try:
                return _bounded(outer, inner)
            except CapExceededError:
                refused.append(len(outer))
                raise

        monkeypatch.setattr(automorphisms, "_compose_codes", bounded)
        assert _finite_order(f) is None
        assert self.order_warnings(abcd, f) == []
        assert refused == []

    def test_cap_leaves_the_order_undecided(self, monkeypatch):
        def capped(outer, inner):
            raise CapExceededError("composite past the cap")

        monkeypatch.setattr(automorphisms, "_compose_codes", capped)
        cycle = from_factors(self.signed_cycles([(1, 2, 3)]), X123)
        assert self.order_warnings(X123, cycle) == []

    def test_cap_counts_reduced_letters(self, monkeypatch):
        # f = g^-1 s g, with s the inverted 3-cycle, has order 6; f holds 547
        # image letters and f^2 566, but f o f substitutes 90 178 letters
        # before free reduction, so a cap of 45 000 still decides the order
        for module in (words, automorphisms, pubkey):
            if hasattr(module, "_MAX_LETTERS"):
                monkeypatch.setattr(module, "_MAX_LETTERS", 45_000)
        cycle = (1, 2, 3)
        s = from_factors(self.signed_cycles([cycle], [cycle]), X123)
        g = parse_automorphism("W x1 ; L = x2 ; R = ; M = x1\n"
                               "W x2 ; L = ; R = x3 ; M = x2\n"
                               "W x3 ; L = x1 ; R = ; M = x3\n"
                               "W x1 ; L = ; R = ; M = x1 x3\n"
                               "W x2 ; L = x1 x3 ; R = ; M = x2\n" * 2, X123)
        f = from_factors(g.inverse().factors + s.factors + g.factors, X123)
        assert [sum(map(len, h.images)) for h in (f, f.power(2))] == [547, 566]
        assert self.order_warnings(X123, f) == [
            "automorphism has finite order 6; the scheme expects infinite order"]

    def test_order_matches_repeated_composition(self):
        # at ranks 2 and 3 every finite order of GL(q, Z) is at most 6
        rng = random.Random(17)
        for _ in range(300):
            q = rng.choice((2, 3))
            alphabet = Alphabet(tuple("abc"[:q]))
            pool = ([ElementaryMove("T1", i) for i in range(1, q + 1)]
                    + [ElementaryMove("T2", i, j) for i in range(1, q + 1)
                       for j in range(1, q + 1) if i != j]
                    + [WhiteheadMove("INV", i) for i in range(1, q + 1)])
            f = from_factors(rng.choices(pool, k=rng.randint(1, 6)), alphabet)
            if f.is_identity():
                continue
            g, brute = f, None
            for k in range(1, 7):
                if g.is_identity():
                    brute = k
                    break
                g = g.compose(f)
            assert _finite_order(f) == brute, f.factors

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

    def test_matrix_c1_refused(self):
        params = demo_params(rep=True)
        pair = bob_encrypt_matrix(params, alice_keygen(params, 1),
                                  X123.parse("x1"), 1)
        with pytest.raises(PreconditionError, match="needs a word c1"):
            alice_decrypt(params, 1, pair)

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

    def test_largest_equal_exponents(self):
        # n = t = 16: c1 holds 9.7M letters, under the 2^24-letter cap that
        # apply enforces
        params = demo_params()
        m = demo_message()
        pair = bob_encrypt(params, alice_keygen(params, 16), m, 16)
        assert len(pair.c1) > 9_700_000
        assert alice_decrypt(params, 16, pair) == m

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
        # of the two evaluations exactly, up to the frontier n + t = 15
        params = demo_params(rep=True)
        m = demo_message()
        for n in range(1, 15):
            c = alice_keygen(params, n)
            for t in range(1, 16 - n):
                pair = bob_encrypt_matrix(params, c, m, t)
                ft = params.f.power(t)
                assert pair.c1 == mat_mul(word_to_matrix(params.rep, m),
                                          word_to_matrix(params.rep, ft.apply(c)))
                assert pair.c2 == bob_encrypt(params, c, m, t).c2

    def test_frontier(self):
        # the entry cap admits exactly n + t <= 15 on the demo.  A wrong
        # exponent fails to decrypt wherever the old pre-loop length bound
        # admitted both the pair and the wrong pad (max(n, wrong) + t <=
        # 14); past that a product along the pad passes the cap
        params = demo_params(rep=True)
        rng = random.Random(15)
        for n in range(1, 16):
            c = alice_keygen(params, n)
            for t in range(1, 17 - n):
                m = random_word(rng, X123, 6, min_len=0)
                if n + t == 16:
                    with pytest.raises(CapExceededError):
                        bob_encrypt_matrix(params, c, m, t)
                    continue
                pair = bob_encrypt_matrix(params, c, m, t)
                assert alice_decrypt_matrix(params, n, pair) == m
                for wrong in (n - 1, n + 1):
                    if wrong < 1:
                        continue
                    fits = max(n, wrong) + t <= 14
                    with pytest.raises(DecryptionError if fits
                                       else CapExceededError):
                        alice_decrypt_matrix(params, wrong, pair)

    def test_refusal_builds_no_pad(self):
        # at n = t = 16 the word m * f^t(c) has 9.7M letters; the refusal
        # comes from the products along c over the values of f^16's images
        params = demo_params(rep=True)
        c = alice_keygen(params, 16)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                bob_encrypt_matrix(params, c, demo_message(), 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_decrypt_copies_no_c2(self):
        # Alice's product runs along c2^-1 read from c2's own letters: the
        # refusal on a 30 266-letter c2 allocates less than the 8 bytes per
        # letter that an inverted copy of c2 would take
        params = demo_params(rep=True)
        pair = CipherPair(Mat2Q.identity(), alice_keygen(params, 20))
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                alice_decrypt_matrix(params, 1, pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(pair.c2)

    def test_bound_too_small(self):
        params = demo_params(rep=True)
        c = alice_keygen(params, 2)
        m = X123.parse("x1 x2 x1 x2 x1 x2")
        pair = bob_encrypt_matrix(params, c, m, 2)
        with pytest.raises(DecryptionError):
            alice_decrypt_matrix(params, 2, pair, decode_bound=3)

    def test_word_c1_refused(self):
        params = demo_params(rep=True)
        pair = bob_encrypt(params, alice_keygen(params, 1), X123.parse("x1"), 1)
        with pytest.raises(PreconditionError, match="needs a matrix c1"):
            alice_decrypt_matrix(params, 1, pair)

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
