import copy
import hashlib
import pickle
import random

import pytest

from fgcrypt import (
    Alphabet,
    AutFamily,
    LcgParams,
    Prg,
    derive_automorphism,
    format_automorphism,
    has_max_period,
    keystream,
    lcg_next,
)
from fgcrypt.errors import PreconditionError
from fgcrypt.keystream import _LANES, format_lcg_lines, parse_lcg_lines, splitmix64

ABCD = Alphabet(("a", "b", "c", "d"))

DEMO_LCG = LcgParams(128, 5, 3)

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_draws(seed: int, n: int) -> list[int]:
    """splitmix64 one scalar step at a time, as published."""
    out = []
    s = seed
    for _ in range(n):
        s = (s + GAMMA) & MASK64
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def orbit_length(p: LcgParams, start: int = 0) -> int:
    """Steps until the sequence returns to its start, or modulus+1 if it
    never does (non-bijective maps drift off the starting point)."""
    x = start % p.modulus
    cur = x
    for steps in range(1, p.modulus + 1):
        cur = lcg_next(p, cur)
        if cur == x:
            return steps
    return p.modulus + 1


class TestLcg:
    def test_demo_steps(self):
        assert lcg_next(DEMO_LCG, 93) == 468
        assert lcg_next(DEMO_LCG, 1464843) == 7324218

    def test_identity_map(self):
        p = LcgParams(8, 1, 0)
        assert lcg_next(p, 77) == 77

    def test_demo_keystream(self):
        assert keystream(DEMO_LCG, 93, 8) == [
            93, 468, 2343, 11718, 58593, 292968, 1464843, 7324218]

    def test_single(self):
        assert keystream(DEMO_LCG, 5, 1) == [5]

    def test_wraparound(self):
        assert keystream(LcgParams(4, 5, 3), 0, 3) == [0, 3, 2]

    def test_z_positive(self):
        with pytest.raises(PreconditionError):
            keystream(DEMO_LCG, 0, 0)


class TestMaxPeriod:
    def test_demo_params(self):
        assert has_max_period(DEMO_LCG)

    def test_beta_3_mod_4(self):
        p = LcgParams(3, 3, 3)
        assert not has_max_period(p)
        assert orbit_length(p) != p.modulus  # direct enumeration: period 4

    def test_m1(self):
        assert has_max_period(LcgParams(1, 1, 1))

    def test_exhaustive_small_moduli(self):
        rng = random.Random(14)
        for m in range(1, 13):
            p_mod = 1 << m
            for _ in range(200):
                p = LcgParams(m, rng.randrange(p_mod), rng.randrange(p_mod))
                assert (orbit_length(p) == p_mod) == has_max_period(p), p

    def test_no_repeat_within_period(self):
        p = LcgParams(6, 5, 3)
        xs = keystream(p, 11, 64)
        assert len(set(xs)) == 64


class TestPrg:
    def test_splitmix_reference_vector(self):
        # published output sequence from seed 0
        prg = Prg(0)
        assert [prg.next() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 5])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(PreconditionError):
            Prg(seed)

    def test_seed_bounds_accepted(self):
        assert Prg((1 << 64) - 1).next() == splitmix64((1 << 64) - 1)[1]

    def test_stateless_step(self):
        state, out = splitmix64(0)
        assert out == 0xE220A8397B1DCDAF
        assert state == 0x9E3779B97F4A7C15

    def test_step_matches_reference(self):
        mask = (1 << 64) - 1
        gamma = 0x9E3779B97F4A7C15
        rng = random.Random(64)
        states = [0, 1, mask, mask - gamma, mask - gamma + 1]
        for state in states + [rng.getrandbits(64) for _ in range(500)]:
            s = (state + gamma) & mask
            z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            assert splitmix64(state) == (s, z ^ (z >> 31))
            prg = Prg(state)
            assert (prg.next(), prg.state) == (z ^ (z >> 31), s)

    @pytest.mark.parametrize("seed", [0, 1, MASK64, (1 << 64) - GAMMA,
                                      *map(random.Random(30).getrandbits, [64] * 4)])
    def test_blocks_match_scalar_steps(self, seed):
        # across three block boundaries and into a fourth block; the state
        # after k draws is seed + k*gamma mod 2^64
        n = 3 * _LANES + 5
        prg = Prg(seed)
        assert prg.state == seed
        for k, expected in enumerate(reference_draws(seed, n), 1):
            assert prg.next() == expected
            assert prg.state == (seed + k * GAMMA) & MASK64

    @pytest.mark.parametrize("duplicate", [
        copy.copy, copy.deepcopy, lambda prg: pickle.loads(pickle.dumps(prg))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copy_mid_block_continues_independently(self, duplicate):
        prg = Prg(2024)
        drawn = [prg.next() for _ in range(_LANES // 2)]
        twin = duplicate(prg)
        assert twin.state == prg.state
        # the copy runs ahead past a block boundary; the original's buffer
        # must not move
        ahead = [twin.next() for _ in range(_LANES + 3)]
        rest = [prg.next() for _ in range(_LANES + 3)]
        assert drawn + ahead == drawn + rest == reference_draws(
            2024, len(drawn) + _LANES + 3)
        assert twin.state == prg.state

    def test_state_is_read_only(self):
        with pytest.raises(AttributeError):
            Prg(1).state = 5

    @pytest.mark.parametrize("state", [-1, 1 << 64])
    def test_step_outside_64_bits_rejected(self, state):
        with pytest.raises(PreconditionError):
            splitmix64(state)


class TestFamily:
    def test_deterministic(self):
        fam = AutFamily(0x9E3779B97F4A7C15, ABCD, 128)
        f1 = derive_automorphism(fam, 0)
        f2 = derive_automorphism(fam, 0)
        assert format_automorphism(f1) == format_automorphism(f2)

    def test_golden_factor_list(self):
        fam = AutFamily(0x9E3779B97F4A7C15, ABCD, 128)
        assert format_automorphism(derive_automorphism(fam, 0)).splitlines() == [
            "INV b",
            "INV d",
            "INV a",
            "W d ; L = b ; R = c ; M = a d",
            "W b ; L = ; R = a c d ; M = b",
            "INV c",
            "INV a",
            "INV c",
            "INV a",
            "W c ; L = ; R = a d ; M = c",
            "W b ; L = a d ; R = c ; M = b",
            "W a ; L = ; R = c ; M = a b d",
            "W b ; L = ; R = a ; M = b",
            "W c ; L = a b d ; R = ; M = c",
            "INV a",
            "INV b",
        ]

    # sha256 over i = 0..199 of each member's factor list, images and
    # inverse images (the rank 2-4 m64 rows as computed by the earlier
    # generator-image fold, the rank 5 and 7 rows by the sampler that still
    # validated every drawn factor; the m128-high row covers indices >= 2^64,
    # seeded through SHA-256)
    @pytest.mark.parametrize("names, seed, m, high, digest", [
        ("a b c d", 0x9E3779B97F4A7C15, 64, 0,
         "720ebbeef0f37b578d520a625d4306738e30e7bd0ea7dabc15cb4afc24293358"),
        ("a b c d", 0x9E3779B97F4A7C15, 128, 0xDEADBEEF,
         "f978b7d66ddc46077d635bf4aed17f35f85761a01d7c13de9466d8e677604631"),
        ("a b", 0x5EED, 64, 0,
         "a68831d6d708db0982bb89090061206741b399b36be665a60ed549afe1877140"),
        ("a b c", 0x5EED, 64, 0,
         "ea9067d28c1c7c15f8e71c19b52c81756d360c2dbb22cf4ca1422d2e9b7ae9f7"),
        ("a b c d e", 0x5EED, 64, 0,
         "979fe4cfad2a06d9b9f276d1b8e401461b70c419fb6a06933468f9ae925bdb7e"),
        ("a b c d e f g", 0x5EED, 64, 0,
         "f82d0b256c4e39b4dc3431d71d6c7999a10b1975f8a83d132349babf26d8f10a"),
    ], ids=["rank4-m64", "rank4-m128-high", "rank2-m64", "rank3-m64",
            "rank5-m64", "rank7-m64"])
    def test_golden_digests(self, names, seed, m, high, digest):
        fam = AutFamily(seed, Alphabet(tuple(names.split())), m)
        h = hashlib.sha256()
        for i in range(200):
            f = derive_automorphism(fam, (high << 64) | i)
            h.update(format_automorphism(f).encode())
            for w in f.images + f.inverse().images:
                h.update(b"\n" + str(w).encode())
            h.update(b"\n\n")
        assert h.hexdigest() == digest

    def test_master_seed_is_64_bit(self):
        for seed in (0, (1 << 64) - 1):
            assert AutFamily(seed, ABCD, 64).master_seed == seed
        for seed in (-1, 1 << 64, (1 << 64) + 5):
            with pytest.raises(PreconditionError):
                AutFamily(seed, ABCD, 64)

    def test_never_identity_and_distinct(self):
        fam = AutFamily(0xABCDEF, ABCD, 64)
        images = set()
        for i in range(16):
            f = derive_automorphism(fam, i)
            assert not f.is_identity()
            images.add(tuple(str(w) for w in f.images))
        assert len(images) == 16

    def test_readme_family_repeats_a_member(self):
        # members are not distinct by construction: 240 and 270 of the
        # README's rank-4 family draw the four inversions in two orders,
        # which is one map
        fam = AutFamily(0x1234, ABCD, 64)
        f, g = derive_automorphism(fam, 240), derive_automorphism(fam, 270)
        assert format_automorphism(f) != format_automorphism(g)
        assert f.images == g.images

    def test_large_index_uses_high_bits(self):
        fam = AutFamily(0x1, ABCD, 128)
        low = derive_automorphism(fam, 5)
        high = derive_automorphism(fam, 5 + (1 << 70))
        assert format_automorphism(low) != format_automorphism(high)

    def test_high_half_not_folded_into_low(self):
        # a seed of master ^ low ^ rotl64(high, 32) made these two collide
        fam = AutFamily(0x9E3779B97F4A7C15, ABCD, 128)
        for h, lo in ((0xDEADBEEF, 5), (1, 0), ((1 << 64) - 1, 0x1234)):
            rotl = ((h << 32) | (h >> 32)) & ((1 << 64) - 1)
            a = derive_automorphism(fam, (h << 64) | lo)
            b = derive_automorphism(fam, lo ^ rotl)
            assert format_automorphism(a) != format_automorphism(b)


class TestText:
    def test_lcg_lines_round_trip(self):
        text = format_lcg_lines(DEMO_LCG, 0x9E3779B97F4A7C15)
        params, seed = parse_lcg_lines(text)
        assert params == DEMO_LCG
        assert seed == 0x9E3779B97F4A7C15
        assert "seed = 9e3779b97f4a7c15" in text
