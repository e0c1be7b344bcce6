"""Modulus-2^m linear congruence generator, its maximal-period test, and the
seed-derived family of automorphisms indexed by residue classes.

The family with 2^m members is never materialized; member i is a pure
function of (master_seed, i) through a seeded draw (splitmix64 below 2^64,
SHA-256 above), so both parties derive identical automorphisms from the
shared seed.
"""

from __future__ import annotations

import hashlib

from .automorphisms import FactoredAutomorphism, random_whitehead_automorphism
from .errors import PreconditionError
from .words import Alphabet, _Value, _parse_int, parse_kv_lines

__all__ = [
    "LcgParams",
    "Prg",
    "AutFamily",
    "lcg_next",
    "has_max_period",
    "keystream",
    "derive_automorphism",
    "splitmix64",
    "format_lcg_lines",
    "parse_lcg_lines",
]

_MASK64 = (1 << 64) - 1


class Prg:
    """Deterministic 64-bit generator (splitmix64); single-owner iterator."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise PreconditionError("PRG seed must be in 0..2^64-1")
        self.state = seed

    def next(self) -> int:
        """One splitmix64 step, the package's only one: the state advances
        by the golden gamma and the output mixes it, all mod 2^64."""
        self.state = z = (self.state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return z ^ (z >> 31)


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step from ``state`` in 0..2^64-1: returns
    (next_state, output), all mod 2^64."""
    prg = Prg(state)
    out = prg.next()
    return prg.state, out


class LcgParams(_Value):
    """x -> beta*x + gamma on Z_(2^m)."""

    __slots__ = _fields = ("m", "beta", "gamma")

    m: int
    beta: int
    gamma: int

    def __init__(self, m: int, beta: int, gamma: int):
        if not 1 <= m <= 128:
            raise PreconditionError("modulus exponent m must be in 1..128")
        self._fill(m, beta, gamma)

    @property
    def modulus(self) -> int:
        return 1 << self.m


def lcg_next(p: LcgParams, x: int) -> int:
    return (p.beta * x + p.gamma) % p.modulus


def has_max_period(p: LcgParams) -> bool:
    """Period equals 2^m iff beta odd, beta = 1 mod 4 when m >= 2, gamma odd."""
    if p.beta % 2 == 0:
        return False
    if p.m >= 2 and p.beta % 4 != 1:
        return False
    return p.gamma % 2 == 1


def keystream(p: LcgParams, alpha: int, z: int) -> list[int]:
    """The index schedule x_1 = alpha, x_{k+1} = beta*x_k + gamma (z terms)."""
    if z < 1:
        raise PreconditionError("keystream length must be >= 1")
    x = alpha % p.modulus
    out = [x]
    for _ in range(z - 1):
        x = lcg_next(p, x)
        out.append(x)
    return out


class AutFamily(_Value):
    """Lazily derived family of 2^m automorphisms, one per residue class,
    from a ``master_seed`` in 0..2^64-1.

    Members come from at most 2^64 derivation seeds, so they are distinct
    only with high probability, never by construction."""

    __slots__ = _fields = ("master_seed", "alphabet", "m")

    master_seed: int
    alphabet: Alphabet
    m: int

    def __init__(self, master_seed: int, alphabet: Alphabet, m: int):
        if not 1 <= m <= 128:
            raise PreconditionError("modulus exponent m must be in 1..128")
        if not 0 <= master_seed <= _MASK64:
            raise PreconditionError("master seed must be in 0..2^64-1")
        self._fill(master_seed, alphabet, m)


def derive_automorphism(fam: AutFamily, index: int) -> FactoredAutomorphism:
    """Member ``index`` of the family; referentially transparent.

    Indices below 2^64 seed from one splitmix64 step.  Above, the seed is the
    first 8 bytes of SHA-256 over the master seed and both 64-bit halves:
    any splitmix64/XOR mix of public values can be solved for a colliding
    index."""
    index %= 1 << fam.m
    low = index & _MASK64
    high = index >> 64
    if high == 0:
        _, seed = splitmix64(fam.master_seed ^ low)
    else:
        data = b"".join(x.to_bytes(8, "big")
                        for x in (fam.master_seed, low, high))
        seed = int.from_bytes(hashlib.sha256(data).digest()[:8], "big")
    return random_whitehead_automorphism(Prg(seed), fam.alphabet)


# --- textual form -----------------------------------------------------------

def format_lcg_lines(p: LcgParams, seed: int) -> str:
    return (f"m = {p.m}\nbeta = {p.beta}\ngamma = {p.gamma}\n"
            f"seed = {seed:016x}")


_LCG_KEYS = ("m", "beta", "gamma", "seed")


def _lcg_fields(kv: dict[str, str]) -> tuple[LcgParams, int]:
    params = LcgParams(*(_parse_int(kv[key]) for key in ("m", "beta", "gamma")))
    return params, _parse_int(kv["seed"], 16)


def parse_lcg_lines(text: str) -> tuple[LcgParams, int]:
    return _lcg_fields(parse_kv_lines(text, _LCG_KEYS))
