"""Modulus-2^m linear congruence generator, its maximal-period test, and the
seed-derived family of automorphisms indexed by residue classes.

The family with 2^m members is never materialized; member i is a pure
function of (master_seed, i) through a seeded draw (splitmix64 below 2^64,
SHA-256 above), so both parties derive identical automorphisms from the
shared seed.

splitmix64 is counter-based: its k-th output is a pure function of
seed + k*gamma mod 2^64.  So :func:`_splitmix_lanes`, its one body, mixes
a block of outputs at once in a single Python int of 128-bit lanes, and
:class:`Prg` hands out ``_LANES`` of them per block; :func:`splitmix64` is
the 1-lane case.
"""

from __future__ import annotations

import hashlib
import struct

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
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's state increment, the golden gamma


def _lane_constants(n: int) -> tuple[int, int, int]:
    """For n 128-bit lanes: a 1 in each lane, 2^64-1 in each lane (the
    low-half mask), and (k+1)*gamma mod 2^64 in lane k."""
    ones = sum(1 << 128 * k for k in range(n))
    gammas = sum(((k + 1) * _GAMMA & _MASK64) << 128 * k for k in range(n))
    return ones, ones * _MASK64, gammas


def _splitmix_lanes(state: int, lanes: tuple[int, int, int]) -> int:
    """splitmix64, the package's only body, on every lane at once: lane k
    of the result holds, in its low 64 bits, the output of state advanced
    k+1 times.  Every xor-shift is masked to the low half of each lane, so
    no lane leaks into its neighbour, and a low half times a 64-bit
    multiplier fits in its 128-bit lane.  The last xor-shift is unmasked:
    it leaves its spill in the high halves, which no reader looks at (with
    one lane there is none)."""
    ones, low, gammas = lanes
    z = (state * ones + gammas) & low
    z = ((z ^ ((z >> 30) & low)) * 0xBF58476D1CE4E5B9) & low
    z = ((z ^ ((z >> 27) & low)) * 0x94D049BB133111EB) & low
    return z ^ (z >> 31)


# outputs per Prg block, chosen by measurement (ROADMAP: 24 to 96 lanes
# derive a rank-4 map within 1 us of each other, 48 the fastest), and the
# lane constants, built once at import; a block is read back in explicit
# little-endian byte order, so lane k is output k whatever the platform
_LANES = 48
_BLOCK = _lane_constants(_LANES)
_ONE_LANE = _lane_constants(1)
_BLOCK_BYTES = 16 * _LANES
_UNPACK_BLOCK = struct.Struct("<" + "Q8x" * _LANES).unpack


def _check_state(state: int) -> None:
    if not 0 <= state <= _MASK64:
        raise PreconditionError("PRG seed must be in 0..2^64-1")


class Prg:
    """Deterministic 64-bit generator (splitmix64); single-owner iterator.

    Draws come from a buffer refilled ``_LANES`` outputs at a time by
    :func:`_splitmix_lanes`, bit for bit the outputs of one splitmix64 step
    per draw.  ``state`` is read-only: the splitmix64 state after the draws
    handed out so far, seed + draws*gamma mod 2^64.  A copy or pickle is a
    fresh ``Prg(state)``: it continues the same sequence, independently."""

    # the state after the last buffered output; the buffered outputs, the
    # next one last
    __slots__ = ("_end", "_buffer")

    def __init__(self, seed: int):
        _check_state(seed)
        self._end = seed
        self._buffer: list[int] = []

    @property
    def state(self) -> int:
        return (self._end - len(self._buffer) * _GAMMA) & _MASK64

    def next(self) -> int:
        """The next output; an empty buffer is refilled with a block."""
        try:
            return self._buffer.pop()
        except IndexError:
            return self._refill()

    def _refill(self) -> int:
        state = self._end
        self._end = (state + _LANES * _GAMMA) & _MASK64
        block = _splitmix_lanes(state, _BLOCK).to_bytes(_BLOCK_BYTES, "little")
        buffer = list(_UNPACK_BLOCK(block))
        buffer.reverse()
        self._buffer = buffer
        return buffer.pop()

    def __reduce__(self):
        # a generator seeded at this state continues the same sequence
        return Prg, (self.state,)


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step from ``state`` in 0..2^64-1: returns
    (next_state, output), all mod 2^64."""
    _check_state(state)
    return (state + _GAMMA) & _MASK64, _splitmix_lanes(state, _ONE_LANE)


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

    Members are not distinct by construction: the sampler refuses only the
    identity.  Over 2^16 sampled members of families with master seed
    0x1234 and m = 64, two are equal with probability 5.0e-4 at rank 2,
    2.7e-5 at rank 3 and 9.0e-6 at rank 4 (members 240 and 270 at rank 4),
    and about 1% (1.56% at rank 2, 1.00% at rank 4) permute and invert the
    generators."""

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
        seed = _splitmix_lanes(fam.master_seed ^ low, _ONE_LANE)
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
