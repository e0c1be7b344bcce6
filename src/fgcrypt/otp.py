"""One-time-pad style cipher: each plaintext symbol is enciphered by a fresh
automorphism applied to its private subgroup-basis word.

Unit boundaries are preserved end to end (no cancellation ever happens
between adjacent units), so the receiver recovers each symbol independently,
either through inverse automorphisms or by matching the forward images of
the key words, which stops at the first match.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .automorphisms import FactoredAutomorphism
from .errors import (CapExceededError, DecryptionError, EncodingError,
                     PreconditionError, WordSyntaxError)
from .keystream import (
    _LCG_KEYS,
    AutFamily,
    LcgParams,
    Prg,
    _lcg_fields,
    derive_automorphism,
    format_lcg_lines,
    has_max_period,
    keystream,
)
from .nielsen import (
    GeneratingTuple,
    _as_tuple,
    _level_minimum,
    format_tuple,
    is_nielsen_reduced,
    nielsen_reduce,
    parse_tuple,
)
from .words import (Alphabet, Word, _Value, _parse_int, _same_alphabet,
                    format_word, parse_kv_lines, parse_word)

__all__ = [
    "CipherPublicParams",
    "CipherPrivateKey",
    "Ciphertext",
    "keygen",
    "encrypt",
    "decrypt",
    "build_cipher_table",
    "decrypt_with_table",
    "format_ciphertext",
    "parse_ciphertext",
    "write_key_file",
    "parse_key_file",
]

UNIT_SEPARATOR = " | "


class CipherPublicParams(_Value):
    __slots__ = _fields = ("alphabet", "plaintext_alphabet", "fam", "lcg")

    alphabet: Alphabet
    plaintext_alphabet: tuple[str, ...]
    fam: AutFamily
    lcg: LcgParams

    def __init__(self, alphabet: Alphabet, plaintext_alphabet: tuple[str, ...],
                 fam: AutFamily, lcg: LcgParams):
        plaintext_alphabet = tuple(plaintext_alphabet)
        if alphabet.rank < 2:
            raise PreconditionError("protocol requires rank >= 2")
        if len(plaintext_alphabet) < 2:
            raise PreconditionError("plaintext alphabet needs >= 2 symbols")
        if len(set(plaintext_alphabet)) != len(plaintext_alphabet):
            raise PreconditionError("plaintext symbols must be distinct")
        if not has_max_period(lcg):
            raise PreconditionError("the congruence generator must have "
                                    "maximal period")
        _same_alphabet(alphabet, fam.alphabet)
        if fam.m != lcg.m:
            raise PreconditionError("family and generator moduli differ")
        self._fill(alphabet, plaintext_alphabet, fam, lcg)

    @property
    def n_symbols(self) -> int:
        return len(self.plaintext_alphabet)


class CipherPrivateKey(_Value):
    """The subgroup basis (position k encodes symbol k) and the starting
    class alpha.  Any Nielsen reduced identity-free basis is accepted, and
    checked once, here; :func:`keygen` always produces the canonical form."""

    __slots__ = _fields = ("basis", "alpha")

    basis: GeneratingTuple
    alpha: int

    def __init__(self, basis: GeneratingTuple, alpha: int):
        if not all(basis.codes):
            raise PreconditionError("basis entries must be non-identity")
        if not is_nielsen_reduced(basis):
            raise PreconditionError("key basis must be Nielsen reduced")
        self._fill(basis, alpha)

    def validate(self, params: CipherPublicParams) -> None:
        """The checks that depend on ``params``; the basis itself was
        checked when the key was built."""
        # decrypt looks units up by their codes, which carry no alphabet
        _same_alphabet(params.alphabet, self.basis.alphabet)
        if len(self.basis) != params.n_symbols:
            raise PreconditionError("basis size must match the plaintext alphabet")
        if not 0 <= self.alpha < params.lcg.modulus:
            raise PreconditionError("alpha out of range")


class Ciphertext(_Value):
    __slots__ = _fields = ("units",)

    units: tuple[Word, ...]

    def __init__(self, units: tuple[Word, ...]):
        self._fill(tuple(units))

    def __len__(self):
        return len(self.units)

    def total_length(self) -> int:
        """The eavesdropper's observable L = sum of unit lengths."""
        return sum(len(u) for u in self.units)

    def __str__(self):
        return format_ciphertext(self)


def _random_codes(prg: Prg, rank: int, length: int) -> bytes:
    """The code string of a freely reduced word of ``length`` drawn letters."""
    n = 2 * rank
    codes = bytearray()
    for _ in range(length):
        if not codes:
            codes.append(prg.next() % n)
        else:
            # the r-th code other than the inverse of the previous letter
            r = prg.next() % (n - 1)
            codes.append(r + (r >= codes[-1] ^ 1))
    return bytes(codes)


# basis word lengths, the tuples keygen draws before it gives up, and the
# level size past which it draws a fresh tuple
_MIN_LEN, _MAX_LEN, _MAX_ATTEMPTS, _LEVEL_BUDGET = 2, 8, 10000, 10_000


def keygen(params: CipherPublicParams, prg: Prg) -> CipherPrivateKey:
    """Sample a canonical Nielsen reduced basis of rank N plus a start class.

    A drawn tuple whose level holds more than ``_LEVEL_BUDGET`` tuples is
    dropped and a fresh one drawn, so such subgroups never become keys.
    That is the bias of the key distribution: at rank 4 over the seeds
    0..9999 it dropped 0 of 10 000 full-rank draws at N=5 and 65 of
    10 065 (0.65%) at N=7."""
    n = params.n_symbols
    for _ in range(_MAX_ATTEMPTS):
        words = []
        for _ in range(n):
            length = _MIN_LEN + prg.next() % (_MAX_LEN - _MIN_LEN + 1)
            words.append(_random_codes(prg, params.alphabet.rank, length))
        reduced, _ = nielsen_reduce(_as_tuple(params.alphabet, words))
        if len(reduced) != n:
            continue
        try:
            basis = _level_minimum(reduced, _LEVEL_BUDGET)
        except CapExceededError:
            continue
        alpha = prg.next() % params.lcg.modulus
        key = CipherPrivateKey(basis, alpha)
        key.validate(params)
        return key
    raise RuntimeError("could not sample a full-rank basis")  # pragma: no cover


def _filter_symbols(params: CipherPublicParams,
                    plaintext: Union[str, Sequence[str]]) -> list[str]:
    known = set(params.plaintext_alphabet)
    out = []
    for pos, sym in enumerate(plaintext):
        if sym in known:
            out.append(sym)
        elif isinstance(sym, str) and sym.isspace():
            continue  # whitespace is stripped, mirroring spaced demo messages
        else:
            raise EncodingError(str(sym), pos)
    return out


def _automorphisms(params: CipherPublicParams, indices: Sequence[int],
                   overrides: Optional[Sequence[FactoredAutomorphism]]
                   ) -> list[FactoredAutomorphism]:
    """The automorphism of each keystream index, or the override for it."""
    if overrides is None:
        return [derive_automorphism(params.fam, x) for x in indices]
    z = len(indices)
    if len(overrides) < z:
        raise PreconditionError(
            f"need {z} override automorphisms, got {len(overrides)}")
    for f in overrides[:z]:
        _same_alphabet(params.alphabet, f.alphabet)
    return list(overrides[:z])


def encrypt(params: CipherPublicParams, key: CipherPrivateKey,
            plaintext: Union[str, Sequence[str]],
            automorphisms: Optional[Sequence[FactoredAutomorphism]] = None
            ) -> Ciphertext:
    """Encrypt symbol s_i with the i-th scheduled automorphism.

    ``automorphisms`` overrides the derived family (reproduction mode for
    externally specified schedules)."""
    key.validate(params)
    symbols = _filter_symbols(params, plaintext)
    if not symbols:
        return Ciphertext(())
    indices = keystream(params.lcg, key.alpha, len(symbols))
    auts = _automorphisms(params, indices, automorphisms)
    basis = key.basis.elements
    units = []
    for sym, f in zip(symbols, auts):
        t = params.plaintext_alphabet.index(sym)
        units.append(f.apply(basis[t]))
    return Ciphertext(tuple(units))


def decrypt(params: CipherPublicParams, key: CipherPrivateKey, c: Ciphertext,
            automorphisms: Optional[Sequence[FactoredAutomorphism]] = None
            ) -> list[str]:
    """Invert each scheduled automorphism and look the word up in the basis.

    Aborts with the failing unit index on any mismatch; no partial plaintext
    is ever returned."""
    key.validate(params)
    if not c.units:
        return []
    for unit in c.units:
        _same_alphabet(params.alphabet, unit.alphabet)
    indices = keystream(params.lcg, key.alpha, len(c.units))
    auts = _automorphisms(params, indices, automorphisms)
    out = []
    for i, (unit, f) in enumerate(zip(c.units, auts)):
        w = f.inverse().apply(unit)
        try:
            t = key.basis.codes.index(w.codes)
        except ValueError:
            raise DecryptionError(
                f"unit {i} does not decrypt to a key word", unit_index=i
            ) from None
        out.append(params.plaintext_alphabet[t])
    return out


def build_cipher_table(params: CipherPublicParams, key: CipherPrivateKey,
                       indices: Sequence[int],
                       automorphisms: Optional[Sequence[FactoredAutomorphism]] = None
                       ) -> list[list[Word]]:
    """The whole N x z table of forward images of the key words; row k lists
    f_{x_i}(u_k) across the scheduled automorphisms, or the overrides.
    :func:`decrypt_with_table` matches the same images column by column and
    builds only the cells up to each match."""
    auts = _automorphisms(params, indices, automorphisms)
    return [[f.apply(u) for f in auts] for u in key.basis]


def decrypt_with_table(params: CipherPublicParams, key: CipherPrivateKey,
                       c: Ciphertext,
                       automorphisms: Optional[Sequence[FactoredAutomorphism]] = None
                       ) -> list[str]:
    """Decryption by forward images, the cells of :func:`build_cipher_table`:
    unit i is compared with f_{x_i}(u_k) for k = 1, 2, ... in turn, and the
    search stops at the first match.  Must agree with :func:`decrypt`; a
    unit that no key word maps to raises at its index, after at most N
    images per unit up to it."""
    key.validate(params)
    if not c.units:
        return []
    for unit in c.units:
        _same_alphabet(params.alphabet, unit.alphabet)
    indices = keystream(params.lcg, key.alpha, len(c.units))
    auts = _automorphisms(params, indices, automorphisms)
    candidates = tuple(zip(key.basis, params.plaintext_alphabet))
    out = []
    for i, (unit, f) in enumerate(zip(c.units, auts)):
        codes = unit.codes
        for u, symbol in candidates:
            if f.apply(u).codes == codes:
                out.append(symbol)
                break
        else:
            raise DecryptionError(
                f"unit {i} not found in the cipher table", unit_index=i)
    return out


# ---------------------------------------------------------------------------
# File formats.
# ---------------------------------------------------------------------------

def format_ciphertext(c: Ciphertext) -> str:
    return UNIT_SEPARATOR.join(format_word(u) for u in c.units)


def parse_ciphertext(text: str, alphabet: Alphabet) -> Ciphertext:
    text = text.strip()
    if not text:
        return Ciphertext(())
    units = tuple(parse_word(part.strip(), alphabet)
                  for part in text.split("|"))
    return Ciphertext(units)


def write_key_file(params: CipherPublicParams, key: CipherPrivateKey) -> str:
    lines = [
        f"alphabet = {' '.join(params.alphabet.names)}",
        f"N = {params.n_symbols}",
        f"plaintext_alphabet = {' '.join(params.plaintext_alphabet)}",
        f"alpha = {key.alpha}",
        format_lcg_lines(params.lcg, params.fam.master_seed),
        format_tuple(key.basis),
    ]
    return "\n".join(lines) + "\n"


def parse_key_file(text: str) -> tuple[CipherPublicParams, CipherPrivateKey]:
    kv = parse_kv_lines(text, ("alphabet", "N", "plaintext_alphabet", "alpha",
                               *_LCG_KEYS))
    lcg, seed = _lcg_fields(kv)
    n, alpha = _parse_int(kv["N"]), _parse_int(kv["alpha"])
    alphabet = Alphabet(tuple(kv["alphabet"].split()))
    fam = AutFamily(seed, alphabet, lcg.m)
    params = CipherPublicParams(alphabet, tuple(kv["plaintext_alphabet"].split()),
                                fam, lcg)
    lines = [ln.strip() for ln in text.splitlines()]
    try:
        start = lines.index("begin tuple")
        end = lines.index("end tuple")
    except ValueError:
        raise WordSyntaxError("key file is missing the tuple block") from None
    basis = parse_tuple("\n".join(lines[start:end + 1]), alphabet)
    if n != len(basis):
        raise WordSyntaxError("N does not match the tuple size")
    key = CipherPrivateKey(basis, alpha)
    key.validate(params)
    return params, key
