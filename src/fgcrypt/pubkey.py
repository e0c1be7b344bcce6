"""ElGamal-style key exchange over automorphism orbits.

Alice publishes f^n(a); Bob hides his message behind f^t of her key and
ships f^t(a) alongside; commuting powers make the pad cancel exactly.  The
matrix variant sends the first component through a faithful SL(2,Q)
representation instead.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Union

from .automorphisms import FactoredAutomorphism, parse_automorphism
from .errors import DecryptionError, PreconditionError
from .matrices import (Mat2Q, RepSpec, format_matrix, mat_mul, matrix_to_word,
                       parse_matrix, word_to_matrix)
from .words import (Alphabet, Word, concat, format_word, parse_kv_lines,
                    parse_word)

__all__ = [
    "PubkeyParams",
    "CipherPair",
    "alice_keygen",
    "bob_encrypt",
    "alice_decrypt",
    "bob_encrypt_matrix",
    "alice_decrypt_matrix",
    "write_pair_file",
    "parse_pair_file",
    "parse_params_file",
]

# the largest exponent n or t the scheme accepts
_MAX_EXPONENT = 32


@dataclass(frozen=True)
class PubkeyParams:
    """Public data: the base word a != 1 and an automorphism f intended to
    have infinite order.  Infinite order is not decidable from the factors;
    construction warns when f^k is the identity for some k <= 12."""

    alphabet: Alphabet
    a: Word
    f: FactoredAutomorphism
    rep: Optional[RepSpec] = None

    def __post_init__(self):
        if self.a.is_identity():
            raise PreconditionError("base word must not be the identity")
        if self.f.is_identity():
            raise PreconditionError("automorphism must not be the identity")
        if self.a.alphabet.names != self.alphabet.names:
            raise PreconditionError("base word alphabet differs")
        if self.f.alphabet.names != self.alphabet.names:
            raise PreconditionError("automorphism alphabet differs")
        g = self.f
        for k in range(2, 13):
            g = g.compose(self.f)
            if g.is_identity():
                warnings.warn(f"automorphism has finite order {k}; "
                              "the scheme expects infinite order", stacklevel=2)
                break

    def _check_exponent(self, n: int) -> None:
        if n < 1:
            raise PreconditionError("exponent must be >= 1")
        if n > _MAX_EXPONENT:
            raise PreconditionError(
                f"exponent {n} exceeds the cap {_MAX_EXPONENT}")


@dataclass(frozen=True)
class CipherPair:
    c1: Union[Word, Mat2Q]
    c2: Word


def alice_keygen(params: PubkeyParams, n: int) -> Word:
    """Alice's public element c = f^n(a)."""
    params._check_exponent(n)
    return params.f.power(n).apply(params.a)


def bob_encrypt(params: PubkeyParams, c: Word, m: Word, t: int) -> CipherPair:
    """(m * f^t(c), f^t(a)); both components freely reduced."""
    params._check_exponent(t)
    ft = params.f.power(t)
    return CipherPair(concat(m, ft.apply(c)), ft.apply(params.a))


def alice_decrypt(params: PubkeyParams, n: int, pair: CipherPair) -> Word:
    """c1 * f^n(c2)^-1; a wrong n silently yields a wrong word."""
    params._check_exponent(n)
    if not isinstance(pair.c1, Word):
        raise PreconditionError("word-variant decrypt needs a word c1")
    return concat(pair.c1, params.f.power(n).apply(pair.c2).inverse())


def bob_encrypt_matrix(params: PubkeyParams, c: Word, m: Word, t: int) -> CipherPair:
    """Matrix variant: c1 = g(m * f^t(c)) = g(m) * g(f^t(c)), c2 as before."""
    if params.rep is None:
        raise PreconditionError("matrix variant needs a representation")
    pair = bob_encrypt(params, c, m, t)
    return CipherPair(word_to_matrix(params.rep, pair.c1), pair.c2)


def alice_decrypt_matrix(params: PubkeyParams, n: int, pair: CipherPair,
                         decode_bound: int = 32) -> Word:
    """Recover g(m) = c1 * g(f^n(c2))^-1 exactly, then decode the word.

    Raises :class:`DecryptionError` when no word of length <= decode_bound
    evaluates to g(m), as with a wrong n; a miss is never anything else."""
    if params.rep is None:
        raise PreconditionError("matrix variant needs a representation")
    params._check_exponent(n)
    if not isinstance(pair.c1, Mat2Q):
        raise PreconditionError("matrix-variant decrypt needs a matrix c1")
    pad = params.f.power(n).apply(pair.c2).inverse()
    G = mat_mul(pair.c1, word_to_matrix(params.rep, pad))
    m = matrix_to_word(params.rep, G, decode_bound)
    if m is None:
        raise DecryptionError(
            f"no word of length <= {decode_bound} matches the recovered matrix")
    return m


# ---------------------------------------------------------------------------
# File formats (CLI exchange).
# ---------------------------------------------------------------------------

def write_pair_file(pair: CipherPair) -> str:
    if isinstance(pair.c1, Mat2Q):
        c1 = format_matrix(pair.c1)
    else:
        c1 = format_word(pair.c1)
    return f"c1 = {c1}\nc2 = {format_word(pair.c2)}\n"


def parse_pair_file(text: str, alphabet: Alphabet, matrix: bool = False) -> CipherPair:
    kv = parse_kv_lines(text, ("c1", "c2"))
    c1 = parse_matrix(kv["c1"]) if matrix else parse_word(kv["c1"], alphabet)
    return CipherPair(c1, parse_word(kv["c2"], alphabet))


def parse_params_file(text: str, aut_text: str,
                      rep: Optional[RepSpec] = None) -> PubkeyParams:
    """Assemble parameters from a params file plus the referenced
    automorphism file's text; the caller checks and resolves aut_file."""
    kv = parse_kv_lines(text, ("alphabet", "a"))
    alphabet = Alphabet(tuple(kv["alphabet"].split()))
    a = parse_word(kv["a"], alphabet)
    f = parse_automorphism(aut_text, alphabet)
    return PubkeyParams(alphabet, a, f, rep=rep)
