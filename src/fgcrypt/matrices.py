"""Exact-rational 2x2 matrices and the faithful free-group representation.

Generator matrices come from the one-parameter family
``[[-r, r^2 - 1], [1, -r]]`` (determinant 1).  As a Moebius map the family
matrix of r sends everything outside (r - 1, r + 1) into (-r - 1, -r + 1),
and its inverse does the reverse; with r_1 >= 2 and gaps >= 3 these 2q open
intervals are pairwise disjoint and miss 0, so by the ping-pong lemma
(Klein's criterion; Lyndon-Schupp, Combinatorial Group Theory) the matrices
generate a free group, words evaluate injectively, and a reduced word
w != 1 sends 0 into the interval of its first letter.  The decoder reads the
letters off one at a time that way, with no search.  Arithmetic is exact,
with no floating point anywhere: a `Mat2Q` is an integer tuple, and
products, evaluation and the decoder run on plain ints.  Each `RepSpec`
derives the tuples of its letters and their inverses once, by letter code
(as `Word.codes` holds them), and every evaluation reads that table.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (CapExceededError, PreconditionError, SingularMatrixError,
                     WordSyntaxError)
from .nielsen import (GeneratingTuple, _express, _strip_candidates,
                      apply_moves, nielsen_reduce)
from .words import (_INTEGER, Alphabet, Word, _Value, _invert_codes,
                    _same_alphabet, _substitute, generators)

__all__ = [
    "Mat2Q",
    "RepSpec",
    "mat_mul",
    "mat_inv",
    "mat_det",
    "tl_generator",
    "default_tl_params",
    "make_representation",
    "demo_representation",
    "word_to_matrix",
    "matrix_to_word",
    "parse_matrix",
    "format_matrix",
]


_IDENTITY = (1, 0, 0, 1, 1)

# the largest entry (numerator or denominator) an evaluation may produce:
# 2^14284 < 10^4300, so every entry prints in at most 4300 decimal digits,
# the most that str() and int() convert by default (and so the most that
# parse_matrix and words._parse_int read back)
_MAX_ENTRY_BITS = 14_284


class Mat2Q(_Value):
    """A 2x2 rational matrix [[a11, a12], [a21, a22]].

    Stored as one integer tuple ``k = (n11, n12, n21, n22, den)`` with entries
    n_ij / den, den > 0 and the gcd of all five numbers 1.  The form is
    unique, so equal matrices have equal tuples and a tuple serves as a
    dictionary key.  ``Mat2Q(a11, a12, a21, a22)`` takes anything
    ``Fraction()`` takes; ``entries()`` is the ``Fraction`` view."""

    __slots__ = _fields = ("k",)

    k: tuple[int, int, int, int, int]

    def __init__(self, a11, a12, a21, a22):
        entries = [Fraction(a) for a in (a11, a12, a21, a22)]
        den = math.lcm(*(e.denominator for e in entries))
        self._fill(tuple(
            e.numerator * (den // e.denominator) for e in entries) + (den,))

    @classmethod
    def identity(cls) -> "Mat2Q":
        return cls._make(_IDENTITY)

    def is_identity(self) -> bool:
        return self.k == _IDENTITY

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        *nums, den = self.k
        return tuple(Fraction(n, den) for n in nums)

    def __str__(self):
        return format_matrix(self)


def mat_mul(A: Mat2Q, B: Mat2Q) -> Mat2Q:
    return Mat2Q._make(_kmul(A.k, B.k))


def mat_det(A: Mat2Q) -> Fraction:
    n11, n12, n21, n22, den = A.k
    return Fraction(n11 * n22 - n12 * n21, den * den)


def mat_inv(A: Mat2Q) -> Mat2Q:
    n11, n12, n21, n22, den = A.k
    d = mat_det(A) * den  # A^-1 is the adjugate's numerators over den * det
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    return Mat2Q(*(n / d for n in (n22, -n12, -n21, n11)))


def tl_generator(r) -> Mat2Q:
    """[[-r, r^2 - 1], [1, -r]]; always determinant 1."""
    r = Fraction(r)
    return Mat2Q(-r, r * r - 1, Fraction(1), -r)


def default_tl_params(k: int) -> tuple[Fraction, ...]:
    """Minimal schedule satisfying the constraints: 2, 5, 8, ..."""
    return tuple(Fraction(2 + 3 * j) for j in range(k))


def _check_tl_params(params: Sequence[Fraction]) -> None:
    if not params:
        raise PreconditionError("need at least one parameter")
    if params[0] < 2:
        raise PreconditionError("first parameter must be >= 2")
    for a, b in zip(params, params[1:]):
        if b - a < 3:
            raise PreconditionError("parameter gaps must be >= 3")


class RepSpec(_Value):
    """A faithful representation of the alphabet's free group in SL(2,Q).

    Without ``gen_words`` generator i maps to the family matrix of
    ``tl_params[i-1]``.  With ``gen_words`` -- words over an auxiliary
    alphabet with one parameter per letter, forming a basis of the subgroup
    H they generate -- generator i maps to the product of family matrices
    along ``gen_words[i-1]``.  The schedule must satisfy the ping-pong
    precondition (r_1 >= 2, gaps >= 3), checked here.

    Derived, and read by neither equality, hashing nor ``repr``:
    ``generator_matrices``, the kernel tuples of them and of their
    inverses (one table per spec, read by every evaluation); for
    ``gen_words`` specs also ``basis_words``, the words v_i over the
    alphabet with basis_i = v_i(gen_words) for the Nielsen reduced basis
    of H, which carry a decoded auxiliary word back to the alphabet's own
    letters.  The basis is checked and its membership strips are built
    here, once per spec."""

    __slots__ = ("alphabet", "tl_params", "gen_words", "generator_matrices",
                 "basis_words", "_letters", "_ping_pong", "_strips")
    _fields = ("alphabet", "tl_params", "gen_words")

    alphabet: Alphabet
    tl_params: tuple[Fraction, ...]
    gen_words: Optional[tuple[Word, ...]]
    generator_matrices: tuple[Mat2Q, ...]
    basis_words: Optional[GeneratingTuple]

    def __init__(self, alphabet: Alphabet, tl_params: Sequence,
                 gen_words: Optional[Sequence[Word]] = None):
        params = tuple(Fraction(r) for r in tl_params)
        _check_tl_params(params)
        basis_words, strips = None, None
        if gen_words is None:
            if len(params) != alphabet.rank:
                raise PreconditionError("need one parameter per generator")
            mats = tuple(tl_generator(r) for r in params)
        else:
            gen_words = tuple(gen_words)
            if len(gen_words) != alphabet.rank:
                raise PreconditionError("need one word per generator")
            aux = gen_words[0].alphabet
            if len(params) != aux.rank:
                raise PreconditionError(
                    "need one parameter per auxiliary generator")
            basis, moves = nielsen_reduce(GeneratingTuple(aux, gen_words))
            if len(basis) != len(gen_words):
                raise PreconditionError(
                    "gen_words are not a basis (rank drops)")
            family = RepSpec(aux, params)
            mats = tuple(word_to_matrix(family, w) for w in gen_words)
            own = GeneratingTuple(alphabet, generators(alphabet))
            basis_words = apply_moves(own, moves)
            strips = _strip_candidates(basis)
        letters = _letter_kernels(enumerate(M.k for M in mats))
        ping_pong = (_peel_table(params, letters) if gen_words is None
                     else family._ping_pong)  # the family's own table
        self._fill(alphabet, params, gen_words, mats, basis_words, letters,
                   ping_pong, strips)


def make_representation(alphabet: Alphabet,
                        gen_words: Optional[Sequence[Word]] = None,
                        tl_params: Optional[Sequence] = None) -> RepSpec:
    """Build a representation from the matrix family.

    Without ``gen_words`` the generators map straight to the scheduled family
    matrices (default schedule 2, 5, 8, ...).  With ``gen_words`` -- words
    over an auxiliary alphabet -- each generator maps to the corresponding
    product of family matrices; the words must form a basis of the subgroup
    they generate (no rank drop under Nielsen reduction).
    """
    if gen_words is not None:
        gen_words = tuple(gen_words)
    rank = gen_words[0].alphabet.rank if gen_words else alphabet.rank
    return RepSpec(alphabet, tuple(tl_params or default_tl_params(rank)),
                   gen_words)


def demo_representation(alphabet: Alphabet) -> RepSpec:
    """Bundled rank-4 preset: parameters 7/2, 15/2, 23/2 with generator
    words (y1 y2, y3 y1^2, y2 y3 y2, y1^-1 y2)."""
    if alphabet.rank != 4:
        raise PreconditionError("the demo preset maps a rank-4 alphabet")
    aux = Alphabet(("y1", "y2", "y3"))
    words = tuple(aux.parse(s) for s in
                  ("y1 y2", "y3 y1^2", "y2 y3 y2", "y1^-1 y2"))
    return make_representation(alphabet, gen_words=words,
                               tl_params=(Fraction(7, 2), Fraction(15, 2),
                                          Fraction(23, 2)))


# ---------------------------------------------------------------------------
# Integer kernel, on `Mat2Q.k` tuples.  A product costs eight integer
# multiplies plus one gcd, and the gcd only when den != 1; the inverse of a
# determinant-1 matrix is its adjugate over the same den.
# ---------------------------------------------------------------------------

def _kmul(A: tuple[int, ...], B: tuple[int, ...]) -> tuple[int, ...]:
    a11, a12, a21, a22, p = A
    b11, b12, b21, b22, q = B
    n11 = a11 * b11 + a12 * b21
    n12 = a11 * b12 + a12 * b22
    n21 = a21 * b11 + a22 * b21
    n22 = a21 * b12 + a22 * b22
    den = p * q
    if den != 1:
        g = math.gcd(n11, n12, n21, n22, den)
        if g != 1:
            return (n11 // g, n12 // g, n21 // g, n22 // g, den // g)
    return (n11, n12, n21, n22, den)


def _letter_kernels(kernels: Iterable[tuple[int, tuple[int, ...]]]) -> dict:
    """Kernel tuples by letter code, per (i, kernel) of x_(i+1): code 2i,
    and 2i + 1 for the inverse."""
    out = {}
    for i, k in kernels:
        n11, n12, n21, n22, den = out[2 * i] = k
        out[2 * i + 1] = (n22, -n12, -n21, n11, den)  # det 1: the adjugate
    return out


def word_to_matrix(spec: RepSpec, w: Word) -> Mat2Q:
    return _evaluate(spec, w)


def _evaluate(spec: RepSpec, w: Word, start: Mat2Q = Mat2Q.identity(),
              images: Optional[Sequence[bytes]] = None,
              inverse: bool = False) -> Mat2Q:
    """start times the value of w, or with ``images`` (code strings) of its
    image under x_i -> images[i-1], from the value of each image w uses:
    the image word is never built.  With ``inverse``, of w^-1 instead, read
    along the codes of w^-1, so no Word of it is built.  The first product
    with an entry past the cap raises, so the work stays bounded by the cap
    and the letters read."""
    _same_alphabet(spec.alphabet, w.alphabet)
    kernels = spec._letters
    if images is not None:
        kernels = _letter_kernels(
            (i, _evaluate(spec, Word._make(spec.alphabet, images[i])).k)
            for i in {c >> 1 for c in set(w.codes)})
    out = start.k
    for c in _invert_codes(w.codes) if inverse else w.codes:
        out = _kmul(out, kernels[c])
        bits = max(max(out), -min(out)).bit_length()
        if bits > _MAX_ENTRY_BITS:
            raise CapExceededError(f"a product has a {bits}-bit entry; "
                                   f"the cap is {_MAX_ENTRY_BITS}")
    return Mat2Q._make(out)


# ---------------------------------------------------------------------------
# Decoding, on kernel tuples: one exact ping-pong peel.  Letter s of the
# family sends everything outside the interval of s^-1 into its own open
# interval, so a reduced word w != 1 sends 0 into the interval of its first
# letter.  M(0) = n12/n22 thus names the first letter, or no word at all when
# it lies in no interval; left-multiplying by that letter's inverse leaves
# the rest of the word, and the peel stops at the identity.  The intervals
# are compared by integer cross-multiplication.  The peeled letters always
# form a reduced word, and faithfulness makes it the unique preimage.
# ---------------------------------------------------------------------------

def _peel_table(params: Sequence[Fraction], kernels: dict) -> tuple:
    """Per letter code c of the family with letter table ``kernels``:
    (c, lo, hi, q, kernel of the inverse letter), where (lo/q, hi/q) is the
    open interval that the letter maps into."""
    table = []
    for c, r in zip(range(0, 2 * len(params), 2), params):
        p, q = r.numerator, r.denominator
        table.append((c, -p - q, q - p, q, kernels[c + 1]))
        table.append((c + 1, p - q, p + q, q, kernels[c]))
    return tuple(table)


def _peel(table: tuple, M: tuple[int, ...], limit: int) -> Optional[bytes]:
    letters = bytearray()
    cur = M
    while cur != _IDENTITY:
        if len(letters) >= limit:
            return None
        b, d = cur[1], cur[3]
        if d < 0:
            b, d = -b, -d
        for c, lo, hi, q, inverse in table:
            if lo * d < b * q < hi * d:
                break
        else:
            return None  # includes d == 0: M(0) is infinity
        letters.append(c)
        cur = _kmul(inverse, cur)
    return bytes(letters)


def matrix_to_word(spec: RepSpec, M: Mat2Q, max_len: int) -> Optional[Word]:
    """The unique word of length <= max_len evaluating to M, or None.

    A ``gen_words`` spec peels the auxiliary word (at most max_len times the
    longest generator word), expresses it over the Nielsen reduced basis and
    carries that expression back to the alphabet's letters.  The peeled
    letters always form a reduced word, so they are wrapped as they are."""
    n11, n12, n21, n22, den = K = M.k
    if n11 * n22 - n12 * n21 != den * den:
        raise PreconditionError("matrix must have determinant 1")
    if max_len < 0:
        raise PreconditionError("max_len must be >= 0")
    if spec.gen_words is None:
        letters = _peel(spec._ping_pong, K, max_len)
        return None if letters is None else Word._make(spec.alphabet, letters)
    limit = max_len * max(len(g) for g in spec.gen_words)
    letters = _peel(spec._ping_pong, K, limit)
    if letters is None:
        return None
    expr = _express(spec._strips, letters)
    if expr is None:
        return None
    w = _substitute(spec.basis_words.codes, expr)
    return Word._make(spec.alphabet, w) if len(w) <= max_len else None


# --- textual form -----------------------------------------------------------

def _format_entry(n: int, den: int) -> str:
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def format_matrix(M: Mat2Q) -> str:
    *nums, den = M.k
    a11, a12, a21, a22 = (_format_entry(n, den) for n in nums)
    return f"[[{a11}, {a12}],[{a21}, {a22}]]"


# entries are [+-]int or [+-]int/int, as written by format_matrix; Fraction's
# own grammar would also take exponents, so "1e99999999" would cost minutes
_ENTRY = rf"\s*({_INTEGER}(?:/[0-9]+)?)\s*"
_MATRIX_RE = re.compile(
    rf"\s*\[\s*\[{_ENTRY},{_ENTRY}\]\s*,\s*\[{_ENTRY},{_ENTRY}\]\s*\]\s*$")


def parse_matrix(text: str) -> Mat2Q:
    m = _MATRIX_RE.match(text)
    if not m:
        raise WordSyntaxError(f"bad matrix text {text!r}")
    try:
        entries = [Fraction(part) for part in m.groups()]
    except (ValueError, ZeroDivisionError):
        raise WordSyntaxError(f"bad matrix entry in {text!r}") from None
    return Mat2Q(*entries)
