"""Exact-rational 2x2 matrices and the faithful free-group representation.

Generator matrices come from the one-parameter family
``[[-r, r^2 - 1], [1, -r]]`` (determinant 1); a schedule with r_1 >= 2 and
gaps >= 3 generates a free group, so words evaluate injectively and the
decoder can recover the unique preimage.  Arithmetic is exact, with no
floating point anywhere.  The public API speaks `Mat2Q` with
`fractions.Fraction` entries; evaluation and the decoder run on an integer
kernel instead, a matrix being the tuple (n11, n12, n21, n22, den) of its
entries over a common denominator in lowest terms, so equal matrices are
equal tuples.  The meet-in-the-middle decoder carries inv(prefix) * M on
each search node, one kernel product per node, and looks it up in a table of
half-length products.
"""

from __future__ import annotations

import functools
import heapq
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    CapExceededError,
    PreconditionError,
    SingularMatrixError,
    WordSyntaxError,
)
from .nielsen import GeneratingTuple, nielsen_reduce
from .words import Alphabet, Word, ball_size

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
    "format_matrix_sequence",
    "parse_matrix_sequence",
]


@dataclass(frozen=True)
class Mat2Q:
    a11: Fraction
    a12: Fraction
    a21: Fraction
    a22: Fraction

    def __post_init__(self):
        for name in ("a11", "a12", "a21", "a22"):
            v = getattr(self, name)
            if not isinstance(v, Fraction):
                object.__setattr__(self, name, Fraction(v))

    @classmethod
    def identity(cls) -> "Mat2Q":
        return cls(Fraction(1), Fraction(0), Fraction(0), Fraction(1))

    def is_identity(self) -> bool:
        return self == Mat2Q.identity()

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a11, self.a12, self.a21, self.a22)

    def __mul__(self, other: "Mat2Q") -> "Mat2Q":
        return mat_mul(self, other)

    def __str__(self):
        return format_matrix(self)


def mat_mul(A: Mat2Q, B: Mat2Q) -> Mat2Q:
    return Mat2Q(
        A.a11 * B.a11 + A.a12 * B.a21,
        A.a11 * B.a12 + A.a12 * B.a22,
        A.a21 * B.a11 + A.a22 * B.a21,
        A.a21 * B.a12 + A.a22 * B.a22,
    )


def mat_det(A: Mat2Q) -> Fraction:
    return A.a11 * A.a22 - A.a12 * A.a21


def mat_inv(A: Mat2Q) -> Mat2Q:
    d = mat_det(A)
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    return Mat2Q(A.a22 / d, -A.a12 / d, -A.a21 / d, A.a11 / d)


def tl_generator(r) -> Mat2Q:
    """[[-r, r^2 - 1], [1, -r]]; always determinant 1."""
    r = Fraction(r)
    return Mat2Q(-r, r * r - 1, Fraction(1), -r)


def default_tl_params(k: int) -> tuple[Fraction, ...]:
    """Minimal schedule satisfying the constraints: 2, 5, 8, ..."""
    return tuple(Fraction(2 + 3 * j) for j in range(k))


def _check_tl_params(params: Sequence[Fraction]) -> None:
    params = [Fraction(r) for r in params]
    if not params:
        raise PreconditionError("need at least one parameter")
    if params[0] < 2:
        raise PreconditionError("first parameter must be >= 2")
    for a, b in zip(params, params[1:]):
        if b - a < 3:
            raise PreconditionError("parameter gaps must be >= 3")


@dataclass(frozen=True)
class RepSpec:
    """Images of the alphabet's generators in SL(2,Q)."""

    alphabet: Alphabet
    generator_matrices: tuple[Mat2Q, ...]

    def __post_init__(self):
        if isinstance(self.generator_matrices, list):
            object.__setattr__(self, "generator_matrices",
                               tuple(self.generator_matrices))
        if len(self.generator_matrices) != self.alphabet.rank:
            raise PreconditionError("need one matrix per generator")
        for M in self.generator_matrices:
            if mat_det(M) != 1:
                raise PreconditionError("generator matrices must have det 1")


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
    if gen_words is None:
        params = tuple(Fraction(r) for r in (tl_params
                                             or default_tl_params(alphabet.rank)))
        _check_tl_params(params)
        if len(params) != alphabet.rank:
            raise PreconditionError("need one parameter per generator")
        return RepSpec(alphabet, tuple(tl_generator(r) for r in params))
    gen_words = tuple(gen_words)
    if len(gen_words) != alphabet.rank:
        raise PreconditionError("need one word per generator")
    aux = gen_words[0].alphabet
    params = tuple(Fraction(r) for r in (tl_params
                                         or default_tl_params(aux.rank)))
    _check_tl_params(params)
    if len(params) != aux.rank:
        raise PreconditionError("need one parameter per auxiliary generator")
    reduced, _ = nielsen_reduce(GeneratingTuple(aux, gen_words))
    if len(reduced) != len(gen_words):
        raise PreconditionError("gen_words are not a basis (rank drops)")
    aux_spec = RepSpec(aux, tuple(tl_generator(r) for r in params))
    return RepSpec(alphabet, tuple(word_to_matrix(aux_spec, w) for w in gen_words))


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
# Exact integer kernel.  Evaluation and decoding run on plain ints: a matrix
# is the tuple (n11, n12, n21, n22, den) with entries n_ij / den, den > 0 and
# the gcd of all five numbers 1.  The form is unique, so equal matrices have
# equal tuples and a tuple serves as a dictionary key.  A product costs eight
# integer multiplies plus one gcd, and the gcd only when den != 1; the
# inverse of a determinant-1 matrix is its adjugate over the same den.
# Mat2Q and Fraction appear only at the public boundary.
# ---------------------------------------------------------------------------

_IDENTITY = (1, 0, 0, 1, 1)


def _to_kernel(M: Mat2Q) -> tuple[int, ...]:
    entries = M.entries()
    den = math.lcm(*(e.denominator for e in entries))
    return tuple(e.numerator * (den // e.denominator) for e in entries) + (den,)


def _from_kernel(K: tuple[int, ...]) -> Mat2Q:
    n11, n12, n21, n22, den = K
    return Mat2Q(Fraction(n11, den), Fraction(n12, den),
                 Fraction(n21, den), Fraction(n22, den))


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


def _ksize(K: tuple[int, ...]) -> int:
    """The decoder's measure: over the four entries in lowest terms, the bit
    lengths of |numerator| and denominator, summed."""
    n11, n12, n21, n22, den = K
    if den == 1:
        return (n11.bit_length() + n12.bit_length() + n21.bit_length()
                + n22.bit_length() + 4)
    total = 0
    for n in (n11, n12, n21, n22):
        g = math.gcd(n, den)
        total += (n // g).bit_length() + (den // g).bit_length()
    return total


def _letter_matrices(spec: RepSpec) -> dict[int, tuple[int, ...]]:
    out = {}
    for i, M in enumerate(spec.generator_matrices, start=1):
        n11, n12, n21, n22, den = out[i] = _to_kernel(M)
        out[-i] = (n22, -n12, -n21, n11, den)  # det 1: the adjugate
    return out


def word_to_matrix(spec: RepSpec, w: Word) -> Mat2Q:
    if w.alphabet.names != spec.alphabet.names:
        raise PreconditionError("word is over a different alphabet")
    mats = _letter_matrices(spec)
    out = _IDENTITY
    for s in w.signed:
        out = _kmul(out, mats[s])
    return _from_kernel(out)


# ---------------------------------------------------------------------------
# Decoding, on kernel tuples.  Three stages:
#   1. greedy peel following any strict decrease of the bit-size measure;
#   2. best-first search ordered by the same measure (bounded node budget) --
#      a found word is self-verifying, so the heuristic order is safe;
#   3. exhaustive meet-in-the-middle for a sound "absent" answer within the
#      bound.  A half-ball table maps each product of up to h2 letters to its
#      word (tables for the few most recently used representations are kept);
#      each node of the other half carries inv(prefix) * M, the key to look
#      up, extended by left-multiplying the inverse of the next letter.
# Faithfulness makes preimages unique, so any hit is the shortest word.
# ---------------------------------------------------------------------------

_SEARCH_BUDGET = 50_000
_MITM_CAP = 200_000
_TABLE_CACHE_SIZE = 4


def _letter_order(mats) -> list[int]:
    return sorted(mats, key=lambda s: (abs(s), s < 0))


def _greedy_peel(spec: RepSpec, M: tuple[int, ...],
                 max_len: int) -> Optional[list[int]]:
    mats = _letter_matrices(spec)
    order = _letter_order(mats)
    letters: list[int] = []
    cur = M
    size = _ksize(cur)
    while cur != _IDENTITY:
        if len(letters) >= max_len:
            return None
        found = None
        for s in order:
            if letters and s == -letters[-1]:
                continue
            cand = _kmul(mats[-s], cur)
            cand_size = _ksize(cand)
            if cand_size < size:
                found = (s, cand, cand_size)
                break
        if found is None:
            return None
        s, cur, size = found
        letters.append(s)
    return letters


def _best_first(spec: RepSpec, M: tuple[int, ...], max_len: int,
                budget: int = _SEARCH_BUDGET) -> Optional[list[int]]:
    mats = _letter_matrices(spec)
    order = _letter_order(mats)
    counter = 0
    heap = [(_ksize(M), 0, (), M)]
    while heap and counter < budget:
        counter += 1
        _, _, letters, cur = heapq.heappop(heap)
        if cur == _IDENTITY:
            return list(letters)
        if len(letters) >= max_len:
            continue
        for s in order:
            if letters and s == -letters[-1]:
                continue
            nxt = _kmul(mats[-s], cur)
            heapq.heappush(heap, (_ksize(nxt), counter * 8 + abs(s),
                                  letters + (s,), nxt))
    return None


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _half_table(spec: RepSpec, depth: int) -> dict[tuple, tuple[int, ...]]:
    mats = _letter_matrices(spec)
    order = _letter_order(mats)
    table: dict[tuple, tuple[int, ...]] = {_IDENTITY: ()}
    frontier = [((), _IDENTITY)]
    for _ in range(depth):
        nxt = []
        for letters, mat in frontier:
            for s in order:
                if letters and s == -letters[-1]:
                    continue
                word, prod = letters + (s,), _kmul(mat, mats[s])
                nxt.append((word, prod))
                table.setdefault(prod, word)
        frontier = nxt
    return table


def _meet_in_middle(spec: RepSpec, M: tuple[int, ...],
                    max_len: int) -> Optional[list[int]]:
    h2 = max_len // 2
    h1 = max_len - h2
    q = spec.alphabet.rank
    if ball_size(q, h2) > _MITM_CAP or ball_size(q, h1) > _MITM_CAP:
        raise CapExceededError(
            f"cannot certify absence within length {max_len} at rank {q}; "
            "the exhaustive half-ball exceeds the cap")
    table = _half_table(spec, h2)
    mats = _letter_matrices(spec)
    order = _letter_order(mats)
    best: Optional[tuple[int, ...]] = None

    def consider(letters: tuple[int, ...], rest_mat: tuple[int, ...]):
        nonlocal best
        rest = table.get(rest_mat)
        if rest is None:
            return
        if letters and rest and rest[0] == -letters[-1]:
            return  # would cancel at the seam: not a reduced concatenation
        if len(letters) + len(rest) > max_len:
            return
        cand = letters + rest
        if best is None or len(cand) < len(best):
            best = cand

    # each node is (prefix, inv(prefix) * M)
    frontier = [((), M)]
    consider((), M)
    for _ in range(h1):
        nxt = []
        for letters, rest_mat in frontier:
            for s in order:
                if letters and s == -letters[-1]:
                    continue
                item = (letters + (s,), _kmul(mats[-s], rest_mat))
                nxt.append(item)
                consider(*item)
        frontier = nxt
    return list(best) if best is not None else None


def matrix_to_word(spec: RepSpec, M: Mat2Q, max_len: int,
                   search_budget: int = _SEARCH_BUDGET) -> Optional[Word]:
    """The unique word of length <= max_len evaluating to M, or None.

    Raises :class:`CapExceededError` when no word is found heuristically and
    the bound is too large to certify absence exhaustively."""
    if mat_det(M) != 1:
        raise PreconditionError("matrix must have determinant 1")
    if max_len < 0:
        raise PreconditionError("max_len must be >= 0")
    K = _to_kernel(M)
    letters = _greedy_peel(spec, K, max_len)
    if letters is None:
        # a short guided pass catches most members the greedy missed
        letters = _best_first(spec, K, max_len, min(2000, search_budget))
    if letters is None:
        # exhaustive search settles small bounds outright; otherwise spend
        # the full budget before certifying absence
        q = spec.alphabet.rank
        if ball_size(q, max_len - max_len // 2) <= 20_000:
            letters = _meet_in_middle(spec, K, max_len)
        else:
            letters = _best_first(spec, K, max_len, search_budget)
            if letters is None:
                letters = _meet_in_middle(spec, K, max_len)
    if letters is None:
        return None
    return Word(spec.alphabet, letters)


# --- textual form -----------------------------------------------------------

def _format_entry(e: Fraction) -> str:
    if e.denominator == 1:
        return str(e.numerator)
    return f"{e.numerator}/{e.denominator}"


def format_matrix(M: Mat2Q) -> str:
    return (f"[[{_format_entry(M.a11)}, {_format_entry(M.a12)}],"
            f"[{_format_entry(M.a21)}, {_format_entry(M.a22)}]]")


# entries are [+-]int or [+-]int/int, as written by format_matrix; Fraction's
# own grammar would also take exponents, so "1e99999999" would cost minutes
_ENTRY = r"\s*([+-]?[0-9]+(?:/[0-9]+)?)\s*"
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


def format_matrix_sequence(matrices: Sequence[Mat2Q]) -> str:
    """Whole-ciphertext form: matrices separated by ' | '."""
    return " | ".join(format_matrix(M) for M in matrices)


def parse_matrix_sequence(text: str) -> tuple[Mat2Q, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_matrix(part) for part in text.split("|"))
