"""Exact-rational 2x2 matrices and the faithful free-group representation.

Generator matrices come from the one-parameter family
``[[-r, r^2 - 1], [1, -r]]`` (determinant 1); a schedule with r_1 >= 2 and
gaps >= 3 generates a free group, so words evaluate injectively and the
decoder can recover the unique preimage.  Everything is `fractions.Fraction`
arithmetic; no floating point anywhere.
"""

from __future__ import annotations

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


def word_to_matrix(spec: RepSpec, w: Word) -> Mat2Q:
    if w.alphabet.names != spec.alphabet.names:
        raise PreconditionError("word is over a different alphabet")
    inv_cache: dict[int, Mat2Q] = {}
    out = Mat2Q.identity()
    for s in w.signed:
        if s > 0:
            M = spec.generator_matrices[s - 1]
        else:
            M = inv_cache.get(-s)
            if M is None:
                M = mat_inv(spec.generator_matrices[-s - 1])
                inv_cache[-s] = M
        out = mat_mul(out, M)
    return out


# ---------------------------------------------------------------------------
# Decoding.  Three stages:
#   1. greedy peel following any strict decrease of the bit-size measure;
#   2. best-first search ordered by the same measure (bounded node budget) --
#      a found word is self-verifying, so the heuristic order is safe;
#   3. exhaustive meet-in-the-middle for a sound "absent" answer within the
#      bound (table cached per representation).
# Faithfulness makes preimages unique, so any hit is the shortest word.
# ---------------------------------------------------------------------------

_SEARCH_BUDGET = 50_000
_MITM_CAP = 200_000


def _bit_size(M: Mat2Q) -> int:
    total = 0
    for e in M.entries():
        total += abs(e.numerator).bit_length() + e.denominator.bit_length()
    return total


def _letter_matrices(spec: RepSpec) -> dict[int, Mat2Q]:
    out = {}
    for i, M in enumerate(spec.generator_matrices, start=1):
        out[i] = M
        out[-i] = mat_inv(M)
    return out


def _letter_order(mats) -> list[int]:
    return sorted(mats, key=lambda s: (abs(s), s < 0))


def _greedy_peel(spec: RepSpec, M: Mat2Q, max_len: int) -> Optional[list[int]]:
    mats = _letter_matrices(spec)
    order = _letter_order(mats)
    letters: list[int] = []
    cur = M
    size = _bit_size(cur)
    while not cur.is_identity():
        if len(letters) >= max_len:
            return None
        found = None
        for s in order:
            if letters and s == -letters[-1]:
                continue
            cand = mat_mul(mats[-s], cur)
            cand_size = _bit_size(cand)
            if cand_size < size:
                found = (s, cand, cand_size)
                break
        if found is None:
            return None
        s, cur, size = found
        letters.append(s)
    return letters


def _best_first(spec: RepSpec, M: Mat2Q, max_len: int,
                budget: int = _SEARCH_BUDGET) -> Optional[list[int]]:
    import heapq

    mats = _letter_matrices(spec)
    order = _letter_order(mats)
    counter = 0
    heap = [(_bit_size(M), 0, (), M)]
    while heap and counter < budget:
        counter += 1
        _, _, letters, cur = heapq.heappop(heap)
        if cur.is_identity():
            return list(letters)
        if len(letters) >= max_len:
            continue
        for s in order:
            if letters and s == -letters[-1]:
                continue
            nxt = mat_mul(mats[-s], cur)
            heapq.heappush(heap, (_bit_size(nxt), counter * 8 + abs(s),
                                  letters + (s,), nxt))
    return None


def _half_table(spec: RepSpec, depth: int) -> dict[tuple, tuple[int, ...]]:
    cached = _TABLE_CACHE.get((spec, depth))
    if cached is not None:
        return cached
    mats = _letter_matrices(spec)
    order = _letter_order(mats)
    table: dict[tuple, tuple[int, ...]] = {Mat2Q.identity().entries(): ()}
    frontier = [((), Mat2Q.identity())]
    for _ in range(depth):
        nxt = []
        for letters, mat in frontier:
            for s in order:
                if letters and s == -letters[-1]:
                    continue
                item = (letters + (s,), mat_mul(mat, mats[s]))
                nxt.append(item)
                key = item[1].entries()
                if key not in table:
                    table[key] = item[0]
        frontier = nxt
    _TABLE_CACHE[(spec, depth)] = table
    return table


_TABLE_CACHE: dict[tuple, dict] = {}


def _meet_in_middle(spec: RepSpec, M: Mat2Q, max_len: int) -> Optional[list[int]]:
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

    def consider(letters: tuple[int, ...], mat: Mat2Q):
        nonlocal best
        rest = table.get(mat_mul(mat_inv(mat), M).entries())
        if rest is None:
            return
        if letters and rest and rest[0] == -letters[-1]:
            return  # would cancel at the seam: not a reduced concatenation
        if len(letters) + len(rest) > max_len:
            return
        cand = letters + rest
        if best is None or len(cand) < len(best):
            best = cand

    frontier = [((), Mat2Q.identity())]
    consider((), Mat2Q.identity())
    for _ in range(h1):
        nxt = []
        for letters, mat in frontier:
            for s in order:
                if letters and s == -letters[-1]:
                    continue
                item = (letters + (s,), mat_mul(mat, mats[s]))
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
    letters = _greedy_peel(spec, M, max_len)
    if letters is None:
        # a short guided pass catches most members the greedy missed
        letters = _best_first(spec, M, max_len, min(2000, search_budget))
    if letters is None:
        # exhaustive search settles small bounds outright; otherwise spend
        # the full budget before certifying absence
        q = spec.alphabet.rank
        if ball_size(q, max_len - max_len // 2) <= 20_000:
            letters = _meet_in_middle(spec, M, max_len)
        else:
            letters = _best_first(spec, M, max_len, search_budget)
            if letters is None:
                letters = _meet_in_middle(spec, M, max_len)
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
