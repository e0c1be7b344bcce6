"""Elementary Nielsen transformations, the two reducedness predicates,
deterministic reduction, canonical minimal bases and subgroup membership.

Tuples are ordered (moves are index-addressed, 1-based); sets only appear
through :func:`canonical_minimal_basis`, which inverse-normalizes and sorts.
All operations are pure on immutable values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .errors import (
    CapExceededError,
    IllegalMoveError,
    PreconditionError,
    WordSyntaxError,
)
from .words import Alphabet, Word, compare_words, concat, parse_word

__all__ = [
    "GeneratingTuple",
    "ElementaryMove",
    "apply_move",
    "apply_moves",
    "is_nielsen_reduced",
    "is_nielsen_reduced_segments",
    "nielsen_reduce",
    "canonical_minimal_basis",
    "subgroup_membership",
    "expand_expression",
    "same_subgroup",
    "same_subgroup_by_membership",
    "parse_tuple",
    "format_tuple",
    "parse_moves",
    "format_moves",
]


@dataclass(frozen=True)
class GeneratingTuple:
    """An ordered tuple of freely reduced words over one alphabet.

    Identity entries are permitted (until a T3 move removes them)."""

    alphabet: Alphabet
    elements: tuple[Word, ...]

    def __post_init__(self):
        if isinstance(self.elements, list):
            object.__setattr__(self, "elements", tuple(self.elements))
        for w in self.elements:
            if w.alphabet.names != self.alphabet.names:
                raise PreconditionError("tuple entries must share one alphabet")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i: int) -> Word:
        return self.elements[i]

    def total_length(self) -> int:
        return sum(len(w) for w in self.elements)

    def replace(self, i: int, w: Word) -> "GeneratingTuple":
        """New tuple with 1-based entry i replaced by w."""
        e = list(self.elements)
        e[i - 1] = w
        return GeneratingTuple(self.alphabet, tuple(e))

    def __str__(self):
        return format_tuple(self)


_KINDS = ("T1", "T2", "T3")


@dataclass(frozen=True)
class ElementaryMove:
    """T1 i (invert), T2 i j (right-multiply u_i by u_j, j != i),
    T3 i (delete the identity entry u_i).  Indices are 1-based."""

    kind: str
    i: int
    j: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise IllegalMoveError(f"unknown move kind {self.kind!r}")
        if self.i < 1:
            raise IllegalMoveError("move index must be >= 1")
        if self.kind == "T2":
            if self.j is None:
                raise IllegalMoveError("T2 needs a second index")
            if self.j == self.i:
                raise IllegalMoveError("T2 requires j != i")
            if self.j < 1:
                raise IllegalMoveError("move index must be >= 1")
        elif self.j is not None:
            raise IllegalMoveError(f"{self.kind} takes a single index")

    def __str__(self):
        if self.kind == "T2":
            return f"T2 {self.i} {self.j}"
        return f"{self.kind} {self.i}"


def apply_move(t: GeneratingTuple, m: ElementaryMove) -> GeneratingTuple:
    n = len(t)
    if not 1 <= m.i <= n:
        raise IllegalMoveError(f"index {m.i} out of range for tuple of size {n}")
    if m.kind == "T1":
        return t.replace(m.i, t.elements[m.i - 1].inverse())
    if m.kind == "T2":
        if not 1 <= m.j <= n:  # type: ignore[operator]
            raise IllegalMoveError(f"index {m.j} out of range for tuple of size {n}")
        return t.replace(m.i, concat(t.elements[m.i - 1], t.elements[m.j - 1]))
    # T3
    if not t.elements[m.i - 1].is_identity():
        raise IllegalMoveError(f"T3 {m.i}: entry is not the identity")
    e = list(t.elements)
    del e[m.i - 1]
    return GeneratingTuple(t.alphabet, tuple(e))


def apply_moves(t: GeneratingTuple, moves: Iterable[ElementaryMove]) -> GeneratingTuple:
    for m in moves:
        t = apply_move(t, m)
    return t


# ---------------------------------------------------------------------------
# The two reducedness predicates.
# ---------------------------------------------------------------------------

class _Symbol(NamedTuple):
    word: Word
    entry: int   # 1-based tuple index
    sign: int    # +1 for u_i, -1 for u_i^-1


def _symbols(t: GeneratingTuple) -> list[_Symbol]:
    syms: list[_Symbol] = []
    for k, w in enumerate(t.elements, start=1):
        syms.append(_Symbol(w, k, 1))
        syms.append(_Symbol(w.inverse(), k, -1))
    return syms


def _cancellation(u: Word, v: Word) -> int:
    """Number of letters cancelling in the product u*v."""
    a, b = u.signed, v.signed
    bound = min(len(a), len(b))
    c = 0
    while c < bound and a[-1 - c] == -b[c]:
        c += 1
    return c


def is_nielsen_reduced(t: GeneratingTuple) -> bool:
    """Brute-force check of the three reducedness conditions over all symbol
    pairs/triples.  The non-degeneracy conditions exclude exactly the formal
    inverse pairs (u_i^e, u_i^-e); products of *distinct* entries that happen
    to cancel completely do violate the length conditions."""
    words = t.elements
    if any(w.is_identity() for w in words):
        return False
    syms = [s.word for s in _symbols(t)]
    n = len(syms)
    lengths = [len(w) for w in syms]
    cancel = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if b == a ^ 1:
                continue
            c = _cancellation(syms[a], syms[b])
            cancel[a][b] = c
            if 2 * c > min(lengths[a], lengths[b]):
                return False
    # With the pair condition holding, the triple product only degenerates to
    # equality when the middle word is consumed exactly; check those directly.
    for a in range(n):
        la = lengths[a]
        ca = cancel[a]
        for b in range(n):
            if b == a ^ 1:
                continue
            lb = lengths[b]
            cab = ca[b]
            cb = cancel[b]
            for c in range(n):
                if c == b ^ 1:
                    continue
                if cab + cb[c] < lb:
                    continue  # strict inequality holds automatically
                prod = concat(concat(syms[a], syms[b]), syms[c])
                if len(prod) <= la - lb + lengths[c]:
                    return False
    return True


def _major_len(n: int) -> int:
    # "a little more than half": the shortest prefix longer than n/2
    return n // 2 + 1


def is_nielsen_reduced_segments(t: GeneratingTuple) -> bool:
    """Segment-isolation characterization: every symbol's major initial
    segment is isolated, and every even-length word has an isolated half.

    Requires all entries non-identity."""
    if any(w.is_identity() for w in t.elements):
        raise PreconditionError("segment predicate requires non-identity entries")
    syms = _symbols(t)
    seqs = [s.word.signed for s in syms]
    n = len(seqs)

    def prefix_isolated(owner: int, prefix: tuple[int, ...]) -> bool:
        k = len(prefix)
        for other in range(n):
            if other != owner and seqs[other][:k] == prefix:
                return False
        return True

    # Condition 1 over all 2m symbols covers major terminal segments too:
    # the major terminal segment of w is the mirror of the major initial
    # segment of w^-1, and the symbol list is closed under inversion.
    for k, seq in enumerate(seqs):
        if not prefix_isolated(k, seq[:_major_len(len(seq))]):
            return False
    # Condition 2: for even-length entries the left half must be isolated as
    # a prefix or the right half as a suffix (i.e. the left half of the
    # inverse symbol is an isolated prefix).
    for k in range(0, n, 2):
        seq = seqs[k]
        if len(seq) % 2:
            continue
        h = len(seq) // 2
        left_ok = prefix_isolated(k, seq[:h])
        right_ok = prefix_isolated(k ^ 1, seqs[k ^ 1][:h])
        if not (left_ok or right_ok):
            return False
    return True


# ---------------------------------------------------------------------------
# Deterministic reduction.
#
# Loop until fixpoint:
#   1. delete identity entries (T3);
#   2. install the first replacement u_i -> u_i*u_j^s or u_i -> u_j^s*u_i
#      from _products that strictly shortens u_i;
#   3. for the first even-length symbol w = p q^-1 whose both halves fail to
#      be isolated, rewrite one offending symbol's half toward the smaller of
#      p, q (length-preserving).
# Each replacement is installed as the product itself and recorded as its
# elementary moves: left multiplications are T1-conjugated T2 moves, and
# both sides are needed to reach the pair condition.  Step 3 strictly
# decreases the multiset of half-prefixes at constant total length, so the
# loop terminates; at the fixpoint both segment conditions hold.
# ---------------------------------------------------------------------------

def _realization(i: int, j: int, side: str, sign: int) -> list[ElementaryMove]:
    """Elementary moves replacing u_i by u_i*u_j^sign (side 'R') or
    u_j^sign*u_i (side 'L')."""
    t2 = ElementaryMove("T2", i, j)
    t1i = ElementaryMove("T1", i)
    t1j = ElementaryMove("T1", j)
    if side == "R":
        return [t2] if sign > 0 else [t1j, t2, t1j]
    if sign > 0:
        return [t1i, t1j, t2, t1j, t1i]
    return [t1i, t2, t1i]


def _products(elements: tuple[Word, ...]):
    """Every replacement of one entry by its product with another, as
    (i, j, side, sign, word): u_i*u_j^sign (side 'R') or u_j^sign*u_i
    (side 'L'), in the order (i, j, R+, R-, L+, L-)."""
    inverses = [w.inverse() for w in elements]
    n = len(elements)
    for i in range(1, n + 1):
        u = elements[i - 1]
        for j in range(1, n + 1):
            if j == i:
                continue
            v, v_inv = elements[j - 1], inverses[j - 1]
            yield i, j, "R", 1, concat(u, v)
            yield i, j, "R", -1, concat(u, v_inv)
            yield i, j, "L", 1, concat(v, u)
            yield i, j, "L", -1, concat(v_inv, u)


def _find_half_rewrite(t: GeneratingTuple):
    """First length-preserving rewrite fixing a violated half condition.

    Returns (i, j, side, sign, word) for the replacement, or None.  Assumes
    the shortening phase is exhausted, which bounds seam cancellations by
    half of each factor and keeps the rewrites length-preserving."""
    syms = _symbols(t)
    for s in syms:
        ln = len(s.word)
        if ln == 0 or ln % 2:
            continue
        h = ln // 2
        p = s.word.signed[:h]
        q = s.word.inverse().signed[:h]
        p_owners = [v for v in syms
                    if (v.entry, v.sign) != (s.entry, s.sign)
                    and v.word.signed[:h] == p]
        q_owners = [v for v in syms
                    if (v.entry, v.sign) != (s.entry, -s.sign)
                    and v.word.signed[:h] == q]
        if not p_owners or not q_owners:
            continue
        p_word = Word._make(t.alphabet, p)
        q_word = Word._make(t.alphabet, q)
        if compare_words(q_word, p_word) < 0:
            # prefix p -> q: symbol v -> w^-1 * v
            v, w, sign = p_owners[0], s.word.inverse(), -s.sign
        else:
            # prefix q -> p: symbol v -> w * v
            v, w, sign = q_owners[0], s.word, s.sign
        z = concat(w, v.word)
        if v.sign > 0:
            return v.entry, s.entry, "L", sign, z
        return v.entry, s.entry, "R", -sign, z.inverse()
    return None


def nielsen_reduce(t: GeneratingTuple) -> tuple[GeneratingTuple, list[ElementaryMove]]:
    """Carry a tuple into a Nielsen reduced one; returns the result and the
    elementary move list realizing it (replay with :func:`apply_moves`)."""
    moves: list[ElementaryMove] = []
    while True:
        k = next((k for k, w in enumerate(t.elements, start=1)
                  if w.is_identity()), None)
        if k is not None:
            moves.append(ElementaryMove("T3", k))
            t = apply_move(t, moves[-1])
            continue
        lengths = [len(w) for w in t.elements]
        for i, j, side, sign, z in _products(t.elements):
            if len(z) < lengths[i - 1]:
                break
        else:
            found = _find_half_rewrite(t)
            if found is None:
                return t, moves
            i, j, side, sign, z = found
        t = t.replace(i, z)
        moves.extend(_realization(i, j, side, sign))


def _normalize(t: GeneratingTuple) -> GeneratingTuple:
    norm = [min(w, w.inverse()) for w in t.elements]
    norm.sort(key=Word.sort_key)
    return GeneratingTuple(t.alphabet, tuple(norm))


def _tuple_key(t: GeneratingTuple):
    return tuple(w.sort_key() for w in t.elements)


def canonical_minimal_basis(t: GeneratingTuple, orbit_limit: int = 200000) -> GeneratingTuple:
    """Deterministic canonical form of the subgroup generated by ``t``.

    Nielsen-reduces, then explores the reduced tuple's orbit under the
    length-preserving replacements of :func:`_products` (inverse-normalized
    and sorted after every step, so a left product u_j^s * u_i stands for
    u_i^-1 * u_j^-s) and returns the smallest Nielsen reduced member.
    Reduced systems all sit at the minimal total length, and paths between
    them may pass through non-reduced tuples of the same length multiset, so
    the whole constant-length level is searched; the result is its minimum
    whatever the visiting order.  The level is finite; ``orbit_limit``
    guards against blowups."""
    reduced, _ = nielsen_reduce(t)
    start = _normalize(reduced)
    if len(start) == 0:
        return start
    best_key = _tuple_key(start)
    seen = {best_key}
    best = start
    frontier = deque([start])
    while frontier:
        cur = frontier.popleft()
        lengths = [len(w) for w in cur.elements]
        for i, _, _, _, z in _products(cur.elements):
            if len(z) != lengths[i - 1]:
                continue
            cand = _normalize(cur.replace(i, z))
            key = _tuple_key(cand)
            if key in seen:
                continue
            if len(seen) >= orbit_limit:
                raise CapExceededError(
                    f"canonical basis search exceeded {orbit_limit} tuples")
            seen.add(key)
            if key < best_key and is_nielsen_reduced_segments(cand):
                best, best_key = cand, key
            frontier.append(cand)
    return best


# ---------------------------------------------------------------------------
# Constructive membership on Nielsen reduced bases.
# ---------------------------------------------------------------------------

def subgroup_membership(basis: GeneratingTuple, w: Word) -> Optional[list[int]]:
    """Express ``w`` over a Nielsen reduced basis.

    Returns a list of signed 1-based basis indices (k for u_k, -k for
    u_k^-1) whose expansion freely reduces to ``w``, or None if ``w`` is not
    in the subgroup.  Strips symbols whose major initial segment prefixes
    the remainder; even-length symbols may only show their left half, so
    those strips are tried with backtracking (memoized on the remainder)."""
    if not is_nielsen_reduced(basis):
        raise PreconditionError("membership requires a Nielsen reduced basis")
    if w.alphabet.names != basis.alphabet.names:
        raise PreconditionError("word and basis alphabets differ")
    syms = _symbols(basis)
    candidates: list[tuple[tuple[int, ...], Word, int]] = []
    for s in syms:
        ln = len(s.word)
        if ln == 0:
            continue
        candidates.append((s.word.signed[:_major_len(ln)], s.word.inverse(),
                           s.entry * s.sign))
        if ln % 2 == 0:
            candidates.append((s.word.signed[:ln // 2], s.word.inverse(),
                               s.entry * s.sign))
    if w.is_identity():
        return []
    # Iterative DFS.  Strips never lengthen the remainder; words already on
    # the current path are skipped (the unique expression never revisits a
    # remainder), and exhausted remainders are memoized as dead ends.
    failed: set[tuple[int, ...]] = set()

    def strips(cur: Word):
        for prefix, inv, token in candidates:
            k = len(prefix)
            if len(cur.signed) < k or cur.signed[:k] != prefix:
                continue
            rest = concat(inv, cur)
            if len(rest) <= len(cur) and rest.signed not in failed:
                yield token, rest

    stack: list[tuple[Word, object]] = [(w, strips(w))]
    on_path = {w.signed}
    tokens: list[int] = []
    while stack:
        cur, gen = stack[-1]
        step = None
        for token, rest in gen:  # type: ignore[union-attr]
            if rest.signed in on_path:
                continue
            step = (token, rest)
            break
        if step is None:
            failed.add(cur.signed)
            on_path.discard(cur.signed)
            stack.pop()
            if stack:
                tokens.pop()
            continue
        token, rest = step
        tokens.append(token)
        if rest.is_identity():
            return tokens
        on_path.add(rest.signed)
        stack.append((rest, strips(rest)))
    return None


def expand_expression(basis: GeneratingTuple, expr: Iterable[int]) -> Word:
    """Expand a signed-index expression back into a word."""
    out = basis.alphabet.identity()
    for token in expr:
        u = basis.elements[abs(token) - 1]
        out = concat(out, u if token > 0 else u.inverse())
    return out


def same_subgroup(s1: GeneratingTuple, s2: GeneratingTuple) -> bool:
    """True iff both tuples generate the same subgroup (canonical forms)."""
    if s1.alphabet.names != s2.alphabet.names:
        raise PreconditionError("tuples over different alphabets")
    c1 = canonical_minimal_basis(s1)
    c2 = canonical_minimal_basis(s2)
    return c1.elements == c2.elements


def same_subgroup_by_membership(s1: GeneratingTuple, s2: GeneratingTuple) -> bool:
    """Mutual-membership implementation; must agree with :func:`same_subgroup`."""
    if s1.alphabet.names != s2.alphabet.names:
        raise PreconditionError("tuples over different alphabets")
    b1, _ = nielsen_reduce(s1)
    b2, _ = nielsen_reduce(s2)
    return (all(subgroup_membership(b2, w) is not None for w in s1.elements)
            and all(subgroup_membership(b1, w) is not None for w in s2.elements))


# ---------------------------------------------------------------------------
# Textual forms.
# ---------------------------------------------------------------------------

def format_tuple(t: GeneratingTuple) -> str:
    lines = ["begin tuple"]
    lines.extend(str(w) for w in t.elements)
    lines.append("end tuple")
    return "\n".join(lines)


def parse_tuple(text: str, alphabet: Alphabet) -> GeneratingTuple:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "begin tuple" or lines[-1] != "end tuple":
        raise WordSyntaxError("tuple block must be delimited by "
                              "'begin tuple' / 'end tuple'")
    words = tuple(parse_word(ln, alphabet) for ln in lines[1:-1])
    return GeneratingTuple(alphabet, words)


def format_moves(moves: Iterable[ElementaryMove]) -> str:
    return "\n".join(str(m) for m in moves)


def _parse_move_line(ln: str) -> ElementaryMove:
    parts = ln.split()
    try:
        if parts[0] == "T2" and len(parts) == 3:
            return ElementaryMove("T2", int(parts[1]), int(parts[2]))
        if parts[0] in ("T1", "T3") and len(parts) == 2:
            return ElementaryMove(parts[0], int(parts[1]))
    except ValueError:
        pass
    raise WordSyntaxError(f"bad move line {ln.strip()!r}")


def parse_moves(text: str) -> list[ElementaryMove]:
    return [_parse_move_line(ln) for ln in text.splitlines() if ln.strip()]
