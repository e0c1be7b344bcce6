"""Elementary Nielsen transformations, the two reducedness predicates,
deterministic reduction, canonical minimal bases, Stallings core graphs and
subgroup membership.

Tuples are ordered (moves are index-addressed, 1-based); sets only appear
through :func:`canonical_minimal_basis`, which inverse-normalizes and sorts.
All operations are pure on immutable values.

A GeneratingTuple holds its entries as code strings (``codes``, one
``Word.codes`` each) and builds Words only when they are read.  The
predicates, reduction, the canonical level walk, the core graph and the
membership strips run on those codes, multiplied, inverted and substituted
by the free-reduction kernel of :mod:`fgcrypt.words`, and build no Word.
At equal length the word order is plain ``bytes`` order, so a step of the
level walk normalizes only the entry it replaced.  A canonical
basis is a function of the subgroup alone, so a caller may key the bases
it has computed by the subgroup's core graph (:func:`_core_graph`), as the
subset attack does.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Iterable, Optional, Sequence

from .errors import (
    CapExceededError,
    IllegalMoveError,
    PreconditionError,
    WordSyntaxError,
)
from .words import (Alphabet, Word, _Value, _code, _concat_codes,
                    _invert_codes, _parse_int, _same_alphabet, _seam, _signed,
                    _substitute, parse_word)

__all__ = [
    "GeneratingTuple",
    "ElementaryMove",
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


class GeneratingTuple(_Value):
    """An ordered tuple of freely reduced words over one alphabet.

    Identity entries are permitted (until a T3 move removes them).  The
    entries are stored as their code strings, ``codes``; ``elements``,
    iteration and indexing build the Words."""

    __slots__ = _compared = ("alphabet", "codes")
    _fields = ("alphabet", "elements")

    alphabet: Alphabet
    codes: tuple[bytes, ...]

    def __init__(self, alphabet: Alphabet, elements: tuple[Word, ...]):
        elements = tuple(elements)
        for w in elements:
            _same_alphabet(alphabet, w.alphabet)
        self._fill(alphabet, tuple(w.codes for w in elements))

    @property
    def elements(self) -> tuple[Word, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        alphabet = self.alphabet
        return (Word._make(alphabet, e) for e in self.codes)

    def __getitem__(self, i: int) -> Word:
        if isinstance(i, slice):
            return self.elements[i]
        return Word._make(self.alphabet, self.codes[i])

    def total_length(self) -> int:
        return sum(map(len, self.codes))

    def __str__(self):
        return format_tuple(self)


_KINDS = ("T1", "T2", "T3")


class ElementaryMove(_Value):
    """T1 i (invert), T2 i j (right-multiply u_i by u_j, j != i),
    T3 i (delete the identity entry u_i).  Indices are 1-based."""

    __slots__ = _fields = ("kind", "i", "j")

    kind: str
    i: int
    j: Optional[int]

    def __init__(self, kind: str, i: int, j: Optional[int] = None):
        if kind not in _KINDS:
            raise IllegalMoveError(f"unknown move kind {kind!r}")
        if i < 1:
            raise IllegalMoveError("move index must be >= 1")
        if kind == "T2":
            if j is None:
                raise IllegalMoveError("T2 needs a second index")
            if j == i:
                raise IllegalMoveError("T2 requires j != i")
            if j < 1:
                raise IllegalMoveError("move index must be >= 1")
        elif j is not None:
            raise IllegalMoveError(f"{kind} takes a single index")
        self._fill(kind, i, j)

    def __str__(self):
        if self.kind == "T2":
            return f"T2 {self.i} {self.j}"
        return f"{self.kind} {self.i}"


def _move(elements: list[bytes], m: ElementaryMove) -> None:
    """Apply ``m`` in place to a list of code strings."""
    n = len(elements)
    if not 1 <= m.i <= n or (m.kind == "T2" and not 1 <= m.j <= n):
        raise IllegalMoveError(f"move {m} out of range for tuple of size {n}")
    u = elements[m.i - 1]
    if m.kind == "T1":
        elements[m.i - 1] = _invert_codes(u)
    elif m.kind == "T2":
        elements[m.i - 1] = _concat_codes(u, elements[m.j - 1])
    elif u:
        raise IllegalMoveError(f"T3 {m.i}: entry is not the identity")
    else:
        del elements[m.i - 1]


def _as_tuple(alphabet: Alphabet, elements: Iterable[bytes]) -> GeneratingTuple:
    return GeneratingTuple._make(alphabet, tuple(elements))


def apply_moves(t: GeneratingTuple, moves: Iterable[ElementaryMove]) -> GeneratingTuple:
    elements = list(t.codes)
    for m in moves:
        _move(elements, m)
    return _as_tuple(t.alphabet, elements)


# ---------------------------------------------------------------------------
# The two reducedness predicates.
# ---------------------------------------------------------------------------

def _symbols(elements: Iterable[bytes]) -> list[bytes]:
    """u_1, u_1^-1, u_2, u_2^-1, ... as code strings: symbol a is u_(a//2+1)
    for even a and its inverse for odd a, so a ^ 1 is the inverse symbol."""
    return [x for u in elements for x in (u, _invert_codes(u))]


def _owner(syms: Sequence[bytes], a: int, prefix: bytes) -> Optional[int]:
    """The first symbol other than ``a`` that starts with ``prefix``; None
    when ``prefix`` is isolated in symbol ``a``."""
    return next((b for b, v in enumerate(syms)
                 if b != a and v.startswith(prefix)), None)


def is_nielsen_reduced(t: GeneratingTuple) -> bool:
    """Brute-force check of the three reducedness conditions over all symbol
    pairs/triples.  The non-degeneracy conditions exclude exactly the formal
    inverse pairs (u_i^e, u_i^-e); products of *distinct* entries that happen
    to cancel completely do violate the length conditions."""
    elements = t.codes
    if not all(elements):
        return False
    syms = _symbols(elements)
    n = len(syms)
    lengths = [len(w) for w in syms]
    cancel = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if b == a ^ 1:
                continue
            c = _seam(syms[a], syms[b])
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
                prod = _concat_codes(_concat_codes(syms[a], syms[b]), syms[c])
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
    if not all(t.codes):
        raise PreconditionError("segment predicate requires non-identity entries")
    syms = _symbols(t.codes)
    # Condition 1 over all 2m symbols covers major terminal segments too:
    # the major terminal segment of w is the mirror of the major initial
    # segment of w^-1, and the symbol list is closed under inversion.
    for a, seq in enumerate(syms):
        if _owner(syms, a, seq[:_major_len(len(seq))]) is not None:
            return False
    # Condition 2: for even-length entries the left half must be isolated as
    # a prefix or the right half as a suffix (i.e. the left half of the
    # inverse symbol is an isolated prefix).
    for a in range(0, len(syms), 2):
        seq = syms[a]
        if len(seq) % 2:
            continue
        h = len(seq) // 2
        if (_owner(syms, a, seq[:h]) is not None
                and _owner(syms, a ^ 1, syms[a ^ 1][:h]) is not None):
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


def _products(elements: Sequence[bytes]):
    """Every replacement of one entry by its product with another that
    cancels at the seam, as (i, j, side, sign, z): u_i*u_j^sign (side 'R')
    or u_j^sign*u_i (side 'L'), in the order (i, j, R+, R-, L+, L-).
    Entries (non-identity) and z are code strings.  A product with no
    cancellation is longer than u_i, so neither the reduction nor the level
    walk has a use for it."""
    n = len(elements)
    for i in range(1, n + 1):
        u = elements[i - 1]
        first, last = u[0], u[-1]
        for j in range(1, n + 1):
            if j == i:
                continue
            v = elements[j - 1]
            if last == v[0] ^ 1:
                yield i, j, "R", 1, _concat_codes(u, v)
            if last == v[-1]:
                yield i, j, "R", -1, _concat_codes(u, _invert_codes(v))
            if v[-1] == first ^ 1:
                yield i, j, "L", 1, _concat_codes(v, u)
            if v[0] == first:
                yield i, j, "L", -1, _concat_codes(_invert_codes(v), u)


def _find_half_rewrite(elements: Sequence[bytes]):
    """First length-preserving rewrite fixing a violated half condition.

    Returns (i, j, side, sign, z) for the replacement, or None.  Assumes
    the shortening phase is exhausted, which bounds seam cancellations by
    half of each factor and keeps the rewrites length-preserving."""
    syms = _symbols(elements)
    for a, seq in enumerate(syms):
        ln = len(seq)
        if ln % 2 or not ln:
            continue
        h = ln // 2
        p, q = seq[:h], syms[a ^ 1][:h]
        p_owner, q_owner = _owner(syms, a, p), _owner(syms, a ^ 1, q)
        if p_owner is None or q_owner is None:
            continue
        sign = -1 if a % 2 else 1
        if q < p:
            # prefix p -> q: symbol v -> w^-1 * v
            b, w, sign = p_owner, syms[a ^ 1], -sign
        else:
            # prefix q -> p: symbol v -> w * v
            b, w = q_owner, seq
        z = _concat_codes(w, syms[b])
        if b % 2 == 0:
            return b // 2 + 1, a // 2 + 1, "L", sign, z
        return b // 2 + 1, a // 2 + 1, "R", -sign, _invert_codes(z)
    return None


def nielsen_reduce(t: GeneratingTuple) -> tuple[GeneratingTuple, list[ElementaryMove]]:
    """Carry a tuple into a Nielsen reduced one; returns the result and the
    elementary move list realizing it (replay with :func:`apply_moves`)."""
    moves: list[ElementaryMove] = []
    elements = list(t.codes)
    while True:
        k = next((k for k, u in enumerate(elements, start=1) if not u), None)
        if k is not None:
            moves.append(ElementaryMove("T3", k))
            del elements[k - 1]
            continue
        for i, j, side, sign, z in _products(elements):
            if len(z) < len(elements[i - 1]):
                break
        else:
            found = _find_half_rewrite(elements)
            if found is None:
                return _as_tuple(t.alphabet, elements), moves
            i, j, side, sign, z = found
        elements[i - 1] = z
        moves.extend(_realization(i, j, side, sign))


# ---------------------------------------------------------------------------
# Canonical bases: the minimum of a level.
#
# The level of a tuple is everything its length-preserving replacements
# reach.  The walk runs on normal forms: every entry is the smaller of the
# codes of u and u^-1 (at equal length ``bytes`` order is the word order),
# and the entries are sorted by (length, codes).  A replacement changes one
# entry and keeps its length, so only that entry is normalized, then
# inserted among the rest of its length; the lengths by position are the
# same all over the level, and two normal forms compare position by
# position as plain tuples of ``bytes``.
# ---------------------------------------------------------------------------

_ORBIT_LIMIT = 200000


def _normal_form(t: GeneratingTuple) -> tuple[bytes, ...]:
    """The normal form of ``t``; the level of a tuple, and so its minimum,
    depends only on this."""
    return tuple(sorted((min(u, _invert_codes(u)) for u in t.codes),
                        key=lambda r: (len(r), r)))


def _level_minimum(reduced: GeneratingTuple, limit: int) -> GeneratingTuple:
    """The smallest Nielsen reduced member of the level of the Nielsen
    reduced tuple ``reduced``, inverse-normalized and sorted; a level of more
    than ``limit`` tuples raises ``CapExceededError``."""
    start = _normal_form(reduced)
    lengths = [len(r) for r in start]
    # without entry i, the other entries of its length sit at positions
    # block[i] of the rest
    block = [(bisect_left(lengths, n), bisect_right(lengths, n) - 1)
             for n in lengths]
    best = start
    seen = {start}
    frontier = deque([start])
    while frontier:
        cur = frontier.popleft()
        for i, _, _, _, z in _products(cur):
            if len(z) != lengths[i - 1]:
                continue
            rest = cur[:i - 1] + cur[i:]
            lo, hi = block[i - 1]
            r = min(z, _invert_codes(z))
            k = bisect_left(rest, r, lo, hi)
            cand = rest[:k] + (r,) + rest[k:]
            if cand in seen:
                continue
            if len(seen) >= limit:
                raise CapExceededError(
                    f"canonical basis search exceeded {limit} tuples")
            seen.add(cand)
            if cand < best and is_nielsen_reduced_segments(
                    _as_tuple(reduced.alphabet, cand)):
                best = cand
            frontier.append(cand)
    return _as_tuple(reduced.alphabet, best)


def canonical_minimal_basis(t: GeneratingTuple) -> GeneratingTuple:
    """Deterministic canonical form of the subgroup generated by ``t``.

    Nielsen-reduces, then explores the reduced tuple's level: every tuple
    its length-preserving replacements from :func:`_products` reach,
    inverse-normalized and sorted after every step (so a left product
    u_j^s * u_i stands for u_i^-1 * u_j^-s).  Returns the smallest Nielsen
    reduced member.  Reduced systems all sit at the minimal total length,
    and paths between them may pass through non-reduced tuples of the same
    length multiset, so the whole constant-length level is searched; the
    result is its minimum whatever the visiting order.  Every replacement
    can be undone by another, so the levels partition the tuples and every
    member of a level has the same minimum.

    Both steps run on code strings and build Words only for the result.
    The walk keeps normal forms and normalizes only the replaced entry,
    then inserts it into the already sorted rest.  The
    level is finite; one of more than ``_ORBIT_LIMIT`` tuples raises
    ``CapExceededError``."""
    reduced, _ = nielsen_reduce(t)
    return _level_minimum(reduced, _ORBIT_LIMIT)


# ---------------------------------------------------------------------------
# Stallings core graphs (Stallings, "Topology of finite graphs", 1983;
# Kapovich-Myasnikov, "Stallings foldings and subgroups of free groups",
# 2002).  The reduced words are read as loops at a base vertex and folded
# until no vertex has two edges with one label.  Two subgroups are equal
# exactly when their based core graphs are isomorphic, and the rank is
# E - V + 1.  Edge labels are the letters' codes, so code ^ 1 labels the
# reverse edge and the labels sort as x1, x1^-1, x2, ...
# ---------------------------------------------------------------------------

def _core_graph(elements: Iterable[bytes]
                ) -> tuple[int, tuple, tuple[bytes, ...]]:
    """(rank, key, basis) of the subgroup the reduced code strings generate.

    ``key`` is the core graph's adjacency, with the vertices numbered
    breadth-first from the base and each vertex's edges taken in label
    order; equal keys mean equal subgroups.  ``basis`` is the free basis
    path(v) * s * path(t)^-1 over the edges v -s-> t outside that
    breadth-first tree, each a reduced code string."""
    out: list[dict[int, int]] = [{}]  # out[v][code] = target; vertex 0 is the base
    merges = []
    for word in elements:
        last = len(word) - 1
        u = 0
        for k, code in enumerate(word):
            if k == last:
                v = 0
            else:
                v = len(out)
                out.append({})
            # a label clash is a fold to make; in reduced words only the
            # base vertex has any
            w = out[u].setdefault(code, v)
            if w != v:
                merges.append((w, v))
            w = out[v].setdefault(code ^ 1, u)
            if w != u:
                merges.append((w, u))
            u = v
    parent = list(range(len(out)))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    while merges:
        a, b = merges.pop()
        a, b = find(a), find(b)
        if a == b:
            continue
        if b < a:
            a, b = b, a  # the base stays a root
        parent[b] = a
        edges = out[a]
        for c, t in out[b].items():
            w = edges.setdefault(c, t)
            if w != t:
                merges.append((w, t))
    # Each root now keeps one edge per label, and the graph is already a
    # core: a word leaves each of its inner vertices by two different
    # labels (s^-1 back, the next letter on), which no fold merges, so
    # no vertex but the base ends with a single edge to prune.
    order = [0]  # the roots in breadth-first order; grows during the walk
    number = {0: 0}
    paths = [b""]  # the tree path from the base
    key = []
    basis = []
    for i, v in enumerate(order):
        edges = out[v]
        row = []
        for c in sorted(edges):
            t = find(edges[c])
            n = number.get(t)
            if n is None:
                n = number[t] = len(order)
                order.append(t)
                paths.append(paths[i] + c.to_bytes(1, "little"))
            elif n > i or (n == i and not c & 1):
                # each edge outside the tree once: from its lower-numbered
                # end, and a loop by its positive label
                basis.append(paths[i] + c.to_bytes(1, "little")
                             + _invert_codes(paths[n]))
            row += (c, n)
        key.append(tuple(row))
    edge_count = sum(map(len, key)) // 4  # two entries per edge, two ints each
    return edge_count - len(order) + 1, tuple(key), tuple(basis)


# ---------------------------------------------------------------------------
# Constructive membership on Nielsen reduced bases.
# ---------------------------------------------------------------------------

def _strip_candidates(basis: GeneratingTuple) -> list[tuple]:
    """The strips of a Nielsen reduced basis, as (prefix, inverse, token)
    on code strings: each symbol's major initial segment and, for even
    lengths, its left half, with the symbol's inverse and index a, the code
    of u_(a//2+1) or its inverse as a letter over the basis."""
    if not is_nielsen_reduced(basis):
        raise PreconditionError("membership requires a Nielsen reduced basis")
    syms = _symbols(basis.codes)
    candidates = []
    for a, seq in enumerate(syms):
        ln, inv = len(seq), syms[a ^ 1]
        candidates.append((seq[:_major_len(ln)], inv, a))
        if ln % 2 == 0:
            candidates.append((seq[:ln // 2], inv, a))
    return candidates


def _express(candidates: list[tuple], w: bytes) -> Optional[list[int]]:
    """The codes of basis letters spelling the code string ``w``, or None;
    the search behind :func:`subgroup_membership`."""
    if not w:
        return []
    # Iterative DFS.  Strips never lengthen the remainder; words already on
    # the current path are skipped (the unique expression never revisits a
    # remainder), and exhausted remainders are memoized as dead ends.
    failed: set[bytes] = set()

    def strips(cur: bytes):
        for prefix, inv, token in candidates:
            if not cur.startswith(prefix):
                continue
            rest = _concat_codes(inv, cur)
            if len(rest) <= len(cur) and rest not in failed:
                yield token, rest

    stack: list[tuple[bytes, object]] = [(w, strips(w))]
    on_path = {w}
    tokens: list[int] = []
    while stack:
        cur, gen = stack[-1]
        step = None
        for token, rest in gen:  # type: ignore[union-attr]
            if rest in on_path:
                continue
            step = (token, rest)
            break
        if step is None:
            failed.add(cur)
            on_path.discard(cur)
            stack.pop()
            if stack:
                tokens.pop()
            continue
        token, rest = step
        tokens.append(token)
        if not rest:
            return tokens
        on_path.add(rest)
        stack.append((rest, strips(rest)))
    return None


def subgroup_membership(basis: GeneratingTuple, w: Word) -> Optional[list[int]]:
    """Express ``w`` over a Nielsen reduced basis.

    Returns a list of signed 1-based basis indices (k for u_k, -k for
    u_k^-1) whose expansion freely reduces to ``w``, or None if ``w`` is not
    in the subgroup.  Strips symbols whose major initial segment prefixes
    the remainder; even-length symbols may only show their left half, so
    those strips are tried with backtracking (memoized on the remainder)."""
    _same_alphabet(basis.alphabet, w.alphabet)
    expr = _express(_strip_candidates(basis), w.codes)
    return None if expr is None else list(map(_signed, expr))


def expand_expression(basis: GeneratingTuple, expr: Iterable[int]) -> Word:
    """Expand a signed-index expression back into a word; token t stands
    for basis entry |t|, inverted when t < 0."""
    expr = list(expr)
    n = len(basis.codes)
    if not all(0 < abs(t) <= n for t in expr):
        raise PreconditionError(
            f"expression tokens must be nonzero with |t| <= {n}")
    return Word._make(basis.alphabet,
                      _substitute(basis.codes, [_code(t, n) for t in expr]))


def same_subgroup(s1: GeneratingTuple, s2: GeneratingTuple) -> bool:
    """True iff both tuples generate the same subgroup (canonical forms)."""
    _same_alphabet(s1.alphabet, s2.alphabet)
    return (canonical_minimal_basis(s1).codes
            == canonical_minimal_basis(s2).codes)


def same_subgroup_by_membership(s1: GeneratingTuple, s2: GeneratingTuple) -> bool:
    """Mutual-membership implementation; must agree with :func:`same_subgroup`.
    Each reduced basis is checked and stripped once, not once per element."""
    _same_alphabet(s1.alphabet, s2.alphabet)
    strips1 = _strip_candidates(nielsen_reduce(s1)[0])
    strips2 = _strip_candidates(nielsen_reduce(s2)[0])
    return (all(_express(strips2, w) is not None for w in s1.codes)
            and all(_express(strips1, w) is not None for w in s2.codes))


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
    kind, *indices = ln.split()
    try:
        if len(indices) == (2 if kind == "T2" else 1):
            return ElementaryMove(kind, *map(_parse_int, indices))
    except ValueError:  # IllegalMoveError too: unknown kinds, T2 i i, T1 0
        pass
    raise WordSyntaxError(f"bad move line {ln.strip()!r}")


def parse_moves(text: str) -> list[ElementaryMove]:
    return [_parse_move_line(ln) for ln in text.splitlines() if ln.strip()]
