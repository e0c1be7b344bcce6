"""Automorphisms of the free group as invertible factor sequences.

A factor is either a regular elementary move (T1/T2 by index) or a
Whitehead move (a single-generator inversion, or the four-case multiplier
map).  Factor sequences are applied left to right at the tuple level, which
makes the composite map equal to the leftmost factor applied outermost:
``images[i] = (f_1 o f_2 o ... o f_k)(x_i)``.  A map holds its images as
code strings (``codes``, one ``Word.codes`` each) and builds Words only
when ``images`` is read.  Folds run on those codes through the kernel in
:mod:`fgcrypt.words`, one step per factor, and build no Word.  An inverse
is never solved from the images: they are the fold of the factor-wise
inverse list (W^-1 = INV W INV).  Applying, composing and powers are
kernel substitutions of images; a power composes code strings by repeated
squaring.  This module does no free reduction of its own.

Automorphisms are immutable after construction and apply/compose/power/
inverse are pure, so they are safe to share across threads; a sampler's
bit source is single-owner and must not be shared.
"""

from __future__ import annotations

from typing import Iterable, Optional, Protocol, Sequence, Union

from .errors import (
    CapExceededError,
    IllegalMoveError,
    NotRegularError,
    PreconditionError,
    WordSyntaxError,
)
from .nielsen import ElementaryMove, _move, _realization, parse_moves
from .words import (_MAX_LETTERS, Alphabet, Word, _Value, _concat_codes,
                    _invert_codes, _same_alphabet, _substitute)

__all__ = [
    "WhiteheadMove",
    "Factor",
    "FactoredAutomorphism",
    "from_factors",
    "identity_automorphism",
    "random_whitehead_automorphism",
    "parse_automorphism",
    "format_automorphism",
]


class WhiteheadMove(_Value):
    """Either the inversion i_a (kind "INV") or the multiplier map
    W_(a,L,R,M) (kind "W") sending b to ab / b a^-1 / a b a^-1 / b according
    to membership of b in L / R / M \\ {a} / none.  Indices are 1-based."""

    __slots__ = _fields = ("kind", "a", "L", "R", "M")

    kind: str
    a: int
    L: frozenset[int]
    R: frozenset[int]
    M: frozenset[int]

    def __init__(self, kind: str, a: int, L: Iterable[int] = frozenset(),
                 R: Iterable[int] = frozenset(), M: Iterable[int] = frozenset()):
        L, R, M = frozenset(L), frozenset(R), frozenset(M)
        if kind == "INV":
            if L or R or M:
                raise IllegalMoveError("INV carries no letter sets")
        elif kind != "W":
            raise IllegalMoveError(f"unknown Whitehead move kind {kind!r}")
        elif a not in M:
            raise IllegalMoveError("multiplier must lie in M")
        elif a in L or a in R:
            raise IllegalMoveError("multiplier cannot lie in L or R")
        elif (L & R) or (L & M) or (R & M):
            raise IllegalMoveError("L, R, M must be pairwise disjoint")
        elif not (L or R or (M - {a})):
            raise IllegalMoveError("move would be the identity map")
        self._fill(kind, a, L, R, M)


# the letter sets of an inversion.  Only the sampler's draw and the shared
# inversions below build factors with the unchecked ``WhiteheadMove._make``,
# and only factors valid by construction; ``from_factors`` still checks the
# indices of every factor.
_EMPTY: frozenset[int] = frozenset()

# the inversion i_a of each generator x_1, x_2, ..., x_128, the one instance
# of each that the sampler's draw and the factor inverse return
_INVERSIONS = tuple(WhiteheadMove._make("INV", a, _EMPTY, _EMPTY, _EMPTY)
                    for a in range(1, 129))

Factor = Union[ElementaryMove, WhiteheadMove]


def _step(images: list[bytes], factor: Factor) -> None:
    """Turn the coded images of a map into those of ``map o factor`` in place;
    untouched images are kept.  Regular factors are the Nielsen moves of
    :func:`fgcrypt.nielsen._move`.  A Whitehead factor is not checked here
    (``from_factors`` checks its indices first); a multiplier map walks M
    and skips a."""
    kind = factor.kind
    if kind == "INV":
        i = factor.a - 1
        images[i] = _invert_codes(images[i])
    elif kind == "W":
        # W sends b to ab / b a^-1 / a b a^-1
        a = factor.a
        x = images[a - 1]
        x_inv = _invert_codes(x) if factor.R or len(factor.M) > 1 else b""
        for b in factor.L:
            images[b - 1] = _concat_codes(x, images[b - 1])
        for b in factor.R:
            images[b - 1] = _concat_codes(images[b - 1], x_inv)
        for b in factor.M:
            if b != a:
                images[b - 1] = _concat_codes(_concat_codes(x, images[b - 1]),
                                              x_inv)
    else:
        _move(images, factor)


# the code string of each generator x_1, x_2, ..., x_128
_GENERATORS = tuple(bytes((c,)) for c in range(0, 256, 2))


def _basis(q: int) -> tuple[bytes, ...]:
    """The coded images of the identity map at rank q."""
    return _GENERATORS[:q]


def _compose_codes(outer: Sequence[bytes],
                   inner: Sequence[bytes]) -> tuple[bytes, ...]:
    """Coded images of ``outer o inner``.  Each image is built within the
    room the images before it leave under the cap, by the rule of
    ``_substitute``, so the running total passes the cap by at most one
    outer image.  Each outer image is inverted at most once, into one table
    shared by all the inner images."""
    images = []
    inverses: dict[int, bytes] = {}
    total = 0
    for im in inner:
        try:
            image = _substitute(outer, im, _MAX_LETTERS - total, inverses)
            total += len(image)
        except CapExceededError as err:  # past the room, so past the cap
            total += err.letters
        if total > _MAX_LETTERS:
            raise CapExceededError(
                f"composite images total {total} letters, more than "
                f"{_MAX_LETTERS}")
        images.append(image)
    return tuple(images)


def _power(images: tuple[bytes, ...], n: int) -> tuple[bytes, ...]:
    """Coded images of f^n, n >= 1, by repeated squaring: O(log n)
    compositions.  Powers of f commute, so each product takes the longer
    power as the outer map and walks the letters of the shorter one."""
    result = None
    while True:
        if n & 1:
            result = (images if result is None else _compose_codes(
                *sorted((images, result), key=lambda ims: sum(map(len, ims)),
                        reverse=True)))
        n >>= 1
        if not n:
            return result
        images = _compose_codes(images, images)


class FactoredAutomorphism(_Value):
    """An automorphism carrying its factorization and cached images; the
    images are derived, so equality and hashing read the factors alone.
    The images are stored as their code strings, ``codes``; ``images``
    builds the Words."""

    __slots__ = ("alphabet", "factors", "codes")
    _fields = ("alphabet", "factors", "images")
    _compared = ("alphabet", "factors")

    alphabet: Alphabet
    factors: tuple[Factor, ...]
    codes: tuple[bytes, ...]

    def __init__(self, alphabet: Alphabet, factors: tuple[Factor, ...],
                 images: tuple[Word, ...]):
        self._fill(alphabet, tuple(factors),
                   tuple(im.codes for im in images))

    @property
    def images(self) -> tuple[Word, ...]:
        alphabet = self.alphabet
        return tuple(Word._make(alphabet, im) for im in self.codes)

    def apply(self, w: Word) -> Word:
        """f(w).  An image of more than 2^24 letters raises
        ``CapExceededError`` once it has passed the cap, by at most one
        letter's image.  The running check is skipped when len(w) times the
        longest image, a bound on the unreduced image, is within the cap."""
        _same_alphabet(self.alphabet, w.alphabet)
        return Word._make(self.alphabet, _substitute(self.codes, w.codes,
                                                     _MAX_LETTERS))

    def compose(self, other: "FactoredAutomorphism") -> "FactoredAutomorphism":
        """(self o other)(w) = self(other(w)).  Images totalling more than
        the word-text cap of 2^24 letters raise ``CapExceededError``, which
        bounds power() and the finite-order check of a fast-growing map."""
        _same_alphabet(self.alphabet, other.alphabet)
        return FactoredAutomorphism._make(
            self.alphabet, self.factors + other.factors,
            _compose_codes(self.codes, other.codes))

    def power(self, n: int) -> "FactoredAutomorphism":
        """f^n with factors ``self.factors * n``; the images are composed as
        code strings by repeated squaring, under the same cap as compose.
        A factor list longer than that cap raises ``CapExceededError``
        before anything is composed."""
        if n < 0:
            raise PreconditionError("power requires n >= 0")
        if n == 0:
            return identity_automorphism(self.alphabet)
        if len(self.factors) * n > _MAX_LETTERS:
            raise CapExceededError(
                f"power has {len(self.factors) * n} factors, more than "
                f"{_MAX_LETTERS}")
        return FactoredAutomorphism._make(self.alphabet, self.factors * n,
                                          _power(self.codes, n))

    def inverse(self) -> "FactoredAutomorphism":
        return from_factors([g for f in reversed(self.factors)
                             for g in _invert_factor(f)], self.alphabet)

    def is_identity(self) -> bool:
        return self.codes == _basis(self.alphabet.rank)

    def __str__(self):
        return format_automorphism(self)


def _invert_factor(factor: Factor) -> list[Factor]:
    kind = factor.kind
    if kind in ("INV", "T1", "T3"):  # T3 has none; from_factors rejects it
        return [factor]
    if kind == "W":
        ia = _INVERSIONS[factor.a - 1]
        return [ia, factor, ia]
    return _realization(factor.i, factor.j, "R", -1)  # u_i -> u_i u_j^-1


def identity_automorphism(alphabet: Alphabet) -> FactoredAutomorphism:
    return FactoredAutomorphism._make(alphabet, (), _basis(alphabet.rank))


def from_factors(factors: Iterable[Factor], alphabet: Alphabet) -> FactoredAutomorphism:
    """The automorphism folded from ``factors``, which it checks: a Whitehead
    index outside 1..rank raises ``IllegalMoveError``, a T3 ``NotRegularError``."""
    fs = tuple(factors)
    q = alphabet.rank
    valid = frozenset(range(1, q + 1))
    for factor in fs:
        if isinstance(factor, WhiteheadMove):
            if not (factor.a in valid and factor.L <= valid
                    and factor.R <= valid and factor.M <= valid):
                raise IllegalMoveError(f"{factor.kind} index out of range 1..{q}")
        elif factor.kind == "T3":
            raise NotRegularError("T3 is singular; automorphisms are regular only")
    images = list(_basis(q))
    for factor in fs:
        _step(images, factor)
    return FactoredAutomorphism._make(alphabet, fs, tuple(images))


# ---------------------------------------------------------------------------
# Random sampling of Whitehead-move products.
# ---------------------------------------------------------------------------

class BitSource(Protocol):
    def next(self) -> int: ...


def _draw_factor(prg: BitSource, q: int, bit: int) -> WhiteheadMove:
    """One factor: an inversion for bit 0, else a multiplier map whose set
    sizes are drawn first and whose members are then drawn for L, R and M in
    turn, each popped from the sorted pool of the other generators."""
    draw = prg.next
    i = draw() % q  # the index of the multiplier x_(i+1)
    if bit == 0:
        return _INVERSIONS[i]
    z1 = draw() % q
    z2 = draw() % (q - z1)
    z3 = draw() % (q - z1 - z2)
    pool = list(range(1, q + 1))
    del pool[i]
    pop = pool.pop
    if z1 == z2 == z3 == 0:
        # would be the identity map: put one extra letter in L, R or M
        drawn = [pop(draw() % (q - 1))]
        z1, z2 = ((1, 0), (0, 1), (0, 0))[draw() % 3]
    else:
        drawn = []
        for n in range(q - 1, q - 1 - z1 - z2 - z3, -1):
            drawn.append(pop(draw() % n))
    m = z1 + z2
    a = i + 1
    L = frozenset(drawn[:z1]) if z1 else _EMPTY
    R = frozenset(drawn[z1:m]) if z2 else _EMPTY
    return WhiteheadMove._make("W", a, L, R, frozenset((a, *drawn[m:])))


def _mutually_inverse(prev: WhiteheadMove, new: WhiteheadMove) -> bool:
    """Whether ``prev`` then ``new`` is the identity map: only an inversion
    is undone by a single Whitehead move, namely by itself."""
    return prev.kind == new.kind == "INV" and prev.a == new.a


# redraws allowed per factor, and for an identity composite
_MAX_ATTEMPTS = 1000


def random_whitehead_automorphism(prg: BitSource, alphabet: Alphabet,
                                  length: Optional[int] = None) -> FactoredAutomorphism:
    """Sample a non-identity automorphism as a product of Whitehead moves.

    One 0/1 draw per factor selects an inversion (0) or a multiplier map (1);
    the factor parameters are then drawn as bounded random numbers.  Adjacent
    mutually-inverse factors are redrawn, and the final factor is redrawn
    while the composite is the identity map.  The default factor count is
    4 + (draw mod 13); pass ``length`` to fix it (used by trace tests).
    """
    q = alphabet.rank
    if q < 2:
        raise PreconditionError("sampling requires rank >= 2")
    draw = prg.next
    nbits = length if length is not None else 4 + draw() % 13
    if nbits < 1:
        raise PreconditionError("factor count must be >= 1")
    bits = [draw() % 2 for _ in range(nbits)]
    factors: list[WhiteheadMove] = []
    images = list(_basis(q))
    for bit in bits:
        for _ in range(_MAX_ATTEMPTS):
            factor = _draw_factor(prg, q, bit)
            if not factors or not _mutually_inverse(factors[-1], factor):
                break
        else:  # pragma: no cover - the pool always contains a valid factor
            raise RuntimeError("factor redraw limit hit")
        factors.append(factor)
        before = images.copy()  # the images the last factor started from
        _step(images, factor)
    basis = list(_basis(q))
    attempts = 0
    while images == basis:
        attempts += 1
        if attempts > _MAX_ATTEMPTS:  # pragma: no cover
            raise RuntimeError("identity-composite redraw limit hit")
        # redraw the final factor, kind bit included: with a fixed kind every
        # candidate may either cancel the previous factor or complete the
        # identity (all-inversion sequences at rank 2 deadlock)
        bit = bits[-1] if attempts == 1 else draw() % 2
        factor = _draw_factor(prg, q, bit)
        if len(factors) > 1 and _mutually_inverse(factors[-2], factor):
            continue
        factors[-1] = factor
        images = before.copy()
        _step(images, factor)
    return FactoredAutomorphism._make(alphabet, tuple(factors), tuple(images))


# ---------------------------------------------------------------------------
# Textual form: one factor per line, applied top to bottom.
#   T1 i | T2 i j | INV name | W name ; L = names ; R = names ; M = names
# ---------------------------------------------------------------------------

def format_automorphism(f: FactoredAutomorphism) -> str:
    lines = []
    names = f.alphabet.names
    for factor in f.factors:
        if isinstance(factor, ElementaryMove):
            lines.append(str(factor))
        elif factor.kind == "INV":
            lines.append(f"INV {names[factor.a - 1]}")
        else:
            def group(ix: frozenset[int]) -> str:
                members = [names[i - 1] for i in sorted(ix)]
                return (" " + " ".join(members)) if members else ""
            lines.append(f"W {names[factor.a - 1]} ; L ={group(factor.L)} ; "
                         f"R ={group(factor.R)} ; M ={group(factor.M)}")
    return "\n".join(lines)


def _parse_name_set(alphabet: Alphabet, clause: str, tag: str) -> frozenset[int]:
    head, _, body = clause.partition("=")
    if head.strip() != tag:
        raise WordSyntaxError(f"expected '{tag} = ...', got {clause!r}")
    names = body.split()
    return frozenset(alphabet.index(n) for n in names)


def parse_automorphism(text: str, alphabet: Alphabet) -> FactoredAutomorphism:
    factors: list[Factor] = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        kind = parts[0]
        if kind in ("T1", "T2", "T3"):
            factors.extend(parse_moves(ln))  # T3 fails in from_factors
        elif kind == "INV":
            if len(parts) != 2:
                raise WordSyntaxError(f"bad factor line {ln!r}")
            factors.append(WhiteheadMove("INV", alphabet.index(parts[1])))
        elif kind == "W":
            body = ln[1:].strip()
            clauses = [c.strip() for c in body.split(";")]
            if len(clauses) != 4:
                raise WordSyntaxError(f"bad multiplier line {ln!r}")
            a = alphabet.index(clauses[0])
            L = _parse_name_set(alphabet, clauses[1], "L")
            R = _parse_name_set(alphabet, clauses[2], "R")
            M = _parse_name_set(alphabet, clauses[3], "M")
            factors.append(WhiteheadMove("W", a, L, R, M))
        else:
            raise WordSyntaxError(f"bad factor line {ln!r}")
    return from_factors(factors, alphabet)
