"""Freely reduced words over a finite generating alphabet.

A word is stored as a tuple of nonzero signed generator indices: ``+i``
stands for the i-th generator, ``-i`` for its inverse (1-based).  Every
``Word`` is freely reduced by construction; unreduced letter sequences only
exist transiently inside its constructor.  Words and alphabets are
immutable, so all operations here are pure and thread-safe.

The free-reduction kernel works on plain signed tuples: ``_seam`` (letters
cancelling where two words meet), the product ``_concat_signed``, the
inverse ``_invert_signed`` and the substitution ``_substitute``.  No other
module reduces words.

The package's value classes (``Alphabet`` and ``Word`` here; tuples,
moves, maps, parameters and reports in their own modules) derive from
``_Value``: plain ``__slots__`` classes whose constructors check their
input and set each slot through the slot's own setter, and which refuse
every later write.
"""

from __future__ import annotations

import re
from itertools import count, islice, repeat
from operator import attrgetter, length_hint, neg
from typing import Iterable, Sequence

from .errors import (AlphabetMismatchError, CapExceededError,
                     InvalidLetterError, PreconditionError,
                     WordSyntaxError)

__all__ = [
    "Alphabet",
    "Word",
    "concat",
    "compare_words",
    "parse_word",
    "format_word",
    "generators",
    "ball_size",
]


class _Value:
    """Base of the package's immutable value classes.  A subclass names in
    ``_fields`` the fields ``repr`` shows and, where equality and hashing
    read fewer, those in ``_compared``; ``==`` holds between instances of
    one class with equal compared fields, and the hash is that of their
    tuple.  Every write is refused, so constructors set their slots through
    the slots' own setters (``_setters``)."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        names = cls.__dict__.get("_compared", cls._fields)
        get = attrgetter(*names)
        cls._key = staticmethod(get if len(names) > 1
                                else lambda value: (get(value),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return _restore, (type(self),
                          tuple(getattr(self, name) for name in self.__slots__))


def _setters(cls: type) -> list:
    """The setters of ``cls``'s slots in ``__slots__`` order, which skip the
    ``__setattr__`` that refuses every write."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]


def _restore(cls: type, values: tuple) -> _Value:
    """The value of ``cls`` whose slots hold ``values``: copy and pickle."""
    value = object.__new__(cls)
    for setter, field_value in zip(_setters(cls), values):
        setter(value, field_value)
    return value


class Alphabet(_Value):
    """An ordered finite set of generator names; rank q = len(names)."""

    # _index maps each name to its 1-based index, derived from ``names``
    __slots__ = ("names", "_index")
    _fields = ("names",)

    names: tuple[str, ...]

    def __init__(self, names: tuple[str, ...]):
        if isinstance(names, list):  # tolerate list input
            names = tuple(names)
        if len(names) < 1:
            raise PreconditionError("alphabet needs at least one generator")
        seen = set()
        for name in names:
            if not name:
                raise PreconditionError("generator names must be non-empty")
            if any(ch.isspace() or ch in "^|=;" for ch in name):
                raise PreconditionError(f"invalid generator name {name!r}")
            if name.isdigit():
                raise PreconditionError(
                    f"generator name {name!r} collides with exponents")
            if name in seen:
                raise PreconditionError(f"duplicate generator name {name!r}")
            seen.add(name)
        _set_names(self, names)
        _set_index(self, {name: i for i, name in enumerate(names, 1)})

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        """1-based index of a generator name."""
        try:
            return self._index[name]
        except KeyError:
            raise InvalidLetterError(f"unknown generator {name!r}") from None

    def generator(self, i: int) -> "Word":
        """The length-1 word x_i (1-based)."""
        if not 1 <= i <= self.rank:
            raise InvalidLetterError(f"generator index {i} out of range 1..{self.rank}")
        return Word._make(self, (i,))

    def identity(self) -> "Word":
        return Word._make(self, ())

    def parse(self, text: str) -> "Word":
        return parse_word(text, self)

    def __str__(self):
        return " ".join(self.names)


_set_names, _set_index = _setters(Alphabet)


def _as_signed(letter: int, q: int) -> int:
    """A raw letter, checked before free reduction can cancel it."""
    if isinstance(letter, int) and letter and -q <= letter <= q:
        return letter
    raise InvalidLetterError(f"not a letter of rank {q}: {letter!r}")


class Word(_Value):
    """A freely reduced word.  Compare with ``<`` etc. for the ShortLex-style
    total order (length first, then x1 < x1^-1 < x2 < x2^-1 < ...)."""

    __slots__ = _fields = ("alphabet", "signed")

    alphabet: Alphabet
    signed: tuple[int, ...]

    def __init__(self, alphabet: Alphabet, letters: Iterable[int] = ()):
        q = alphabet.rank
        signed = _reduce_signed(_as_signed(l, q) for l in letters)
        _set_alphabet(self, alphabet)
        _set_signed(self, signed)

    @classmethod
    def _make(cls, alphabet: Alphabet, signed: tuple[int, ...]) -> "Word":
        """Internal: wrap an already-reduced, already-validated tuple."""
        w = object.__new__(cls)
        _set_alphabet(w, alphabet)
        _set_signed(w, signed)
        return w

    def __len__(self) -> int:
        return len(self.signed)

    def is_identity(self) -> bool:
        return not self.signed

    def inverse(self) -> "Word":
        return Word._make(self.alphabet, _invert_signed(self.signed))

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __pow__(self, n: int) -> "Word":
        """w^n; more than 2^24 letters raise CapExceededError.  The identity
        is its own power; any other w has |w^n| >= |n|, so an |n| past the
        cap is refused at once, and the cap bounds the letters fed."""
        if not self.signed:
            return self
        if abs(n) > _MAX_LETTERS:
            raise CapExceededError(f"|w^n| >= |n| > {_MAX_LETTERS} letters")
        return Word._make(self.alphabet, _substitute(
            (self.signed,), repeat(1 if n > 0 else -1, abs(n)), _MAX_LETTERS))

    def sort_key(self) -> tuple:
        return (len(self.signed), _rank_tuple(self.signed))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Word)
                and self.alphabet.names == other.alphabet.names
                and self.signed == other.signed)

    def __hash__(self) -> int:
        return hash((self.alphabet.names, self.signed))

    def __lt__(self, other: "Word") -> bool:
        return compare_words(self, other) < 0

    def __le__(self, other: "Word") -> bool:
        return compare_words(self, other) <= 0

    def __gt__(self, other: "Word") -> bool:
        return compare_words(self, other) > 0

    def __ge__(self, other: "Word") -> bool:
        return compare_words(self, other) >= 0

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


_set_alphabet, _set_signed = _setters(Word)


def _reduce_signed(seq: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for s in seq:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def _rank_tuple(signed: Sequence[int]) -> tuple[int, ...]:
    # x1 < x1^-1 < x2 < x2^-1 < ...
    return tuple(2 * (abs(s) - 1) + (0 if s > 0 else 1) for s in signed)


def _same_alphabet(u: Word, v: Word) -> None:
    if u.alphabet.names != v.alphabet.names:
        raise AlphabetMismatchError(
            f"alphabet mismatch: {u.alphabet} vs {v.alphabet}")


# The signed-tuple kernel: free reduction, inversion and substitution on
# plain tuples, for callers that build Words only at their boundary.
def _seam(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of letters cancelling in the product of two freely reduced
    signed sequences."""
    c = 0
    bound = min(len(a), len(b))
    while c < bound and a[-1 - c] == -b[c]:
        c += 1
    return c


def _concat_signed(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Freely reduced product of two freely reduced signed tuples."""
    if not (a and b and a[-1] == -b[0]):
        return a + b
    c = _seam(a, b)
    return a[:len(a) - c] + b[c:]


def _invert_signed(a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(neg, reversed(a)))


def _substitute(images: Sequence[tuple[int, ...]], letters: Iterable[int],
                cap: int | None = None,
                inverses: dict[int, tuple[int, ...]] | None = None
                ) -> tuple[int, ...]:
    """Freely reduced image of the signed letters under x_i -> images[i-1];
    the images are freely reduced, so letters cancel only at the seams, and
    a seam is measured only when its first letters cancel (most do not).
    With ``cap``, an image longer than cap letters raises CapExceededError
    once it has passed the cap, by at most one letter's image.  The running
    check is skipped when the letters' length hint times the longest image,
    a bound on the unreduced image, is within the cap; letters without a
    hint are always checked.  A negative letter s takes the inverse of
    images[-s-1], inverted at most once into ``inverses``; a caller that
    substitutes into the same images several times passes all its calls
    one dict."""
    if inverses is None:
        inverses = {}
    out: list[int] = []
    if (cap is not None
            and length_hint(letters, cap + 1) * max(map(len, images)) > cap):
        letters = _capped(letters, out, cap)
    for s in letters:
        if s > 0:
            seq = images[s - 1]
        else:
            seq = inverses.get(s)
            if seq is None:
                seq = inverses[s] = _invert_signed(images[-s - 1])
        if out and seq and out[-1] == -seq[0]:
            c = _seam(out, seq)
            del out[len(out) - c:]
            out.extend(seq[c:])
        else:
            out.extend(seq)
    return tuple(out)


def _capped(letters: Iterable[int], out: list[int],
            cap: int) -> Iterable[int]:
    """The letters, with a check before each and after the last that ``out``
    holds at most ``cap`` letters; the error carries len(out) as ``letters``."""
    for s in letters:
        if len(out) > cap:
            break
        yield s
    if len(out) > cap:
        err = CapExceededError(f"image has {len(out)} letters, more than {cap}")
        err.letters = len(out)
        raise err


def concat(u: Word, v: Word) -> Word:
    """Freely reduced product uv."""
    _same_alphabet(u, v)
    return Word._make(u.alphabet, _concat_signed(u.signed, v.signed))


def compare_words(u: Word, v: Word) -> int:
    """Total order: shorter first, ties letter-by-letter; returns -1/0/+1."""
    _same_alphabet(u, v)
    ku, kv = u.sort_key(), v.sort_key()
    if ku < kv:
        return -1
    if ku > kv:
        return 1
    return 0


def generators(alphabet: Alphabet) -> tuple[Word, ...]:
    return tuple(alphabet.generator(i) for i in range(1, alphabet.rank + 1))


def ball_size(q: int, radius: int) -> int:
    """Number of non-identity reduced words of length <= radius at rank q:
    sum over k of 2q (2q-1)^(k-1)."""
    return sum(2 * q * (2 * q - 1) ** (k - 1) for k in range(1, radius + 1))


# ---------------------------------------------------------------------------
# Textual form.  Grammar:  word := "1" | unit (" " unit)* ;
#                          unit := name ("^" nonzero-integer)?
# with integer := [+-]?[0-9]+ (ASCII digits only).
# Any whitespace separates units.  A text is split once and each distinct
# unit is read once, into its signed letter and count.  The letter cap counts
# the units as spelled, before free reduction.  A text with a bad unit, or
# one that may pass the cap, is walked left to right, and the error names the
# first unit at which it goes wrong.  Runs are built only once the whole text
# is known to fit, and ``_substitute`` joins them in text order, cancelling
# at the seams.  Canonical output merges runs of a letter into one unit,
# single spaces.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\S+")

# int() alone would also read "1_0" as 10, " 7" as 7, "0x10" in base 16 and
# Arabic-Indic digits as their values
_INTEGER = r"[+-]?[0-9]+"
_INTEGER_RES = {10: re.compile(_INTEGER), 16: re.compile(r"[+-]?[0-9a-fA-F]+")}


def _parse_int(text: str, base: int = 10) -> int:
    """The only reader of integers in text fields and flags: ASCII digits
    after an optional sign, hex digits in base 16 (seeds).  Anything else
    raises WordSyntaxError, a ValueError."""
    if not _INTEGER_RES[base].fullmatch(text):
        raise WordSyntaxError(f"not a base-{base} integer: {text!r}")
    try:
        return int(text, base)
    except ValueError:  # more decimal digits than sys.get_int_max_str_digits()
        raise WordSyntaxError(f"integer has {len(text)} digits") from None


# letters a word text may spell before free reduction, and letters an
# automorphism's images, an applied image or a word power may hold;
# alice_keygen(n=32) on the bundled pubkey demo yields 9.7M letters
_MAX_LETTERS = 1 << 24


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Read a word text.  Each distinct unit is read once; the text is
    walked for its first error only if a unit is bad or the spelled total
    may pass the cap; then ``_substitute`` joins one run per distinct unit
    in text order, cancelling at the seams."""
    units = text.split()  # splits exactly where _TOKEN does
    if not units:
        raise WordSyntaxError("empty word text; identity is spelled '1'")
    if units == ["1"]:
        return Word._make(alphabet, ())
    distinct = dict.fromkeys(units)  # first seen first
    reads = list(map(_read_unit, distinct, repeat(alphabet._index)))
    counts = [n for _, n in reads]
    # len(units) times the largest count bounds the spelled total, which is
    # summed only when that bound passes the cap
    if (0 in counts
            or len(units) * max(counts) > _MAX_LETTERS
            and sum(map(dict(zip(distinct, counts)).__getitem__, units))
            > _MAX_LETTERS):
        _raise_first_error(text, units, dict(zip(distinct, reads)))
    runs = [(s,) * n for s, n in reads]
    ids = dict(zip(distinct, count(1)))
    return Word._make(alphabet, _substitute(runs, map(ids.__getitem__, units)))


def _read_unit(unit: str, index: dict[str, int]) -> tuple[int | str, int]:
    """A unit's signed letter and count; a bad unit reads as its error
    message and count 0."""
    idx = index.get(unit)
    if idx is not None:  # a bare name
        return idx, 1
    name, _, exp_text = unit.partition("^")
    idx = index.get(name)
    if idx is None:
        return ("'1' cannot be mixed with other units" if unit == "1"
                else f"unknown generator {name!r}"), 0
    try:
        exp = _parse_int(exp_text)
    except ValueError:
        return f"bad exponent {exp_text!r}", 0
    if not exp:
        return "exponent must be nonzero", 0
    return (idx if exp > 0 else -idx), abs(exp)


def _raise_first_error(text: str, units: list[str],
                       reads: dict[str, tuple[int | str, int]]) -> None:
    """Walk the units left to right and raise at the first bad unit or the
    first unit at which the spelled total passes the cap."""
    spelled = 0
    for k, unit in enumerate(units):
        letter, n = reads[unit]
        if not n:  # a bad unit: its message stands in for the letter
            raise WordSyntaxError(letter, _position(text, k))
        spelled += n
        if spelled > _MAX_LETTERS:
            raise CapExceededError(
                f"word text spells more than {_MAX_LETTERS} letters "
                f"(at position {_position(text, k)})")


def _position(text: str, k: int) -> int:
    """Offset of the k-th unit of a word text (error path only)."""
    return next(islice(_TOKEN.finditer(text), k, None)).start()


def format_word(w: Word) -> str:
    signed = w.signed
    if not signed:
        return "1"
    names = w.alphabet.names
    parts: list[str] = []
    run, count = signed[0], 0
    for s in signed + (0,):  # 0 is no letter: it closes the last run
        if s == run:
            count += 1
            continue
        if run > 0:
            parts.append(names[run - 1] if count == 1
                         else f"{names[run - 1]}^{count}")
        else:
            parts.append(f"{names[-run - 1]}^-{count}")
        run, count = s, 1
    return " ".join(parts)


def parse_kv_lines(text: str, required: Iterable[str]) -> dict[str, str]:
    """The "key = value" lines of a key, params or pair file; blank lines,
    "#" comments and other lines without "=" are skipped.  A repeated key,
    or the first ``required`` key without a line, raises WordSyntaxError."""
    out: dict[str, str] = {}
    for ln in text.splitlines():
        key, sep, value = (part.strip() for part in ln.partition("="))
        if sep and not key.startswith("#"):
            if key in out:
                raise WordSyntaxError(f"repeated '{key} = ...' line")
            out[key] = value
    for key in required:
        if key not in out:
            raise WordSyntaxError(f"missing '{key} = ...' line")
    return out
