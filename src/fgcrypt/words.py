"""Freely reduced words over a finite generating alphabet.

A word is stored as one ``bytes`` of rank codes, the package's only letter
encoding: x_i is code 2i-2 and x_i^-1 code 2i-1 (1-based), so a letter's
inverse is ``code ^ 1`` and at equal length ``bytes`` order is the word
order.  A byte holds 256 codes, so an alphabet has at most 128 generators.
Signed letters (+i, -i) appear only in ``Word(alphabet, letters)`` and
``Word.signed``, converted by ``_code`` and ``_signed``.  Every ``Word`` is
freely reduced by construction.  Words and alphabets are immutable, so all
operations here are pure and thread-safe.

The free-reduction kernel works on plain code strings: ``_seam`` (letters
cancelling where two words meet), the product ``_concat_codes``, the
inverse ``_invert_codes`` and the substitution ``_substitute``.  No other
module reduces words.

The package's value classes (``Alphabet`` and ``Word`` here; tuples,
moves, maps, parameters and reports in their own modules) derive from
``_Value``: plain ``__slots__`` classes whose constructors check their
input and hand every slot's value to ``_Value._fill``, and which refuse
every later write.  ``_Value`` is the only code that writes slots.
"""

from __future__ import annotations

import re
from itertools import count, islice, repeat
from operator import attrgetter, length_hint
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
    read others, those in ``_compared``; ``==`` holds between instances of
    one class with equal compared fields, and the hash is that of their
    tuple.  Every write is refused, so this class alone writes slots,
    through the slot setters it takes once per subclass: a constructor
    checks its input and ends with one ``_fill`` of every slot in
    ``__slots__`` order, and ``_make`` builds a value from trusted slot
    values without any check (also for copy and pickle).  The setters are
    those of a class's own ``__slots__``, so value classes are final."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        if cls.__bases__ != (_Value,):
            raise TypeError(f"{cls.__qualname__}: value classes are final")
        names = cls.__dict__.get("_compared", cls._fields)
        get = attrgetter(*names)
        cls._key = staticmethod(get if len(names) > 1
                                else lambda value: (get(value),))
        # the setters skip the __setattr__ that refuses every write
        cls._slot_setters = tuple(getattr(cls, name).__set__
                                  for name in cls.__slots__)

    def _fill(self, *values) -> None:
        setters = self._slot_setters
        for i, value in enumerate(values):
            setters[i](self, value)

    @classmethod
    def _make(cls, *values):
        value = object.__new__(cls)
        setters = cls._slot_setters
        for i, field_value in enumerate(values):  # faster than zip here
            setters[i](value, field_value)
        return value

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
        return self._make, tuple(getattr(self, name) for name in self.__slots__)


class Alphabet(_Value):
    """An ordered set of at most 128 generator names; rank q = len(names)."""

    # _code_of maps each name to its generator's code, derived from ``names``
    __slots__ = ("names", "_code_of")
    _fields = ("names",)

    names: tuple[str, ...]

    def __init__(self, names: tuple[str, ...]):
        names = tuple(names)
        if not 1 <= len(names) <= 128:
            raise PreconditionError(
                f"alphabet needs 1 to 128 generators, not {len(names)}")
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
        self._fill(names, dict(zip(names, range(0, 2 * len(names), 2))))

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        """1-based index of a generator name."""
        try:
            return _signed(self._code_of[name])
        except KeyError:
            raise InvalidLetterError(f"unknown generator {name!r}") from None

    def generator(self, i: int) -> "Word":
        """The length-1 word x_i (1-based)."""
        if not 1 <= i <= self.rank:
            raise InvalidLetterError(f"generator index {i} out of range 1..{self.rank}")
        return Word._make(self, _code(i, self.rank).to_bytes(1, "little"))

    def identity(self) -> "Word":
        return Word._make(self, b"")

    def parse(self, text: str) -> "Word":
        return parse_word(text, self)

    def __str__(self):
        return " ".join(self.names)


# code -> the code of its inverse letter
_INV = bytes(c ^ 1 for c in range(256))


def _code(s: int, q: int) -> int:
    """The rank code of the signed letter s at rank q; anything else raises,
    so ``Word`` checks raw letters before free reduction can cancel them."""
    if isinstance(s, int) and s and -q <= s <= q:
        return 2 * s - 2 if s > 0 else -2 * s - 1
    raise InvalidLetterError(f"not a letter of rank {q}: {s!r}")


def _signed(c: int) -> int:
    """The signed letter of the rank code c."""
    return -(c >> 1) - 1 if c & 1 else (c >> 1) + 1


class Word(_Value):
    """A freely reduced word.  Compare with ``<`` etc. for the ShortLex-style
    total order (length first, then x1 < x1^-1 < x2 < x2^-1 < ...)."""

    __slots__ = _fields = ("alphabet", "codes")

    alphabet: Alphabet
    codes: bytes

    def __init__(self, alphabet: Alphabet, letters: Iterable[int] = ()):
        q = alphabet.rank
        self._fill(alphabet, _reduce_codes(_code(l, q) for l in letters))

    @property
    def signed(self) -> tuple[int, ...]:
        """The letters as signed ints: +i for x_i, -i for x_i^-1."""
        return tuple(map(_signed, self.codes))

    def __len__(self) -> int:
        return len(self.codes)

    def is_identity(self) -> bool:
        return not self.codes

    def inverse(self) -> "Word":
        return Word._make(self.alphabet, _invert_codes(self.codes))

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __pow__(self, n: int) -> "Word":
        """w^n; more than 2^24 letters raise CapExceededError.  The identity
        is its own power; any other w has |w^n| >= |n|, so an |n| past the
        cap is refused at once, and the cap bounds the letters fed."""
        if not self.codes:
            return self
        if abs(n) > _MAX_LETTERS:
            raise CapExceededError(f"|w^n| >= |n| > {_MAX_LETTERS} letters")
        return Word._make(self.alphabet, _substitute(
            (self.codes,), repeat(1 if n < 0 else 0, abs(n)), _MAX_LETTERS))

    def sort_key(self) -> tuple:
        return (len(self.codes), self.codes)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Word)
                and self.alphabet.names == other.alphabet.names
                and self.codes == other.codes)

    def __hash__(self) -> int:
        return hash((self.alphabet.names, self.codes))

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


def _reduce_codes(seq: Iterable[int]) -> bytes:
    out = bytearray()
    for c in seq:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return bytes(out)


def _same_alphabet(x: Alphabet, y: Alphabet) -> None:
    """The one alphabet check; code strings carry no alphabet of their own."""
    if x.names != y.names:
        raise AlphabetMismatchError(f"alphabet mismatch: {x} vs {y}")


# The kernel: free reduction, inversion and substitution on plain code
# strings, for callers that build Words only at their boundary.
def _seam(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of letters cancelling in the product of two freely reduced
    code strings."""
    c = 0
    bound = min(len(a), len(b))
    while c < bound and a[-1 - c] == b[c] ^ 1:
        c += 1
    return c


def _concat_codes(a: bytes, b: bytes) -> bytes:
    """Freely reduced product of two freely reduced code strings."""
    if not (a and b and a[-1] == b[0] ^ 1):
        return a + b
    c = _seam(a, b)
    return a[:len(a) - c] + b[c:]


def _invert_codes(a: bytes) -> bytes:
    return a.translate(_INV)[::-1]


def _substitute(images: Sequence[bytes], letters: Iterable[int],
                cap: int | None = None,
                inverses: dict[int, bytes] | None = None) -> bytes:
    """Freely reduced image of the coded letters under x_i -> images[i-1]
    (code c takes images[c >> 1], inverted when c is odd); the images are
    freely reduced, so letters cancel only at the seams, and a seam is
    measured only when its first letters cancel (most do not).  With
    ``cap``, an image longer than cap letters raises CapExceededError once
    it has passed the cap, by at most one letter's image.  The running
    check is skipped when the letters' length hint times the longest image,
    a bound on the unreduced image, is within the cap; letters without a
    hint are always checked.  Each odd code's image is inverted at most
    once into ``inverses``; a caller that substitutes into the same images
    several times passes all its calls one dict."""
    if inverses is None:
        inverses = {}
    out = bytearray()
    if (cap is not None
            and length_hint(letters, cap + 1) * max(map(len, images)) > cap):
        letters = _capped(letters, out, cap)
    for c in letters:
        if c & 1:
            seq = inverses.get(c)
            if seq is None:
                seq = inverses[c] = _invert_codes(images[c >> 1])
        else:
            seq = images[c >> 1]
        if out and seq and out[-1] == seq[0] ^ 1:
            k = _seam(out, seq)
            del out[len(out) - k:]
            out += seq[k:]
        else:
            out += seq
    return bytes(out)


def _capped(letters: Iterable[int], out: bytearray,
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
    _same_alphabet(u.alphabet, v.alphabet)
    return Word._make(u.alphabet, _concat_codes(u.codes, v.codes))


def compare_words(u: Word, v: Word) -> int:
    """Total order: shorter first, ties letter-by-letter; returns -1/0/+1."""
    _same_alphabet(u.alphabet, v.alphabet)
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
# unit is read once, into its letter's code and count.  The letter cap counts
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
        return Word._make(alphabet, b"")
    distinct = dict.fromkeys(units)  # first seen first
    reads = list(map(_read_unit, distinct, repeat(alphabet._code_of)))
    counts = [n for _, n in reads]
    # len(units) times the largest count bounds the spelled total, which is
    # summed only when that bound passes the cap
    if (0 in counts
            or len(units) * max(counts) > _MAX_LETTERS
            and sum(map(dict(zip(distinct, counts)).__getitem__, units))
            > _MAX_LETTERS):
        _raise_first_error(text, units, dict(zip(distinct, reads)))
    runs = [c.to_bytes(1, "little") * n for c, n in reads]
    ids = dict(zip(distinct, count(0, 2)))  # the code of run k is 2k
    return Word._make(alphabet, _substitute(runs, map(ids.__getitem__, units)))


def _read_unit(unit: str, code_of: dict[str, int]) -> tuple[int | str, int]:
    """A unit's letter code and count; a bad unit reads as its error
    message and count 0."""
    code = code_of.get(unit)
    if code is not None:  # a bare name
        return code, 1
    name, _, exp_text = unit.partition("^")
    code = code_of.get(name)
    if code is None:
        return ("'1' cannot be mixed with other units" if unit == "1"
                else f"unknown generator {name!r}"), 0
    try:
        exp = _parse_int(exp_text)
    except ValueError:
        return f"bad exponent {exp_text!r}", 0
    if not exp:
        return "exponent must be nonzero", 0
    return (code if exp > 0 else code ^ 1), abs(exp)


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
    codes = w.codes
    if not codes:
        return "1"
    names = w.alphabet.names
    parts: list[str] = []
    run, count = codes[0], 0
    # the inverse of the last letter is not that letter: it closes the last run
    for c in codes + (codes[-1] ^ 1).to_bytes(1, "little"):
        if c == run:
            count += 1
            continue
        if run & 1:
            parts.append(f"{names[run >> 1]}^-{count}")
        else:
            parts.append(names[run >> 1] if count == 1
                         else f"{names[run >> 1]}^{count}")
        run, count = c, 1
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
