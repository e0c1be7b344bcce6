"""ElGamal-style key exchange over automorphism orbits.

Alice publishes f^n(a); Bob hides his message behind f^t of her key and
ships f^t(a) alongside; commuting powers make the pad cancel exactly.  The
matrix variant sends the first component through a faithful SL(2,Q)
representation instead.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Union

from .automorphisms import (FactoredAutomorphism, _basis, _power,
                           parse_automorphism)
from .errors import CapExceededError, DecryptionError, PreconditionError
from .matrices import (Mat2Q, RepSpec, _evaluate, format_matrix,
                       matrix_to_word, parse_matrix, word_to_matrix)
from .words import (Alphabet, Word, _Value, concat, format_word,
                    parse_kv_lines, parse_word)

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


# ---------------------------------------------------------------------------
# Finite order.  The kernel IA(F_q) of Aut(F_q) -> GL(q, Z) is torsion-free
# (Baumslag-Taylor 1968), so f has finite order exactly when its
# abelianization A has some finite order k and f^k = id.  A has finite order
# exactly when its characteristic polynomial is a product of cyclotomic
# polynomials Phi_d and A is a root of r, the product of the distinct Phi_d;
# k is then the lcm of those d.  A is held as sparse rows {column: entry}.
# ---------------------------------------------------------------------------

# the entry operations the characteristic polynomials may cost; past it the
# check searches the orders up to 12 instead
_ORDER_WORK = 1 << 21


def _abelianization(f: FactoredAutomorphism) -> list[dict[int, int]]:
    """The integer matrix of f on F/[F, F]: column j counts the letters of
    f(x_j) by sign."""
    A: list[dict[int, int]] = [{} for _ in range(f.alphabet.rank)]
    for j, image in enumerate(f.codes):
        for c in image:
            row = A[c >> 1]
            row[j] = row.get(j, 0) + (-1 if c & 1 else 1)
    return [{j: v for j, v in row.items() if v} for row in A]


def _diagonal_blocks(A: list[dict[int, int]]) -> list[list[dict[int, int]]]:
    """The principal submatrices of A on the strongly connected components
    of the graph with an edge i -> j for each entry A[i][j] (Kosaraju).
    Ordered by them A is block triangular, so det(xI - A) is the product of
    their characteristic polynomials: generators that a map fixes or
    permutes in short cycles cost almost nothing."""
    n = len(A)
    seen = [False] * n
    finished = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [(s, iter(A[s]))]
        while stack:
            v, edges = stack[-1]
            for w in edges:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(A[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    into: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(A):
        for j in row:
            into[j].append(i)
    blocks = []
    for s in reversed(finished):  # reversed edges; seen now means unplaced
        if not seen[s]:
            continue
        seen[s] = False
        block = [s]
        for v in block:
            for w in into[v]:
                if seen[w]:
                    seen[w] = False
                    block.append(w)
        at = {i: pos for pos, i in enumerate(block)}
        blocks.append([{at[j]: a for j, a in A[i].items() if j in at}
                       for i in block])
    return blocks


def _char_poly(A: list[dict[int, int]]) -> list[int]:
    """det(xI - A), leading coefficient first (Faddeev-LeVerrier; each
    division is exact over Z), in about nnz(A) * n^2 entry operations."""
    n = len(A)
    coeffs = [1]
    AM = [[0] * n for _ in range(n)]  # A M_0, with M_0 = 0
    for k in range(1, n + 1):
        M = AM  # M_k = A M_(k-1) + c I, in place
        for i in range(n):
            M[i][i] += coeffs[-1]
        AM = []
        for row in A:
            acc = [0] * n
            for j, a in row.items():
                acc = [x + a * y for x, y in zip(acc, M[j])]
            AM.append(acc)
        coeffs.append(-sum(AM[i][i] for i in range(n)) // k)
    return coeffs


def _divmod_monic(p: list[int], m: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of p by the monic m (len(p) >= len(m)),
    leading coefficients first."""
    p = list(p)
    n = len(m) - 1
    for i in range(len(p) - n):
        c = p[i]
        if c:
            for j in range(1, n + 1):
                p[i + j] -= c * m[j]
    return p[:len(p) - n], p[len(p) - n:]


def _cyclotomic_factors(chi: list[int]) -> Optional[dict[int, list[int]]]:
    """{d: Phi_d} over the factors of the monic chi when it is a product of
    cyclotomic polynomials, else None.  Only the d with phi(d) <= deg chi
    can occur, and phi(d) >= sqrt(d / 2) bounds them."""
    q = len(chi) - 1
    bound = 2 * q * q
    phi = list(range(bound + 1))
    for p in range(2, bound + 1):
        if phi[p] == p:
            for k in range(p, bound + 1, p):
                phi[k] -= phi[k] // p
    cyclotomic: dict[int, list[int]] = {}
    found = {}
    for d in range(1, bound + 1):
        if len(chi) == 1:
            return found
        if phi[d] >= len(chi):  # Phi_d has degree phi(d) > deg chi
            continue
        c = [1] + [0] * (d - 1) + [-1]  # x^d - 1 over the Phi_e, e | d
        for e, ce in cyclotomic.items():
            if d % e == 0:
                c = _divmod_monic(c, ce)[0]
        cyclotomic[d] = c
        while len(chi) >= len(c):
            quot, rem = _divmod_monic(chi, c)
            if any(rem):
                break
            chi = quot
            found[d] = c
    return found if len(chi) == 1 else None


def _apply(A: list[dict[int, int]], p: list[int], v: list[int]) -> list[int]:
    """p(A) v by Horner's rule: deg p products of A with a vector, where
    p(A) itself could fill in to n^2 entries."""
    w = [0] * len(v)
    for c in p:
        w = [sum(a * w[j] for j, a in row.items()) + c * x
             for row, x in zip(A, v)]
    return w


def _is_period(f: FactoredAutomorphism, k: int) -> bool:
    """Whether f^k = id, tested as f^h = (f^-1)^(k-h) with h = ceil(k/2):
    the coded images of f and f^-1 are powered by ``_power``, O(log k)
    compositions with no factor lists (h copies of f's factors could fill
    memory).  A power past the 2^24-letter cap leaves it undecided, and
    counts as no."""
    h = (k + 1) // 2
    try:
        lhs = _power(f.codes, h)
        rhs = (_power(f.inverse().codes, k - h)
               if k > h else _basis(f.alphabet.rank))
    except CapExceededError:
        return False
    return lhs == rhs


def _finite_order(f: FactoredAutomorphism) -> Optional[int]:
    """The order of f, or None when it is infinite or left undecided.
    With k the lcm above, f is composed to test f^k = id only when
    r(A) v = 0 for the fixed vector v = (1, ..., q), found by applying each
    Phi_d in turn: r(A) = 0 implies that, and the test on f decides either
    way.  When the characteristic polynomials would cost more than
    _ORDER_WORK entry operations, the orders k <= 12 with A^k v = v are
    tried instead, smallest first."""
    A = _abelianization(f)
    v = list(range(1, len(A) + 1))
    blocks = _diagonal_blocks(A)
    if sum(len(b) ** 2 * sum(map(len, b)) for b in blocks) > _ORDER_WORK:
        return next((k for k in range(1, 13)
                     if not any(_apply(A, [1] + [0] * (k - 1) + [-1], v))
                     and _is_period(f, k)), None)
    factors: dict[int, list[int]] = {}
    for block in blocks:
        found = _cyclotomic_factors(_char_poly(block))
        if found is None:
            return None
        factors.update(found)
    for phi in factors.values():
        v = _apply(A, phi, v)
    k = math.lcm(*factors)
    return k if not any(v) and _is_period(f, k) else None


class PubkeyParams(_Value):
    """Public data: the base word a != 1 and an automorphism f intended to
    have infinite order.  Construction warns when f has finite order.  It
    composes f only when the abelianization of f may have finite order
    (never for the bundled demo), and gives no warning when the order is
    left undecided: a power of f the test needs passes the 2^24-letter cap
    once freely reduced, or the abelianization is too costly to factor and
    the order is above 12."""

    __slots__ = _fields = ("alphabet", "a", "f", "rep")

    alphabet: Alphabet
    a: Word
    f: FactoredAutomorphism
    rep: Optional[RepSpec]

    def __init__(self, alphabet: Alphabet, a: Word, f: FactoredAutomorphism,
                 rep: Optional[RepSpec] = None):
        if a.is_identity():
            raise PreconditionError("base word must not be the identity")
        if f.is_identity():
            raise PreconditionError("automorphism must not be the identity")
        if a.alphabet.names != alphabet.names:
            raise PreconditionError("base word alphabet differs")
        if f.alphabet.names != alphabet.names:
            raise PreconditionError("automorphism alphabet differs")
        k = _finite_order(f)
        if k is not None:
            warnings.warn(f"automorphism has finite order {k}; "
                          "the scheme expects infinite order", stacklevel=2)
        self._fill(alphabet, a, f, rep)

    def _check_exponent(self, n: int) -> None:
        if n < 1:
            raise PreconditionError("exponent must be >= 1")
        if n > _MAX_EXPONENT:
            raise PreconditionError(
                f"exponent {n} exceeds the cap {_MAX_EXPONENT}")


class CipherPair(_Value):
    __slots__ = _fields = ("c1", "c2")

    c1: Union[Word, Mat2Q]
    c2: Word

    def __init__(self, c1: Union[Word, Mat2Q], c2: Word):
        self._fill(c1, c2)


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
    """Matrix variant: c1 = g(m * f^t(c)) = g(m) * g(f^t(c)), c2 as before.
    c1 comes first, from the values of f^t's images along c, not a word."""
    if params.rep is None:
        raise PreconditionError("matrix variant needs a representation")
    params._check_exponent(t)
    ft = params.f.power(t)
    c1 = _evaluate(params.rep, c, word_to_matrix(params.rep, m), ft.codes)
    return CipherPair(c1, ft.apply(params.a))


def alice_decrypt_matrix(params: PubkeyParams, n: int, pair: CipherPair,
                         decode_bound: int = 32) -> Word:
    """Recover g(m) = c1 * g(f^n(c2))^-1 exactly, then decode the word.
    The product runs along c2^-1, read from c2's letters without building
    it, over the values of f^n's images.

    Raises :class:`DecryptionError` when no word of length <= decode_bound
    evaluates to g(m), as with a wrong n; a miss is never anything else."""
    if params.rep is None:
        raise PreconditionError("matrix variant needs a representation")
    params._check_exponent(n)
    if not isinstance(pair.c1, Mat2Q):
        raise PreconditionError("matrix-variant decrypt needs a matrix c1")
    G = _evaluate(params.rep, pair.c2, pair.c1, params.f.power(n).codes,
                  inverse=True)
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
