"""Desk-scale eavesdropper toolkit: Cayley-ball enumeration, the K-subset
subgroup-recovery attack, primitive-element bound estimators and exact attack
cost arithmetic.

The attack is intentionally exponential; hard caps keep it demonstrative.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb
from typing import Iterator, Optional

from .errors import CapExceededError, PreconditionError
from .nielsen import (GeneratingTuple, _as_tuple, _core_graph,
                      canonical_minimal_basis)
from .words import Alphabet, Word, _Value, _invert_codes, ball_size

__all__ = [
    "AttackConfig",
    "AttackReport",
    "CostEstimate",
    "enumerate_ball",
    "subset_attack",
    "primitive_lower_bound_rank2",
    "primitive_growth_rates",
    "attack_cost_estimate",
    "format_report",
]

BALL_CAP = 100_000
SUBSET_CAP = 10_000_000


class AttackConfig(_Value):
    __slots__ = _fields = ("ball_radius", "target_rank", "subset_size",
                           "max_subsets")

    ball_radius: int          # L
    target_rank: int          # N
    subset_size: int          # K >= N
    max_subsets: Optional[int]

    def __init__(self, ball_radius: int, target_rank: int, subset_size: int,
                 max_subsets: Optional[int] = None):
        if ball_radius < 1:
            raise PreconditionError("ball radius must be >= 1")
        if target_rank < 2:
            raise PreconditionError("target rank must be >= 2")
        if subset_size < target_rank:
            raise PreconditionError("subset size must be >= target rank")
        if max_subsets is not None and max_subsets < 1:
            raise PreconditionError("max subsets must be >= 1")
        self._fill(ball_radius, target_rank, subset_size, max_subsets)


class AttackReport(_Value):
    __slots__ = _fields = ("candidates", "subsets_examined", "elapsed",
                           "complete", "hit_index")

    candidates: tuple[GeneratingTuple, ...]
    subsets_examined: int
    elapsed: float
    complete: bool
    hit_index: Optional[int]

    def __init__(self, candidates: tuple[GeneratingTuple, ...],
                 subsets_examined: int, elapsed: float, complete: bool,
                 hit_index: Optional[int] = None):
        self._fill(tuple(candidates), subsets_examined, elapsed, complete,
                   hit_index)


class CostEstimate(_Value):
    __slots__ = _fields = ("ball", "subsets", "per_subset_cost")

    ball: int
    subsets: int
    per_subset_cost: int  # quadratic proxy in the length bound

    def __init__(self, ball: int, subsets: int, per_subset_cost: int):
        self._fill(ball, subsets, per_subset_cost)


def enumerate_ball(alphabet: Alphabet, radius: int) -> list[Word]:
    """All non-identity reduced words of length <= radius, sorted by the word
    order.  Refuses a ball of more than ``BALL_CAP`` words, by the closed
    form, before it builds any."""
    if radius < 1:
        raise PreconditionError("radius must be >= 1")
    q = alphabet.rank
    expected = ball_size(q, radius)
    if expected > BALL_CAP:
        raise CapExceededError(
            f"ball has {expected} elements; the cap is {BALL_CAP}")
    out: list[Word] = []
    frontier = [b""]
    for _ in range(radius):
        nxt = []
        for seq in frontier:
            for c in range(2 * q):
                if seq and seq[-1] == c ^ 1:
                    continue
                item = seq + c.to_bytes(1, "little")
                nxt.append(item)
                out.append(Word._make(alphabet, item))
        frontier = nxt
    # sorted prefixes extended in code order come out in the word order
    return out


def _colex_subsets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Index k-subsets of range(n) in colexicographic order, lazily and
    without recursion (Knuth, TAOCP 7.2.1.3, Algorithm L)."""
    if k > n:
        return
    c = list(range(k)) + [n]  # c[k] is a sentinel
    while True:
        yield tuple(c[:k])
        # the lowest entry that can rise without meeting the next one rises;
        # the entries below it restart at 0, 1, ...
        j = 0
        while j < k and c[j] + 1 == c[j + 1]:
            c[j] = j
            j += 1
        if j == k:
            return
        c[j] += 1


def subset_attack(alphabet: Alphabet, cfg: AttackConfig,
                  oracle_known_basis: Optional[GeneratingTuple] = None
                  ) -> AttackReport:
    """Fold K-subsets of the ball into core graphs and collect the canonical
    bases of the rank-N subgroups they generate.

    Subsets are visited in colex order over the sorted ball, so reports and
    hit indices are reproducible.  With a planted basis supplied, the report
    carries the 1-based count of subsets examined at the first hit.

    Each subset's Stallings core graph gives its subgroup's rank, a key that
    is equal exactly for equal subgroups, and an N-word free basis.  The
    canonical basis is a subgroup invariant, so it is computed once per
    distinct key, from that basis, and looked up for every later subset;
    candidates are the distinct subgroups in order of first appearance.

    The ball is closed under inversion, and u -> u^-1 keeps the subgroup.
    A subset holding some u whose inverse sits earlier in the ball and not
    in the subset is counted but not folded: swapping the two gives a subset
    that comes first in colex order, so it was examined before, within any
    limit, and already gave the same rank, key and hit."""
    started = time.perf_counter()
    ball = enumerate_ball(alphabet, cfg.ball_radius)
    codes = [w.codes for w in ball]
    index = {u: i for i, u in enumerate(codes)}
    # the earlier index of each pair u, u^-1
    first = [min(i, index[_invert_codes(u)]) for i, u in enumerate(codes)]
    limit = min(cfg.max_subsets or SUBSET_CAP, SUBSET_CAP)
    target = None
    if oracle_known_basis is not None:
        target = canonical_minimal_basis(oracle_known_basis).codes
    bases: dict[tuple, GeneratingTuple] = {}  # graph key -> canonical basis
    examined = 0
    complete = True
    hit_index = None
    for subset in _colex_subsets(len(ball), cfg.subset_size):
        if examined >= limit:
            complete = False
            break
        examined += 1
        if not set(subset).issuperset(map(first.__getitem__, subset)):
            continue
        rank, key, tree = _core_graph([codes[i] for i in subset])
        if rank != cfg.target_rank:
            continue
        canon = bases.get(key)
        if canon is None:
            canon = bases[key] = canonical_minimal_basis(
                _as_tuple(alphabet, tree))
        if target is not None and hit_index is None and canon.codes == target:
            hit_index = examined
    return AttackReport(
        candidates=tuple(bases.values()),
        subsets_examined=examined,
        elapsed=time.perf_counter() - started,
        complete=complete,
        hit_index=hit_index,
    )


def primitive_lower_bound_rank2(k: int) -> Fraction:
    """Exact lower bound for the number of primitive elements of length k in
    rank 2: 8 * 3^((k-3)/2) for odd k (8/3 at k=1), 4 * 3^((k-2)/2) for even."""
    if k < 1:
        raise PreconditionError("length must be >= 1")
    if k % 2:
        return Fraction(8, 3) * Fraction(3) ** ((k - 1) // 2)
    return Fraction(4) * Fraction(3) ** ((k - 2) // 2)


def primitive_growth_rates(q: int) -> tuple[int, int]:
    """Exponential growth bases (lower, upper) for primitive counts at rank
    q >= 3; the multiplicative constants are not pinned down."""
    if q < 3:
        raise PreconditionError("growth-rate pair applies to rank >= 3")
    return 2 * q - 3, 2 * q - 2


def attack_cost_estimate(cfg: AttackConfig, q: int) -> CostEstimate:
    """Pure arithmetic: ball size, exact subset count, per-subset cost proxy."""
    ball = ball_size(q, cfg.ball_radius)
    subsets = comb(ball, cfg.subset_size) if cfg.subset_size <= ball else 0
    return CostEstimate(ball=ball, subsets=subsets,
                        per_subset_cost=cfg.ball_radius ** 2)


def format_report(report: AttackReport) -> str:
    lines = [
        f"subsets_examined = {report.subsets_examined}",
        f"candidates = {len(report.candidates)}",
        f"hit_index = {report.hit_index if report.hit_index is not None else 'none'}",
        f"complete = {str(report.complete).lower()}",
    ]
    for cand in report.candidates:
        lines.append(str(cand))
    return "\n".join(lines)
