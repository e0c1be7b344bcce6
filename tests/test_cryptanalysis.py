import hashlib
import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from fgcrypt import (
    Alphabet,
    AttackConfig,
    GeneratingTuple,
    Word,
    attack_cost_estimate,
    ball_size,
    canonical_minimal_basis,
    cryptanalysis,
    enumerate_ball,
    generators,
    is_nielsen_reduced,
    nielsen_reduce,
    primitive_growth_rates,
    primitive_lower_bound_rank2,
    subset_attack,
)
from fgcrypt.cryptanalysis import (BALL_CAP, AttackReport, _colex_subsets,
                                   format_report)
from fgcrypt.errors import (AlphabetMismatchError, CapExceededError,
                            PreconditionError)
from fgcrypt.nielsen import _as_tuple, _core_graph

AB = Alphabet(("a", "b"))
XYZ = Alphabet(("x", "y", "z"))


def t(alphabet, *texts):
    return GeneratingTuple(alphabet, tuple(alphabet.parse(s) for s in texts))


class TestBall:
    def test_rank2_radius1(self):
        ball = enumerate_ball(AB, 1)
        assert len(ball) == 4
        assert [str(w) for w in ball] == ["a", "a^-1", "b", "b^-1"]

    def test_rank2_radius2(self):
        assert len(enumerate_ball(AB, 2)) == 16

    def test_rank3_radius2(self):
        assert len(enumerate_ball(XYZ, 2)) == 36

    def test_counts_match_closed_form(self):
        for q, names in ((2, ("a", "b")), (3, ("x", "y", "z"))):
            alphabet = Alphabet(names)
            for radius in range(1, 6):
                ball = enumerate_ball(alphabet, radius)
                assert len(ball) == ball_size(q, radius)
                assert len(set(ball)) == len(ball)

    @pytest.mark.parametrize("names", [("a", "b"), ("x", "y", "z"),
                                       ("a", "b", "c", "d")])
    def test_emitted_in_word_order(self, names):
        # the breadth-first build emits the word order without a sort
        alphabet = Alphabet(names)
        radius = 2
        while ball_size(len(names), radius) <= BALL_CAP:
            ball = enumerate_ball(alphabet, radius)
            assert ball == sorted(ball, key=Word.sort_key)
            radius += 1

    def test_cap_refusal(self):
        with pytest.raises(CapExceededError,
                           match=f"ball has {ball_size(2, 20)} elements; "
                                 f"the cap is {BALL_CAP}$"):
            enumerate_ball(AB, 20)


class TestSubsetAttack:
    def test_planted_key_recovered(self):
        cfg = AttackConfig(ball_radius=2, target_rank=2, subset_size=2)
        planted = t(AB, "a", "b")
        report = subset_attack(AB, cfg, planted)
        assert report.complete
        assert report.subsets_examined == math.comb(16, 2)
        assert report.hit_index == 2
        target = canonical_minimal_basis(planted).elements
        assert any(c.elements == target for c in report.candidates)

    def test_planted_key_over_another_alphabet_refused(self):
        # the same letters under other names are another group's subgroup,
        # though their codes match the hit's
        cfg = AttackConfig(ball_radius=1, target_rank=2, subset_size=2)
        xyz = Alphabet(("x", "y", "z"))
        with pytest.raises(AlphabetMismatchError,
                           match="^alphabet mismatch: a b vs x y z$"):
            subset_attack(AB, cfg, t(xyz, "x", "y"))

    def test_candidates_are_reduced_rank_n(self):
        cfg = AttackConfig(ball_radius=2, target_rank=2, subset_size=2)
        report = subset_attack(AB, cfg)
        assert report.candidates
        for cand in report.candidates:
            assert len(cand) == 2
            assert is_nielsen_reduced(cand)

    def test_ball_too_small_no_hit(self):
        cfg = AttackConfig(ball_radius=1, target_rank=2, subset_size=2)
        report = subset_attack(AB, cfg, t(AB, "a b", "b^2"))
        assert report.hit_index is None
        assert report.complete

    def test_uncapped_subset_count(self):
        cfg = AttackConfig(ball_radius=2, target_rank=2, subset_size=3)
        report = subset_attack(AB, cfg)
        assert report.subsets_examined == 560  # C(16, 3)

    def test_cap_marks_incomplete(self):
        cfg = AttackConfig(ball_radius=2, target_rank=2, subset_size=2,
                           max_subsets=10)
        report = subset_attack(AB, cfg)
        assert not report.complete
        assert report.subsets_examined == 10

    @pytest.mark.parametrize("max_subsets", [0, -1])
    def test_max_subsets_below_one_rejected(self, max_subsets):
        # 0 used to mean "no limit" and -1 to examine nothing
        with pytest.raises(PreconditionError):
            AttackConfig(ball_radius=2, target_rank=2, subset_size=2,
                         max_subsets=max_subsets)

    def test_deterministic(self):
        cfg = AttackConfig(ball_radius=2, target_rank=2, subset_size=2)
        r1 = subset_attack(AB, cfg, t(AB, "a", "b"))
        r2 = subset_attack(AB, cfg, t(AB, "a", "b"))
        assert r1.hit_index == r2.hit_index
        assert [c.elements for c in r1.candidates] == \
            [c.elements for c in r2.candidates]

    def test_report_text(self):
        cfg = AttackConfig(ball_radius=1, target_rank=2, subset_size=2)
        text = format_report(subset_attack(AB, cfg, t(AB, "a", "b")))
        assert "subsets_examined = " in text
        assert "hit_index = " in text
        assert "begin tuple" in text


# The three benchmark configurations (alphabet, ball radius, target rank N,
# subset size K) plus a rank-3 one with N = K = 3.
ATTACK_CONFIGS = ((AB, 3, 2, 2), (AB, 2, 2, 3), (XYZ, 2, 2, 2), (XYZ, 1, 3, 3))


def _colex(n, k):
    return sorted(combinations(range(n), k), key=lambda s: s[::-1])


def _colex_recursive(n, k):
    """The recursive enumeration the iterative one replaced: one level per
    subset element, so it overflows the stack at large k."""
    if k == 0:
        yield ()
        return
    for top in range(k - 1, n):
        for rest in _colex_recursive(top, k - 1):
            yield rest + (top,)


class TestColexSubsets:
    def test_matches_recursive_oracle(self):
        for n in range(9):
            for k in range(n + 2):
                got = list(_colex_subsets(n, k))
                assert got == list(_colex_recursive(n, k)), (n, k)
                assert got == _colex(n, k)

    def test_large_subset_size_is_lazy_and_flat(self):
        # 1100 nested generators exceeded the default recursion limit
        subsets = _colex_subsets(1500, 1100)
        assert next(subsets) == tuple(range(1100))
        assert next(subsets) == tuple(range(1099)) + (1100,)


def _planted(rng, ball, cfg):
    """A seeded K-subset of the ball that reduces to rank N."""
    while True:
        chosen = sorted(rng.sample(range(len(ball)), cfg.subset_size))
        tup = GeneratingTuple(ball[0].alphabet, tuple(ball[i] for i in chosen))
        if len(nielsen_reduce(tup)[0]) == cfg.target_rank:
            return tup


class TestAttackGolden:
    # SHA-256 over format_report and hit_index for two seeded planted bases
    # per configuration.  Computed with the attack that ran
    # canonical_minimal_basis on every full-rank subset.
    DIGEST = "a1d2f8d0dc37fcc12d65f915ea7c73bca9a1b754a566a8b91fe7bafb1c8924b6"

    def test_golden_digest(self):
        rng = random.Random("attack-golden")
        lines = []
        for alphabet, radius, n, k in ATTACK_CONFIGS:
            cfg = AttackConfig(ball_radius=radius, target_rank=n, subset_size=k)
            ball = enumerate_ball(alphabet, radius)
            for _ in range(2):
                report = subset_attack(alphabet, cfg, _planted(rng, ball, cfg))
                lines.append(f"{report.hit_index}\n{format_report(report)}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.DIGEST

    @pytest.mark.parametrize("config", [c for c in ATTACK_CONFIGS if c[1] == 2])
    def test_candidates_are_canonical_bases_of_full_rank_subsets(self, config):
        alphabet, radius, n, k = config
        cfg = AttackConfig(ball_radius=radius, target_rank=n, subset_size=k)
        ball = enumerate_ball(alphabet, radius)
        expected = {}
        for subset in _colex(len(ball), k):
            tup = GeneratingTuple(alphabet, tuple(ball[i] for i in subset))
            if len(nielsen_reduce(tup)[0]) == n:
                canon = canonical_minimal_basis(tup).elements
                expected.setdefault(canon, None)
        report = subset_attack(alphabet, cfg)
        assert [c.elements for c in report.candidates] == list(expected)


def _reference_attack(alphabet, cfg, planted=None):
    """The attack loop that folds every subset, with no inverse-swap skip."""
    ball = enumerate_ball(alphabet, cfg.ball_radius)
    target = None if planted is None else canonical_minimal_basis(planted).elements
    bases = {}
    examined, hit_index = 0, None
    subsets = _colex(len(ball), cfg.subset_size)
    for subset in subsets[:cfg.max_subsets]:
        examined += 1
        rank, key, tree = _core_graph([ball[i].codes for i in subset])
        if rank != cfg.target_rank:
            continue
        if key not in bases:
            bases[key] = canonical_minimal_basis(_as_tuple(alphabet, tree))
        if hit_index is None and bases[key].elements == target:
            hit_index = examined
    return AttackReport(tuple(bases.values()), examined, 0.0,
                        examined == len(subsets), hit_index)


def _swap_skipped(ball, subset):
    """Whether some element's inverse sits earlier in the ball and outside
    the subset, so an inverse swap gives an earlier colex subset."""
    where = {w: i for i, w in enumerate(ball)}
    return any(where[ball[i].inverse()] < i
               and where[ball[i].inverse()] not in subset for i in subset)


class TestInverseSwapSkip:
    # the benchmark configurations, the rank-3 one, and x y z at radius 2
    # with N = K = 3
    CONFIGS = ATTACK_CONFIGS + ((XYZ, 2, 3, 3),)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_matches_the_loop_that_folds_every_subset(self, config):
        alphabet, radius, n, k = config
        ball = enumerate_ball(alphabet, radius)
        full = AttackConfig(ball_radius=radius, target_rank=n, subset_size=k)
        planted = _planted(random.Random(f"skip {config[1:]}"), ball, full)
        subsets = _colex(len(ball), k)
        first_skip = next(i for i, s in enumerate(subsets, 1)
                          if _swap_skipped(ball, s))
        hit = _reference_attack(alphabet, full, planted).hit_index
        assert hit is not None
        # cuts at and just after the first skipped subset, and just before
        # and exactly at the hit
        cuts = {None, first_skip, first_skip + 1, hit, max(hit - 1, 1)}
        for cut in cuts:
            cfg = AttackConfig(ball_radius=radius, target_rank=n,
                               subset_size=k, max_subsets=cut)
            for key in (None, planted):
                got = subset_attack(alphabet, cfg, key)
                want = _reference_attack(alphabet, cfg, key)
                assert (got.hit_index, got.complete, got.subsets_examined) == \
                    (want.hit_index, want.complete, want.subsets_examined), cut
                assert format_report(got) == format_report(want), cut

    def test_first_skipped_subset(self, monkeypatch):
        # the ball starts a, a^-1, b: {a, a^-1} and {a, b} are folded, and
        # {a^-1, b} is counted only, as {a, b} came first
        ball = enumerate_ball(AB, 3)
        assert [_swap_skipped(ball, s) for s in _colex(len(ball), 2)[:3]] == \
            [False, False, True]
        graphs = []
        monkeypatch.setattr(cryptanalysis, "_core_graph",
                            lambda elements: graphs.append(elements)
                            or _core_graph(elements))
        cfg = AttackConfig(ball_radius=3, target_rank=2, subset_size=2,
                           max_subsets=3)
        assert subset_attack(AB, cfg).subsets_examined == 3
        assert graphs == [[b"\0", b"\1"], [b"\0", b"\2"]]  # a a^-1, a b


class TestAttackWork:
    # distinct rank-N subgroups among the subsets of each benchmark
    # configuration; the attack walks once per subgroup, not per subset
    @pytest.mark.parametrize("config,subgroups",
                             zip(ATTACK_CONFIGS[:3], (185, 10, 86)))
    def test_one_canonical_walk_per_subgroup(self, monkeypatch, config,
                                             subgroups):
        walks = []
        real = cryptanalysis.canonical_minimal_basis
        monkeypatch.setattr(cryptanalysis, "canonical_minimal_basis",
                            lambda tup: walks.append(tup) or real(tup))
        alphabet, radius, n, k = config
        cfg = AttackConfig(ball_radius=radius, target_rank=n, subset_size=k)
        report = subset_attack(alphabet, cfg)
        assert len(walks) == len(report.candidates) == subgroups
        walks.clear()
        planted = GeneratingTuple(alphabet, generators(alphabet)[:n])
        assert subset_attack(alphabet, cfg, planted).hit_index is not None
        assert len(walks) == subgroups + 1  # and one for the planted key

    # subsets folded of the 1326, 560 and 630 examined: those with no element
    # whose inverse sits earlier in the ball and outside the subset
    @pytest.mark.parametrize("config,folds",
                             zip(ATTACK_CONFIGS[:3], (351, 112, 171)))
    def test_inverse_swapped_subsets_are_not_folded(self, monkeypatch, config,
                                                    folds):
        graphs = []
        monkeypatch.setattr(cryptanalysis, "_core_graph",
                            lambda elements: graphs.append(1)
                            or _core_graph(elements))
        alphabet, radius, n, k = config
        cfg = AttackConfig(ball_radius=radius, target_rank=n, subset_size=k)
        subsets = math.comb(len(enumerate_ball(alphabet, radius)), k)
        assert subset_attack(alphabet, cfg).subsets_examined == subsets
        assert len(graphs) == folds
        graphs.clear()
        planted = GeneratingTuple(alphabet, generators(alphabet)[:n])
        assert subset_attack(alphabet, cfg, planted).hit_index is not None
        assert len(graphs) == folds


class TestBounds:
    @pytest.mark.parametrize("k,expected", [
        (1, F(8, 3)), (2, 4), (3, 8), (4, 12), (5, 24), (6, 36), (7, 72),
    ])
    def test_rank2_lower_bound(self, k, expected):
        assert primitive_lower_bound_rank2(k) == expected

    def test_k_positive(self):
        with pytest.raises(PreconditionError):
            primitive_lower_bound_rank2(0)

    def test_growth_rates(self):
        assert primitive_growth_rates(3) == (3, 4)
        assert primitive_growth_rates(4) == (5, 6)
        with pytest.raises(PreconditionError):
            primitive_growth_rates(2)


class TestCostEstimate:
    def test_small(self):
        est = attack_cost_estimate(AttackConfig(2, 2, 2), 2)
        assert est.ball == 16
        assert est.subsets == 120
        assert est.per_subset_cost == 4

    def test_subset_size_exceeds_ball(self):
        est = attack_cost_estimate(AttackConfig(1, 2, 5), 2)
        assert est.subsets == 0

    def test_astronomical_exact(self):
        est = attack_cost_estimate(AttackConfig(7, 12, 12), 4)
        assert est.ball == sum(8 * 7 ** (k - 1) for k in range(1, 8))
        assert est.subsets == math.comb(est.ball, 12)
        assert est.subsets > 10 ** 60
