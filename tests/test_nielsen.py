import hashlib
import random

import pytest

from fgcrypt import (
    Alphabet,
    ElementaryMove,
    GeneratingTuple,
    apply_move,
    apply_moves,
    canonical_minimal_basis,
    expand_expression,
    format_moves,
    format_tuple,
    is_nielsen_reduced,
    is_nielsen_reduced_segments,
    nielsen_reduce,
    parse_moves,
    parse_tuple,
    same_subgroup,
    same_subgroup_by_membership,
    subgroup_membership,
)
from fgcrypt.errors import CapExceededError, IllegalMoveError, PreconditionError

from conftest import random_tuple, random_word, subgroup_ball

AB = Alphabet(("a", "b"))
ABCD = Alphabet(("a", "b", "c", "d"))

DEMO_BASIS = tuple(ABCD.parse(s) for s in (
    "b a^2", "c d", "d^2 c^-2", "a^-1 b", "a^4 b^-1", "b^3 a^-2",
    "b c^3", "b c^-1 b a b^-1", "c^2 b a", "c^2 d a b^-1",
    "a^-1 d^3 c^-1", "a^2 d b^2 d^-1"))


def t(alphabet, *texts):
    return GeneratingTuple(alphabet, tuple(alphabet.parse(s) for s in texts))


class TestMoves:
    def test_t1(self):
        got = apply_move(t(ABCD, "a", "b", "c", "d"), ElementaryMove("T1", 3))
        assert [str(w) for w in got] == ["a", "b", "c^-1", "d"]

    def test_t2_cancellation(self):
        got = apply_move(t(AB, "a b", "b^-1"), ElementaryMove("T2", 1, 2))
        assert [str(w) for w in got] == ["a", "b^-1"]

    def test_demo_sequence(self):
        moves = parse_moves("T1 3\nT2 1 4\nT2 4 3\nT2 2 3\nT1 3\nT2 1 4\nT2 3 1")
        got = apply_moves(t(ABCD, "a", "b", "c", "d"), moves)
        assert [str(w) for w in got] == [
            "a d^2 c^-1", "b c^-1", "c a d^2 c^-1", "d c^-1"]

    def test_t3(self):
        got = apply_move(t(AB, "a", "1", "b"), ElementaryMove("T3", 2))
        assert [str(w) for w in got] == ["a", "b"]

    def test_t3_nonidentity_rejected(self):
        with pytest.raises(IllegalMoveError):
            apply_move(t(AB, "a", "b"), ElementaryMove("T3", 1))

    def test_bad_index(self):
        with pytest.raises(IllegalMoveError):
            apply_move(t(AB, "a"), ElementaryMove("T1", 2))
        with pytest.raises(IllegalMoveError):
            ElementaryMove("T2", 1, 1)

    def test_move_text_round_trip(self):
        moves = [ElementaryMove("T1", 2), ElementaryMove("T2", 1, 3),
                 ElementaryMove("T3", 4)]
        assert parse_moves(format_moves(moves)) == moves

    def test_t1_self_inverse_t2_inverse_sequence(self):
        start = t(AB, "a b", "b a")
        back = apply_moves(start, [ElementaryMove("T1", 1), ElementaryMove("T1", 1)])
        assert back.elements == start.elements
        seq = [ElementaryMove("T2", 1, 2), ElementaryMove("T1", 2),
               ElementaryMove("T2", 1, 2), ElementaryMove("T1", 2)]
        assert apply_moves(start, seq).elements == start.elements


class TestPredicates:
    def test_demo_basis_reduced(self):
        tup = GeneratingTuple(ABCD, DEMO_BASIS)
        assert is_nielsen_reduced(tup)
        assert is_nielsen_reduced_segments(tup)

    def test_pair_violation(self):
        # |ab . b^-1| = 1 < 2
        assert not is_nielsen_reduced(t(AB, "a b", "b"))

    def test_identity_entry(self):
        assert not is_nielsen_reduced(t(AB, "1"))
        with pytest.raises(PreconditionError):
            is_nielsen_reduced_segments(t(AB, "1"))

    def test_segments_examples(self):
        assert is_nielsen_reduced_segments(t(AB, "a", "b"))
        duplicate = t(AB, "a b", "a b")
        assert not is_nielsen_reduced_segments(duplicate)
        assert is_nielsen_reduced(duplicate) == is_nielsen_reduced_segments(duplicate)
        mixed = t(ABCD, "a b", "a c")
        assert is_nielsen_reduced(mixed) == is_nielsen_reduced_segments(mixed)

    def test_predicate_equivalence_randomized(self):
        rng = random.Random(2024)
        for _ in range(2000):
            q = rng.randint(2, 3)
            alphabet = Alphabet(tuple("xyz"[:q]))
            tup = random_tuple(rng, alphabet, rng.randint(1, 4), 6)
            assert is_nielsen_reduced(tup) == is_nielsen_reduced_segments(tup), \
                [str(w) for w in tup]


class TestReduce:
    def test_simple(self):
        reduced, moves = nielsen_reduce(t(AB, "a b", "b"))
        assert is_nielsen_reduced(reduced)
        assert canonical_minimal_basis(reduced).elements == (
            AB.parse("a"), AB.parse("b"))
        assert moves[:3] == [ElementaryMove("T1", 2), ElementaryMove("T2", 1, 2),
                             ElementaryMove("T1", 2)]

    def test_fixpoint(self):
        tup = GeneratingTuple(ABCD, DEMO_BASIS)
        reduced, moves = nielsen_reduce(tup)
        assert reduced.elements == tup.elements
        assert moves == []

    def test_conjugate_pair(self):
        reduced, _ = nielsen_reduce(t(AB, "a b a^-1", "a"))
        assert len(reduced) == 2
        assert is_nielsen_reduced(reduced)
        # generates the whole group: both generators are members
        ball = subgroup_ball(reduced.elements, 6)
        assert AB.parse("a") in ball and AB.parse("b") in ball

    def test_degenerate_tuples(self):
        reduced, moves = nielsen_reduce(t(AB, "1", "1"))
        assert len(reduced) == 0
        assert [m.kind for m in moves] == ["T3", "T3"]
        empty = GeneratingTuple(AB, ())
        assert is_nielsen_reduced(empty)
        assert canonical_minimal_basis(empty).elements == ()
        assert subgroup_membership(empty, AB.parse("1")) == []
        assert subgroup_membership(empty, AB.parse("a")) is None
        # mutually inverse entries collapse to a single generator
        reduced, _ = nielsen_reduce(t(AB, "a b", "b^-1 a^-1"))
        assert len(reduced) == 1

    def test_replay_and_conservation(self):
        rng = random.Random(5)
        for _ in range(300):
            q = rng.randint(2, 3)
            alphabet = Alphabet(tuple("xyz"[:q]))
            tup = random_tuple(rng, alphabet, rng.randint(1, 4), 6, min_len=0)
            reduced, moves = nielsen_reduce(tup)
            assert is_nielsen_reduced(reduced)
            assert apply_moves(tup, moves).elements == reduced.elements
            assert len(reduced) <= len(tup)
            assert same_subgroup(tup, reduced)

    def test_length_minimality_vs_random_regular_moves(self):
        rng = random.Random(6)
        for _ in range(100):
            alphabet = Alphabet(("x", "y"))
            tup = random_tuple(rng, alphabet, 2, 5)
            reduced, _ = nielsen_reduce(tup)
            if len(reduced) < 2:
                continue
            base_total = reduced.total_length()
            variant = reduced
            for _ in range(rng.randint(1, 8)):
                if rng.random() < 0.4:
                    variant = apply_move(variant,
                                         ElementaryMove("T1", rng.randint(1, 2)))
                else:
                    i = rng.randint(1, 2)
                    variant = apply_move(variant,
                                         ElementaryMove("T2", i, 3 - i))
            assert variant.total_length() >= base_total


class TestCanonical:
    def test_inverse_normalize_and_sort(self):
        assert canonical_minimal_basis(t(AB, "b^-1", "a")).elements == (
            AB.parse("a"), AB.parse("b"))

    def test_from_redundant(self):
        assert canonical_minimal_basis(t(AB, "a b", "b")).elements == (
            AB.parse("a"), AB.parse("b"))

    def test_demo_basis_golden(self):
        got = canonical_minimal_basis(GeneratingTuple(ABCD, DEMO_BASIS))
        assert [str(w) for w in got] == [
            "a^-1 b", "c d", "a^-2 b^-1", "a^-1 b^-1 c^-2", "a^-1 b^-1 d^-2",
            "b c^3", "a^4 b^-1", "a^2 b^-3", "a^-1 b^-1 d a b^-1",
            "a^-1 d^3 c^-1", "b a^-1 b^-1 c b^-1", "a^2 d b^2 d^-1"]

    def test_equivalent_inputs_same_output(self):
        # same subgroup, both already Nielsen reduced, different spellings
        s1 = t(AB, "a^2", "a b")
        s2 = t(AB, "a^2", "b^-1 a")
        c1 = canonical_minimal_basis(s1)
        assert c1.elements == canonical_minimal_basis(s2).elements
        assert [str(w) for w in c1] == ["a^2", "a b"]

    def test_random_equivalent_inputs(self):
        rng = random.Random(31)
        for _ in range(150):
            q = rng.randint(2, 3)
            alphabet = Alphabet(tuple("xyz"[:q]))
            size = rng.randint(2, 3)
            base = random_tuple(rng, alphabet, size, 5)
            variant = base
            for _ in range(rng.randint(1, 8)):
                if rng.random() < 0.4:
                    variant = apply_move(
                        variant, ElementaryMove("T1", rng.randint(1, size)))
                else:
                    i = rng.randint(1, size)
                    j = rng.choice([x for x in range(1, size + 1) if x != i])
                    variant = apply_move(variant, ElementaryMove("T2", i, j))
            assert canonical_minimal_basis(base).elements == \
                canonical_minimal_basis(variant).elements


class TestNielsenGolden:
    # SHA-256 over 1200 seeded tuples at ranks 2-4 (1-4 words of 0-7
    # letters, identity entries included so T3 paths run): each tuple's
    # reduction, its move list and its canonical basis under a 20000-tuple
    # orbit limit ("cap" when the limit is hit).  Pins the order in which
    # the reduction tries replacements and the canonical search's result.
    DIGEST = "d09ed78661ae51dc645d524f38bcd82ee00c533923837c989f79e0dd01661d36"

    def test_golden_digest(self):
        rng = random.Random("nielsen-golden")
        lines = []
        for k in range(1200):
            q = rng.randint(2, 4)
            alphabet = Alphabet(tuple("abcd"[:q]))
            tup = GeneratingTuple(alphabet, tuple(
                random_word(rng, alphabet, 7, min_len=0)
                for _ in range(rng.randint(1, 4))))
            reduced, moves = nielsen_reduce(tup)
            try:
                canon = format_tuple(canonical_minimal_basis(tup, orbit_limit=20000))
            except CapExceededError:
                canon = "cap"
            lines.append(f"{k}\n{format_tuple(reduced)}\n{format_moves(moves)}\n{canon}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.DIGEST


class TestCanonicalExhaustive:
    def test_all_length2_pairs_partition_by_subgroup(self):
        # every pair of rank-2 words of length <= 2: canonical forms must
        # partition the tuples exactly like the membership oracle does
        from fgcrypt import Word
        words = [AB.identity()]
        frontier = [()]
        for _ in range(2):
            nxt = []
            for seq in frontier:
                for i in (1, 2):
                    for s in (i, -i):
                        if seq and seq[-1] == -s:
                            continue
                        nxt.append(seq + (s,))
                        words.append(Word(AB, seq + (s,)))
            frontier = nxt
        classes = {}
        for u in words:
            for v in words:
                tup = GeneratingTuple(AB, (u, v))
                canon = canonical_minimal_basis(tup)
                assert canonical_minimal_basis(canon).elements == canon.elements
                classes.setdefault(tuple(w.signed for w in canon), []).append(tup)
        assert len(classes) == 19
        for members in classes.values():
            for s1, s2 in zip(members, members[1:]):
                assert same_subgroup_by_membership(s1, s2)
        rng = random.Random(3)
        reps = [members[0] for members in classes.values()]
        for _ in range(60):
            s1, s2 = rng.sample(reps, 2)
            assert not same_subgroup_by_membership(s1, s2)


class TestMembership:
    def test_product_of_basis_words(self):
        basis = t(ABCD, "b a^2", "c d")
        expr = subgroup_membership(basis, ABCD.parse("b a^2 c d"))
        assert expr == [1, 2]
        assert expand_expression(basis, expr) == ABCD.parse("b a^2 c d")

    def test_identity(self):
        assert subgroup_membership(t(ABCD, "b a^2", "c d"), ABCD.parse("1")) == []

    def test_absent(self):
        assert subgroup_membership(t(ABCD, "b a^2", "c d"), ABCD.parse("a b")) is None

    def test_requires_reduced_basis(self):
        with pytest.raises(PreconditionError):
            subgroup_membership(t(AB, "a b", "b"), AB.parse("a"))

    def test_against_oracle(self):
        rng = random.Random(17)
        for _ in range(120):
            q = rng.randint(2, 3)
            alphabet = Alphabet(tuple("xyz"[:q]))
            tup = random_tuple(rng, alphabet, rng.randint(1, 3), 4)
            basis, _ = nielsen_reduce(tup)
            ball = subgroup_ball(basis.elements, 3)
            for w in list(ball)[:25]:
                expr = subgroup_membership(basis, w)
                assert expr is not None
                assert expand_expression(basis, expr) == w
            for _ in range(8):
                w = random_word(rng, alphabet, 6, min_len=0)
                expr = subgroup_membership(basis, w)
                if expr is not None:
                    assert expand_expression(basis, expr) == w
                else:
                    assert w not in ball


class TestSameSubgroup:
    def test_examples(self):
        assert same_subgroup(t(AB, "a", "b"), t(AB, "a b", "b"))
        assert not same_subgroup(t(AB, "a"), t(AB, "a^2"))
        s = t(AB, "a b^2", "b a")
        assert same_subgroup(s, s)

    def test_implementations_agree(self):
        rng = random.Random(23)
        for _ in range(120):
            alphabet = Alphabet(("x", "y"))
            s1 = random_tuple(rng, alphabet, rng.randint(1, 3), 4)
            s2 = random_tuple(rng, alphabet, rng.randint(1, 3), 4)
            assert same_subgroup(s1, s2) == same_subgroup_by_membership(s1, s2)


class TestTupleText:
    def test_round_trip(self):
        tup = GeneratingTuple(ABCD, DEMO_BASIS)
        assert parse_tuple(format_tuple(tup), ABCD).elements == tup.elements

    def test_bad_markers(self):
        with pytest.raises(Exception):
            parse_tuple("b a^2\nc d", ABCD)
