"""Value semantics of the package's immutable classes: equality and hashing
read the compared fields only, ``repr`` shows the constructor's fields,
every write is refused, and a copy or a pickle round trip is an equal
value."""

import copy
import pickle
from fractions import Fraction

import pytest

from fgcrypt import (
    Alphabet,
    AttackConfig,
    AttackReport,
    AutFamily,
    CipherPair,
    CipherPrivateKey,
    CipherPublicParams,
    Ciphertext,
    ElementaryMove,
    FactoredAutomorphism,
    GeneratingTuple,
    LcgParams,
    Mat2Q,
    PubkeyParams,
    RepSpec,
    WhiteheadMove,
    from_factors,
    make_representation,
    mat_mul,
    nielsen_reduce,
)
from fgcrypt.cryptanalysis import CostEstimate, attack_cost_estimate

AB = Alphabet(("a", "b"))
A, B, AB_WORD = AB.parse("a"), AB.parse("b"), AB.parse("a b")
ALPHABET_REPR = "Alphabet(names=('a', 'b'))"
INV1_REPR = ("WhiteheadMove(kind='INV', a=1, L=frozenset(), R=frozenset(), "
             "M=frozenset())")
T2_REPR = "ElementaryMove(kind='T2', i=1, j=2)"
SHEAR_REPR = (f"FactoredAutomorphism(alphabet={ALPHABET_REPR}, "
              f"factors=({T2_REPR},), images=(Word('a b'), Word('b')))")
FAMILY_REPR = f"AutFamily(master_seed=4660, alphabet={ALPHABET_REPR}, m=64)"


def shear():
    return from_factors([ElementaryMove("T2", 1, 2)], AB)


def public_params(symbols=("x", "y")):
    return CipherPublicParams(AB, list(symbols), AutFamily(0x1234, AB, 64),
                              LcgParams(64, 5, 3))


# name: (build, build a different value, repr, the fields == and hash read)
CASES = {
    "Alphabet": (lambda: Alphabet(["a", "b"]), lambda: Alphabet(("b", "a")),
                 ALPHABET_REPR, ("names",)),
    "GeneratingTuple": (
        lambda: GeneratingTuple(AB, [AB_WORD, B]),
        lambda: GeneratingTuple(AB, (A,)),
        f"GeneratingTuple(alphabet={ALPHABET_REPR}, "
        "elements=(Word('a b'), Word('b')))",
        ("alphabet", "codes")),
    "ElementaryMove": (lambda: ElementaryMove("T2", 1, 2),
                       lambda: ElementaryMove("T2", 2, 1),
                       T2_REPR, ("kind", "i", "j")),
    "WhiteheadMove": (
        lambda: WhiteheadMove("W", 1, {2}, (), [1]),
        lambda: WhiteheadMove("W", 1, (), {2}, [1]),
        "WhiteheadMove(kind='W', a=1, L=frozenset({2}), R=frozenset(), "
        "M=frozenset({1}))",
        ("kind", "a", "L", "R", "M")),
    "FactoredAutomorphism": (
        shear, lambda: from_factors([WhiteheadMove("INV", 1)], AB),
        SHEAR_REPR, ("alphabet", "factors")),
    "LcgParams": (lambda: LcgParams(64, 5, 3), lambda: LcgParams(64, 5, 7),
                  "LcgParams(m=64, beta=5, gamma=3)", ("m", "beta", "gamma")),
    "AutFamily": (lambda: AutFamily(0x1234, AB, 64),
                  lambda: AutFamily(0x1235, AB, 64),
                  FAMILY_REPR, ("master_seed", "alphabet", "m")),
    "Mat2Q": (lambda: Mat2Q(1, "1/2", 3, 4), lambda: Mat2Q(1, 2, 3, 4),
              "Mat2Q(k=(2, 1, 6, 8, 2))", ("k",)),
    "RepSpec": (
        lambda: make_representation(AB),
        lambda: make_representation(AB, tl_params=(3, 6)),
        f"RepSpec(alphabet={ALPHABET_REPR}, "
        "tl_params=(Fraction(2, 1), Fraction(5, 1)), gen_words=None)",
        ("alphabet", "tl_params", "gen_words")),
    "CipherPublicParams": (
        public_params, lambda: public_params(("x", "z")),
        f"CipherPublicParams(alphabet={ALPHABET_REPR}, "
        f"plaintext_alphabet=('x', 'y'), fam={FAMILY_REPR}, "
        "lcg=LcgParams(m=64, beta=5, gamma=3))",
        ("alphabet", "plaintext_alphabet", "fam", "lcg")),
    "CipherPrivateKey": (
        lambda: CipherPrivateKey(GeneratingTuple(AB, (A, B)), 7),
        lambda: CipherPrivateKey(GeneratingTuple(AB, (A, B)), 8),
        f"CipherPrivateKey(basis=GeneratingTuple(alphabet={ALPHABET_REPR}, "
        "elements=(Word('a'), Word('b'))), alpha=7)",
        ("basis", "alpha")),
    "Ciphertext": (lambda: Ciphertext([AB_WORD, B]), lambda: Ciphertext([A]),
                   "Ciphertext(units=(Word('a b'), Word('b')))", ("units",)),
    "PubkeyParams": (
        lambda: PubkeyParams(AB, A, shear()),
        lambda: PubkeyParams(AB, B, shear()),
        f"PubkeyParams(alphabet={ALPHABET_REPR}, a=Word('a'), "
        f"f={SHEAR_REPR}, rep=None)",
        ("alphabet", "a", "f", "rep")),
    "CipherPair": (lambda: CipherPair(A, B),
                   lambda: CipherPair(Mat2Q(1, 2, 0, 1), B),
                   "CipherPair(c1=Word('a'), c2=Word('b'))", ("c1", "c2")),
    "AttackConfig": (
        lambda: AttackConfig(3, 2, 2), lambda: AttackConfig(3, 2, 3, 10),
        "AttackConfig(ball_radius=3, target_rank=2, subset_size=2, "
        "max_subsets=None)",
        ("ball_radius", "target_rank", "subset_size", "max_subsets")),
    "AttackReport": (
        lambda: AttackReport((), 5, 0.5, True),
        lambda: AttackReport((), 5, 0.5, False, 3),
        "AttackReport(candidates=(), subsets_examined=5, elapsed=0.5, "
        "complete=True, hit_index=None)",
        ("candidates", "subsets_examined", "elapsed", "complete",
         "hit_index")),
    "CostEstimate": (
        lambda: attack_cost_estimate(AttackConfig(3, 2, 2), 2),
        lambda: CostEstimate(ball=52, subsets=1326, per_subset_cost=10),
        "CostEstimate(ball=52, subsets=1326, per_subset_cost=9)",
        ("ball", "subsets", "per_subset_cost")),
}


@pytest.mark.parametrize("name", CASES)
def test_equality_and_hash(name):
    build, build_other, _, compared = CASES[name]
    x, y, z = build(), build(), build_other()
    assert type(x).__name__ == name
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert hash(x) == hash(tuple(getattr(x, f) for f in compared))
    assert x != z and not x == z
    assert x.__eq__(object()) is NotImplemented and x != object()


def test_value_classes_are_final():
    # a subclass would take its own slots' setters only, so it is refused
    # when it is created
    with pytest.raises(TypeError, match="final"):
        class Shifted(LcgParams):
            __slots__ = ()
    with pytest.raises(TypeError, match="final"):
        class Seeded(LcgParams):
            __slots__ = ("seed",)


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    build, _, text, _ = CASES[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", CASES)
def test_immutable(name):
    build, _, _, compared = CASES[name]
    x = build()
    field = compared[0]
    value = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, value)
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert getattr(x, field) is value


@pytest.mark.parametrize("name", CASES)
def test_shallow_copy_is_equal(name):
    x = CASES[name][0]()
    for duplicate in (copy.copy, copy.deepcopy,
                      lambda value: pickle.loads(pickle.dumps(value))):
        y = duplicate(x)
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x) and repr(y) == repr(x)


def test_iterators_are_read_once():
    """A sequence field given as an iterator is stored as a tuple, so the
    constructor's own checks do not use it up."""
    words = (AB_WORD, B)
    t = GeneratingTuple(AB, iter(words))
    assert t == GeneratingTuple(AB, words) and len(t) == 2
    assert nielsen_reduce(t) == nielsen_reduce(GeneratingTuple(AB, words))
    c = Ciphertext(iter(words))
    assert c == Ciphertext(words)
    assert str(c) == str(c) == "a b | b"
    assert Alphabet(iter(("a", "b"))) == AB
    assert Alphabet("ab") == AB
    assert (CipherPublicParams(AB, iter(("x", "y")), AutFamily(0x1234, AB, 64),
                               LcgParams(64, 5, 3)) == public_params())


def test_uncompared_fields_stay_out():
    f = shear()
    g = FactoredAutomorphism(AB, f.factors, (A, B))
    assert g == f and hash(g) == hash(f)
    assert repr(g) != repr(f)
    demo = make_representation(AB)
    assert demo.generator_matrices and demo.basis_words is None
    assert RepSpec(AB, (2, 5)) == demo


def test_trusted_builders_make_equal_values():
    empty = frozenset()
    inversion = WhiteheadMove._make("INV", 1, empty, empty, empty)
    assert inversion == WhiteheadMove("INV", 1)
    assert repr(inversion) == INV1_REPR
    product = mat_mul(Mat2Q(1, 2, 0, 1), Mat2Q(1, 0, 2, 1))
    assert product == Mat2Q(5, 2, 2, 1)
    assert hash(product) == hash(((5, 2, 2, 1, 1),))
    assert Mat2Q(Fraction(1, 2), 0, 0, 2).k == (1, 0, 0, 4, 2)


def test_words_refuse_writes_too():
    w = AB.parse("a b^-1")
    with pytest.raises(AttributeError):
        w.signed = ()
    with pytest.raises(AttributeError):
        del w.signed
    assert w.signed == (1, -2)
    assert copy.copy(w) == w
