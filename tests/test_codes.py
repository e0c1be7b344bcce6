"""The one letter store: ``Word.codes`` is one ``bytes`` of rank codes
(x_i -> 2i-2, x_i^-1 -> 2i-1), checked against oracles that read only the
signed view ``Word.signed`` and the public constructor."""

import copy
import functools
import pickle

from hypothesis import given, settings, strategies as st

from fgcrypt import (
    Alphabet,
    ElementaryMove,
    GeneratingTuple,
    Mat2Q,
    Word,
    canonical_minimal_basis,
    concat,
    demo_representation,
    enumerate_ball,
    format_word,
    from_factors,
    make_representation,
    mat_mul,
    matrix_to_word,
    nielsen_reduce,
    parse_word,
    word_to_matrix,
)

ALPHABETS = st.sampled_from([Alphabet(tuple(f"x{i}" for i in range(1, q + 1)))
                             for q in range(1, 7)])


def letters_at(alphabet, max_len=8):
    q = alphabet.rank
    return st.lists(st.integers(-q, q).filter(bool), max_size=max_len)


def words_at(alphabet, max_len=8):
    return letters_at(alphabet, max_len).map(lambda ls: Word(alphabet, ls))


def documented_key(w):
    """Length first, then letter by letter x1 < x1^-1 < x2 < x2^-1 < ..."""
    return len(w.signed), [(abs(s), s < 0) for s in w.signed]


@given(ALPHABETS.flatmap(lambda a: st.lists(words_at(a), max_size=12)))
def test_sorted_is_the_documented_order(ws):
    assert sorted(ws) == sorted(ws, key=documented_key)


@given(ALPHABETS.flatmap(words_at))
def test_signed_copy_and_pickle_round_trips(w):
    assert Word(w.alphabet, w.signed) == w
    for back in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert back == w and hash(back) == hash(w)
        assert type(back.codes) is bytes


def regular_moves(q):
    return ([ElementaryMove("T1", i) for i in range(1, q + 1)]
            + [ElementaryMove("T2", i, j) for i in range(1, q + 1)
               for j in range(1, q + 1) if i != j])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_producer_stores_bytes(data):
    # a tuple or bytearray store would make == silently False against bytes
    alphabet = data.draw(ALPHABETS)
    u, v = data.draw(words_at(alphabet)), data.draw(words_at(alphabet))
    moves = st.lists(st.sampled_from(regular_moves(alphabet.rank)), max_size=6)
    f = from_factors(data.draw(moves), alphabet)
    g = from_factors(data.draw(moves), alphabet)
    t = GeneratingTuple(alphabet, tuple(data.draw(
        st.lists(words_at(alphabet, 4), min_size=1, max_size=3))))
    spec = make_representation(alphabet)
    made = [parse_word(format_word(u), alphabet), concat(u, v), u.inverse(),
            u ** data.draw(st.integers(-3, 3)), f.apply(u),
            *f.compose(g).images, *f.power(data.draw(st.integers(0, 3))).images,
            *nielsen_reduce(t)[0], *canonical_minimal_basis(t),
            *enumerate_ball(alphabet, 2),
            matrix_to_word(spec, word_to_matrix(spec, u), len(u))]
    assert all(type(w.codes) is bytes for w in made)


def _decodes_to_the_reduced_word(spec, letters):
    alphabet = spec.alphabet
    M = functools.reduce(mat_mul, (word_to_matrix(spec, Word(alphabet, [s]))
                                   for s in letters), Mat2Q.identity())
    w = matrix_to_word(spec, M, len(letters))
    # the peel's codes are wrapped as they are, so they must come reduced
    assert w == Word(alphabet, letters)
    assert Word(alphabet, w.signed).codes == w.codes
    assert type(w.codes) is bytes


@given(ALPHABETS.flatmap(lambda a: st.tuples(st.just(a), letters_at(a, 10))))
def test_decoded_words_are_reduced(case):
    alphabet, letters = case
    _decodes_to_the_reduced_word(make_representation(alphabet), letters)


@settings(max_examples=40, deadline=None)
@given(letters_at(Alphabet(("a", "b", "c", "d")), 6))
def test_decoded_words_are_reduced_through_gen_words(letters):
    _decodes_to_the_reduced_word(
        demo_representation(Alphabet(("a", "b", "c", "d"))), letters)
