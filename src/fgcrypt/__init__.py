"""Cryptosystems built on automorphisms of finitely generated free groups.

Two schemes plus their supporting machinery: a polyalphabetic private-key
cipher whose key is a Nielsen reduced subgroup basis (each symbol enciphered
by a fresh automorphism from a congruence-generator schedule), and an
ElGamal-style public-key exchange over automorphism orbits, with an exact
SL(2,Q) representation for matrix ciphertexts and a desk-scale subset-search
attack harness.
"""

from .words import (
    Alphabet,
    Word,
    ball_size,
    compare_words,
    concat,
    format_word,
    generators,
    parse_word,
)
from .nielsen import (
    ElementaryMove,
    GeneratingTuple,
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
from .automorphisms import (
    FactoredAutomorphism,
    WhiteheadMove,
    format_automorphism,
    from_factors,
    identity_automorphism,
    parse_automorphism,
    random_whitehead_automorphism,
)
from .keystream import (
    AutFamily,
    LcgParams,
    Prg,
    derive_automorphism,
    has_max_period,
    keystream,
    lcg_next,
    splitmix64,
)
from .matrices import (
    Mat2Q,
    RepSpec,
    default_tl_params,
    demo_representation,
    format_matrix,
    make_representation,
    mat_det,
    mat_inv,
    mat_mul,
    matrix_to_word,
    parse_matrix,
    tl_generator,
    word_to_matrix,
)
from .otp import (
    CipherPrivateKey,
    CipherPublicParams,
    Ciphertext,
    build_cipher_table,
    decrypt,
    decrypt_with_table,
    encrypt,
    format_ciphertext,
    keygen,
    parse_ciphertext,
    parse_key_file,
    write_key_file,
)
from .pubkey import (
    CipherPair,
    PubkeyParams,
    alice_decrypt,
    alice_decrypt_matrix,
    alice_keygen,
    bob_encrypt,
    bob_encrypt_matrix,
)
from .cryptanalysis import (
    AttackConfig,
    AttackReport,
    attack_cost_estimate,
    enumerate_ball,
    primitive_growth_rates,
    primitive_lower_bound_rank2,
    subset_attack,
)
from . import errors

__version__ = "0.1.0"
