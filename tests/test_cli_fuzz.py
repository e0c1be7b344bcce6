"""Bounded fuzz of the CLI's text grammars: whatever a mutated input file
holds, ``cli.run`` returns 0, 1 or 2 and never raises.

Each grammar starts from a valid text (a fixture or a library-written
file) and applies up to four random edits: a span of up to six characters
is cut at a random position and a grammar token or a short printable string
is put in its place.  The pubkey automorphism ``f`` is left alone: the
finite-order check in ``PubkeyParams`` is capped (a composite that could
pass 2^24 letters leaves the order undecided), but a mutated ``f`` that
grows fast still costs seconds per example before it reaches the cap.  Exponents stay
below 100: ``a^n`` expands into n letters, Nielsen reduction of ``(a^n, a)``
takes a number of steps that grows with n, and the word grammar's 2^24-letter
cap is far above what that reduction finishes quickly.
"""

import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fgcrypt import Alphabet, alice_keygen, bob_encrypt, bob_encrypt_matrix
from fgcrypt.cli import run
from fgcrypt.matrices import make_representation
from fgcrypt.pubkey import parse_params_file, write_pair_file

FIXTURES = Path(__file__).parent / "fixtures"
OTP = FIXTURES / "otp_demo"
PUB = FIXTURES / "pubkey_demo"

_TOKENS = ["T1", "T2", "T3", "INV", "W", " ; ", "L =", "R =", "M =", "=", "a",
           "b", "x1", "q", "^", "^-", "-", "0", "1", "7", "/", "|", "[", "]",
           ",", " ", "\n", "#", "begin tuple", "end tuple", "sixty", "alphabet",
           "N", "m", "seed", "alpha", "c1", "c2"]
PIECES = st.sampled_from(_TOKENS) | st.text(
    st.characters(min_codepoint=32, max_codepoint=126), max_size=3)
# (position, characters cut, piece put in); positions past the end append
EDITS = st.lists(st.tuples(st.integers(0, 600), st.integers(0, 6), PIECES),
                 min_size=1, max_size=4)
_END = 10 ** 6


def mutate(text: str, edits) -> str:
    for pos, cut, piece in edits:
        pos = min(pos, len(text))
        text = text[:pos] + piece + text[pos + cut:]
    return text


def _small_exponents(text: str) -> bool:
    for exp in re.findall(r"\^(\S*)", text):
        try:
            if abs(int(exp)) >= 100:
                return False
        except ValueError:
            pass
    return True


def _pair_texts():
    params = parse_params_file((PUB / "params.txt").read_text(),
                               (PUB / "f.aut").read_text(),
                               rep=make_representation(Alphabet(("x1", "x2", "x3"))))
    m = params.alphabet.parse("x1 x2^-1 x3")
    c = alice_keygen(params, 2)
    return (write_pair_file(bob_encrypt(params, c, m, 2)),
            write_pair_file(bob_encrypt_matrix(params, c, m, 2)))


WORD_PAIR, MATRIX_PAIR = _pair_texts()
PUBKEY = ["--params", "{dir}/params.txt", "--n", "2", "--pair", "{file}",
          "--max-len", "4"]

# grammar -> (valid text, argv with {file} for the mutated file)
GRAMMARS = {
    "aut-apply": ((OTP / "aut1.txt").read_text(),
                  ["aut-apply", "--alphabet", "a b c d", "--aut", "{file}",
                   "--word", "d^2 c^-2"]),
    "aut-invert": ((OTP / "aut3.txt").read_text()
                   + "INV b\nW c ; L = a ; R = d ; M = c\n",
                   ["aut-invert", "--alphabet", "a b c d", "--aut", "{file}"]),
    "nielsen-reduce": ("begin tuple\nb a^2\nc d\nd^2 c^-2\na^-1 b\nend tuple\n",
                       ["nielsen-reduce", "--alphabet", "a b c d", "--in",
                        "{file}", "--moves", "{dir}/moves.txt"]),
    "otp-decrypt": ((OTP / "key.txt").read_text(),
                    ["otp-decrypt", "--key", "{file}", "--in",
                     str(OTP / "ciphertext.txt")]),
    "pubkey-decrypt": (WORD_PAIR, ["pubkey-decrypt"] + PUBKEY),
    # the mutated file is the params file: its aut_file = f.aut resolves
    # inside the work directory
    "pubkey-keygen": ((PUB / "params.txt").read_text(),
                      ["pubkey-keygen", "--params", "{file}", "--n", "2"]),
    "pubkey-decrypt-matrix": (MATRIX_PAIR,
                              ["pubkey-decrypt", "--matrix"] + PUBKEY),
    "rep-decode": ("[[-2, 3],[1, -2]]",
                   ["rep-decode", "--alphabet", "a b", "--matrix", "{text}",
                    "--max-len", "6"]),
}


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as d:
        for name in ("params.txt", "f.aut"):
            shutil.copy(PUB / name, d)
        yield Path(d)


# 100 examples per grammar (800 runs, about 8 s on a 2-vCPU machine) keep
# the suite's time reasonable; the @example rows pin the inputs that crashed
# before every grammar went through one wrapped parser.  The deadline is far
# above the slowest seen example (otp-decrypt, well under 0.2 s) so only a
# runaway input trips it, not a busy machine.
@pytest.mark.parametrize("grammar", sorted(GRAMMARS))
@settings(max_examples=100, deadline=5000)
@given(edits=EDITS)
@example(edits=[(0, 0, "T1 x\n")])
@example(edits=[(_END, 0, "\nm = sixty\n")])
@example(edits=[(_END, 0, "\nalphabet = a a\n")])
@example(edits=[(_END, 0, "\nc1 = x1^\n")])
def test_cli_never_raises(grammar, edits, workdir):
    valid, argv = GRAMMARS[grammar]
    text = mutate(valid, edits)
    assume(_small_exponents(text))
    path = workdir / "input.txt"
    path.write_text(text)
    args = [a.format(file=path, dir=workdir, text=text) for a in argv]
    assert run(args + ["--out", str(workdir / "out.txt")]) in (0, 1, 2)
