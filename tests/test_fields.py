"""Every text field goes through one reader.  An integer in a key, LCG,
params or pair file or in a CLI flag is ASCII ``[+-]?[0-9]+`` (hex digits
for seeds), and a file without a required ``key = value`` line, or with
two lines for one key, raises ``WordSyntaxError`` naming the key, which the
CLI reports with exit 2."""

import re
from pathlib import Path

import pytest

from fgcrypt import alice_keygen, bob_encrypt
from fgcrypt.cli import run
from fgcrypt.errors import WordSyntaxError
from fgcrypt.keystream import LcgParams, format_lcg_lines, parse_lcg_lines
from fgcrypt.otp import parse_key_file
from fgcrypt.pubkey import parse_pair_file, parse_params_file, write_pair_file
from fgcrypt.words import _parse_int

FIXTURES = Path(__file__).parent / "fixtures"
KEY = (FIXTURES / "otp_demo" / "key.txt").read_text()
MESSAGE = FIXTURES / "otp_demo" / "message.txt"
PARAMS = FIXTURES / "pubkey_demo" / "params.txt"
AUT = (FIXTURES / "pubkey_demo" / "f.aut").read_text()
LCG = format_lcg_lines(LcgParams(64, 5, 3), 0x1234)

# int() reads each of these: underscores, non-ASCII digits, a base prefix
# (with base 16) and surrounding spaces
BAD_INTEGERS = ["1_0", "٣", "0x10", " 7"]
# past sys.get_int_max_str_digits() decimal digits int() raises a plain
# ValueError, which must reach the CLI as a syntax error too
LONG = "9" * 5000


def _params():
    return parse_params_file(PARAMS.read_text(), AUT)


def _pair_text():
    params = _params()
    c = alice_keygen(params, 2)
    return write_pair_file(bob_encrypt(params, c, params.alphabet.parse("x1"), 2))


def _set(text, key, value):
    return re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)


def _drop(text, key):
    return "".join(ln for ln in text.splitlines(keepends=True)
                   if ln.partition("=")[0].strip() != key)


@pytest.mark.parametrize("text", BAD_INTEGERS + ["", "+", "7 7", "1.0"])
@pytest.mark.parametrize("base", [10, 16])
def test_parse_int_rejects(text, base):
    with pytest.raises(WordSyntaxError):
        _parse_int(text, base)


def test_parse_int_reads_signed_ascii():
    assert [_parse_int(t) for t in ("0", "+7", "-12", "007")] == [0, 7, -12, 7]
    assert _parse_int("-fF", 16) == -255
    assert _parse_int("ffffffffffffffff", 16) == (1 << 64) - 1


# the value sits after "key = ", whose spaces belong to the line grammar, so
# a file can only spell the three inputs that are not surrounding spaces
@pytest.mark.parametrize("bad", BAD_INTEGERS[:3])
@pytest.mark.parametrize("key", ["N", "alpha", "m", "beta", "gamma", "seed"])
def test_key_file_integer_fields(key, bad):
    with pytest.raises(WordSyntaxError, match="integer"):
        parse_key_file(_set(KEY, key, bad))


@pytest.mark.parametrize("bad", BAD_INTEGERS[:3])
@pytest.mark.parametrize("key", ["m", "beta", "gamma", "seed"])
def test_lcg_integer_fields(key, bad):
    with pytest.raises(WordSyntaxError, match="integer"):
        parse_lcg_lines(_set(LCG, key, bad))


@pytest.mark.parametrize("key", ["N", "alpha", "m", "beta", "gamma"])
def test_key_file_overlong_integer(key, tmp_path, capsys):
    text = _set(KEY, key, LONG)
    with pytest.raises(WordSyntaxError, match="integer has 5000 digits"):
        parse_key_file(text)
    (tmp_path / "key.txt").write_text(text)
    assert run(["otp-encrypt", "--key", str(tmp_path / "key.txt"),
                "--in", str(MESSAGE)]) == 2
    assert capsys.readouterr().err == "error: integer has 5000 digits\n"


@pytest.mark.parametrize("key", ["m", "beta", "gamma"])
def test_lcg_overlong_integer(key):
    with pytest.raises(WordSyntaxError, match="integer has 5000 digits"):
        parse_lcg_lines(_set(LCG, key, LONG))


# (flag, an argv in which the flag's value is {v}); files are never read,
# because the flag fails while the arguments are parsed
_FLAGS = {
    "--seed": ["otp-keygen", "--alphabet", "a b", "--plaintext-alphabet",
               "X Y", "--seed", "{v}"],
    "--modulus-exponent": ["otp-keygen", "--alphabet", "a b",
                           "--plaintext-alphabet", "X Y", "--seed", "01",
                           "--modulus-exponent", "{v}"],
    "--beta": ["otp-keygen", "--alphabet", "a b", "--plaintext-alphabet",
               "X Y", "--seed", "01", "--beta", "{v}"],
    "--gamma": ["otp-keygen", "--alphabet", "a b", "--plaintext-alphabet",
                "X Y", "--seed", "01", "--gamma", "{v}"],
    "--positions": ["otp-table", "--key", "k.txt", "--positions", "{v}"],
    "pubkey-keygen --n": ["pubkey-keygen", "--params", "p.txt", "--n", "{v}"],
    "--t": ["pubkey-encrypt", "--params", "p.txt", "--public", "c.txt",
            "--message", "m.txt", "--t", "{v}"],
    "pubkey-decrypt --n": ["pubkey-decrypt", "--params", "p.txt", "--n", "{v}",
                           "--pair", "pair.txt"],
    "pubkey-decrypt --max-len": ["pubkey-decrypt", "--params", "p.txt", "--n",
                                 "2", "--pair", "pair.txt", "--max-len", "{v}"],
    "rep-decode --max-len": ["rep-decode", "--alphabet", "a b", "--matrix",
                             "[[1, 0],[0, 1]]", "--max-len", "{v}"],
    "--ball-radius": ["attack", "--alphabet", "a b", "--ball-radius", "{v}",
                      "--rank", "2", "--subset-size", "2"],
    "--rank": ["attack", "--alphabet", "a b", "--ball-radius", "2",
               "--rank", "{v}", "--subset-size", "2"],
    "--subset-size": ["attack", "--alphabet", "a b", "--ball-radius", "2",
                      "--rank", "2", "--subset-size", "{v}"],
    "--max-subsets": ["attack", "--alphabet", "a b", "--ball-radius", "2",
                      "--rank", "2", "--subset-size", "2",
                      "--max-subsets", "{v}"],
    "lcg-check --modulus-exponent": ["lcg-check", "--modulus-exponent", "{v}",
                                     "--beta", "5", "--gamma", "3"],
    "lcg-check --beta": ["lcg-check", "--modulus-exponent", "8",
                         "--beta", "{v}", "--gamma", "3"],
    "lcg-check --gamma": ["lcg-check", "--modulus-exponent", "8",
                          "--beta", "5", "--gamma", "{v}"],
}


@pytest.mark.parametrize("flag", sorted(_FLAGS))
def test_integer_flags_exit_1(flag, capsys):
    option = flag.split()[-1]
    for bad in BAD_INTEGERS + [LONG]:
        argv = [a.format(v=bad) for a in _FLAGS[flag]]
        assert run(argv) == 1, (flag, bad)
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: argument {option}:")
        assert "Traceback" not in err


def test_flags_still_read_plain_integers(capsys):
    assert run(["lcg-check", "--modulus-exponent", "+8", "--beta", "5",
                "--gamma", "3"]) == 0
    assert capsys.readouterr().out == "max_period = true\n"


_KEY_LINES = ["alphabet", "N", "plaintext_alphabet", "alpha",
              "m", "beta", "gamma", "seed"]


@pytest.mark.parametrize("key", _KEY_LINES)
def test_key_file_missing_line(key, tmp_path, capsys):
    text = _drop(KEY, key)
    with pytest.raises(WordSyntaxError, match=f"missing '{key} = ...' line"):
        parse_key_file(text)
    (tmp_path / "key.txt").write_text(text)
    assert run(["otp-encrypt", "--key", str(tmp_path / "key.txt"),
                "--in", str(MESSAGE)]) == 2
    assert capsys.readouterr().err == f"error: missing '{key} = ...' line\n"


@pytest.mark.parametrize("key", ["m", "beta", "gamma", "seed"])
def test_lcg_missing_line(key):
    with pytest.raises(WordSyntaxError, match=f"missing '{key} = ...' line"):
        parse_lcg_lines(_drop(LCG, key))


@pytest.mark.parametrize("key", ["alphabet", "a", "aut_file"])
def test_params_file_missing_line(key, tmp_path, capsys):
    text = _drop(PARAMS.read_text(), key)
    if key != "aut_file":  # the CLI resolves aut_file; the library takes its text
        with pytest.raises(WordSyntaxError,
                           match=f"missing '{key} = ...' line"):
            parse_params_file(text, AUT)
    (tmp_path / "params.txt").write_text(text)
    (tmp_path / "f.aut").write_text(AUT)
    assert run(["pubkey-keygen", "--params", str(tmp_path / "params.txt"),
                "--n", "2"]) == 2
    assert capsys.readouterr().err == f"error: missing '{key} = ...' line\n"


@pytest.mark.parametrize("key", ["c1", "c2"])
def test_pair_file_missing_line(key, tmp_path, capsys):
    text = _drop(_pair_text(), key)
    with pytest.raises(WordSyntaxError, match=f"missing '{key} = ...' line"):
        parse_pair_file(text, _params().alphabet)
    (tmp_path / "pair.txt").write_text(text)
    assert run(["pubkey-decrypt", "--params", str(PARAMS), "--n", "2",
                "--pair", str(tmp_path / "pair.txt")]) == 2
    assert capsys.readouterr().err == f"error: missing '{key} = ...' line\n"


# a second line for a key is an error, not a silent override, wherever it
# sits; the key file's repeat comes after its tuple block
def _repeat(text, key, value):
    return text.rstrip("\n") + f"\n{key} = {value}\n"


def _otp_encrypt_fails(text, key, tmp_path, capsys):
    (tmp_path / "key.txt").write_text(text)
    assert run(["otp-encrypt", "--key", str(tmp_path / "key.txt"),
                "--in", str(MESSAGE)]) == 2
    assert capsys.readouterr().err == f"error: repeated '{key} = ...' line\n"


def test_key_file_repeated_line(tmp_path, capsys):
    text = _repeat(KEY, "alpha", "7")
    with pytest.raises(WordSyntaxError, match="repeated 'alpha = ...' line"):
        parse_key_file(text)
    _otp_encrypt_fails(text, "alpha", tmp_path, capsys)


def test_lcg_repeated_line(tmp_path, capsys):
    # the CLI reads LCG lines inside a key file
    with pytest.raises(WordSyntaxError, match="repeated 'seed = ...' line"):
        parse_lcg_lines(_repeat(LCG, "seed", "00ff"))
    _otp_encrypt_fails(_repeat(KEY, "seed", "00ff"), "seed", tmp_path, capsys)


def test_params_file_repeated_line(tmp_path, capsys):
    text = _repeat(PARAMS.read_text(), "a", "x1")
    with pytest.raises(WordSyntaxError, match="repeated 'a = ...' line"):
        parse_params_file(text, AUT)
    (tmp_path / "params.txt").write_text(text)
    (tmp_path / "f.aut").write_text(AUT)
    assert run(["pubkey-keygen", "--params", str(tmp_path / "params.txt"),
                "--n", "2"]) == 2
    assert capsys.readouterr().err == "error: repeated 'a = ...' line\n"


def test_pair_file_repeated_line(tmp_path, capsys):
    text = _repeat(_pair_text(), "c1", "x1")
    with pytest.raises(WordSyntaxError, match="repeated 'c1 = ...' line"):
        parse_pair_file(text, _params().alphabet)
    (tmp_path / "pair.txt").write_text(text)
    assert run(["pubkey-decrypt", "--params", str(PARAMS), "--n", "2",
                "--pair", str(tmp_path / "pair.txt")]) == 2
    assert capsys.readouterr().err == "error: repeated 'c1 = ...' line\n"
