import hashlib
import shutil
import time
from pathlib import Path

from fgcrypt import (
    Alphabet,
    Prg,
    canonical_minimal_basis,
    demo_representation,
    format_matrix,
    format_tuple,
    keygen,
    parse_key_file,
    parse_tuple,
    word_to_matrix,
)
from fgcrypt.cli import run
from fgcrypt.nielsen import GeneratingTuple

FIXTURES = Path(__file__).parent / "fixtures"

ABCD = Alphabet(("a", "b", "c", "d"))


def copy_fixture(tmp_path, name):
    dst = tmp_path / name
    shutil.copytree(FIXTURES / name, dst)
    return dst


class TestOtpCommands:
    def test_demo_encrypt_decrypt(self, tmp_path, capsys):
        fx = copy_fixture(tmp_path, "otp_demo")
        aut_args = []
        for i in range(1, 9):
            aut_args += ["--aut", str(fx / f"aut{i}.txt")]
        out = tmp_path / "ct.txt"
        rc = run(["otp-encrypt", "--key", str(fx / "key.txt"),
                  "--in", str(fx / "message.txt"), "--out", str(out)] + aut_args)
        assert rc == 0
        assert out.read_text() == (fx / "ciphertext.txt").read_text()
        back = tmp_path / "msg.txt"
        rc = run(["otp-decrypt", "--key", str(fx / "key.txt"),
                  "--in", str(out), "--out", str(back)] + aut_args)
        assert rc == 0
        assert back.read_text().strip() == "ILIKEBOB"

    def test_keygen_deterministic(self, tmp_path):
        args = ["otp-keygen", "--alphabet", "a b", "--plaintext-alphabet",
                "X Y Z", "--seed", "00000000000000ff",
                "--modulus-exponent", "16"]
        k1, k2 = tmp_path / "k1.txt", tmp_path / "k2.txt"
        assert run(args + ["--out", str(k1)]) == 0
        assert run(args + ["--out", str(k2)]) == 0
        assert k1.read_bytes() == k2.read_bytes()
        params, key = parse_key_file(k1.read_text())
        key.validate(params)
        # the family seed is SHA-256("otp family" + seed, big-endian)
        digest = hashlib.sha256(b"otp family" + (0xFF).to_bytes(8, "big"))
        assert params.fam.master_seed == int.from_bytes(digest.digest()[:8], "big")

    def test_keygen_key_not_recomputable_from_public_seed(self, tmp_path):
        # the key file's `seed` line (the family seed) is public; seeding the
        # key generator with it must not give back the private key
        key_file = tmp_path / "key.txt"
        assert run(["otp-keygen", "--alphabet", "a b c", "--plaintext-alphabet",
                    "X Y Z", "--seed", "00000000000000ff",
                    "--modulus-exponent", "16", "--out", str(key_file)]) == 0
        params, key = parse_key_file(key_file.read_text())
        assert params.fam.master_seed != 0xFF
        rerun = keygen(params, Prg(params.fam.master_seed))
        assert rerun.alpha != key.alpha
        assert rerun.basis.elements != key.basis.elements

    def test_keygen_encrypt_roundtrip(self, tmp_path):
        key = tmp_path / "key.txt"
        assert run(["otp-keygen", "--alphabet", "a b c",
                    "--plaintext-alphabet", "H E L O W R D",
                    "--seed", "123456789abcdef0",
                    "--modulus-exponent", "32", "--out", str(key)]) == 0
        msg = tmp_path / "msg.txt"
        msg.write_text("HELLO WORLD\n")
        ct = tmp_path / "ct.txt"
        assert run(["otp-encrypt", "--key", str(key), "--in", str(msg),
                    "--out", str(ct)]) == 0
        back = tmp_path / "back.txt"
        assert run(["otp-decrypt", "--key", str(key), "--in", str(ct),
                    "--out", str(back)]) == 0
        assert back.read_text().strip() == "HELLOWORLD"

    def test_decrypt_failure_exit_2(self, tmp_path):
        key = tmp_path / "key.txt"
        run(["otp-keygen", "--alphabet", "a b", "--plaintext-alphabet", "X Y",
             "--seed", "0000000000000001", "--modulus-exponent", "16",
             "--out", str(key)])
        bad = tmp_path / "ct.txt"
        bad.write_text("a b a b a b a b\n")
        assert run(["otp-decrypt", "--key", str(key), "--in", str(bad)]) == 2

    def test_table(self, tmp_path, capsys):
        fx = copy_fixture(tmp_path, "otp_demo")
        aut_args = []
        for i in range(1, 9):
            aut_args += ["--aut", str(fx / f"aut{i}.txt")]
        rc = run(["otp-table", "--key", str(fx / "key.txt"),
                  "--positions", "8"] + aut_args)
        assert rc == 0
        out = capsys.readouterr().out
        assert "columns = 93 468 2343 11718 58593 292968 1464843 7324218" in out
        assert "K: c a^2 c a^2 b^-1 a^3 d c a^2 b^-1" not in out  # sanity
        assert "K: " in out


class TestPubkeyCommands:
    def test_word_variant_end_to_end(self, tmp_path, capsys):
        fx = copy_fixture(tmp_path, "pubkey_demo")
        pub = tmp_path / "c.txt"
        assert run(["pubkey-keygen", "--params", str(fx / "params.txt"),
                    "--n", "7", "--out", str(pub)]) == 0
        msg = tmp_path / "m.txt"
        msg.write_text("x3^-2 x2^2 x3 x1^2 x2^-1 x1^-1\n")
        pair = tmp_path / "pair.txt"
        assert run(["pubkey-encrypt", "--params", str(fx / "params.txt"),
                    "--public", str(pub), "--message", str(msg),
                    "--t", "5", "--out", str(pair)]) == 0
        assert run(["pubkey-decrypt", "--params", str(fx / "params.txt"),
                    "--n", "7", "--pair", str(pair)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "x3^-2 x2^2 x3 x1^2 x2^-1 x1^-1"

    def test_matrix_variant(self, tmp_path, capsys):
        fx = copy_fixture(tmp_path, "pubkey_demo")
        pub = tmp_path / "c.txt"
        run(["pubkey-keygen", "--params", str(fx / "params.txt"),
             "--n", "2", "--out", str(pub)])
        msg = tmp_path / "m.txt"
        msg.write_text("x1 x2^-1\n")
        pair = tmp_path / "pair.txt"
        assert run(["pubkey-encrypt", "--params", str(fx / "params.txt"),
                    "--public", str(pub), "--message", str(msg), "--t", "2",
                    "--matrix", "--out", str(pair)]) == 0
        assert "c1 = [[" in pair.read_text()
        assert run(["pubkey-decrypt", "--params", str(fx / "params.txt"),
                    "--n", "2", "--pair", str(pair), "--matrix",
                    "--max-len", "4"]) == 0
        assert capsys.readouterr().out.strip() == "x1 x2^-1"


class TestToolCommands:
    def test_nielsen_reduce_fixpoint(self, tmp_path):
        src = tmp_path / "t.txt"
        tup = GeneratingTuple(ABCD, (ABCD.parse("a"), ABCD.parse("b")))
        src.write_text(format_tuple(tup) + "\n")
        out = tmp_path / "r.txt"
        assert run(["nielsen-reduce", "--alphabet", "a b c d",
                    "--in", str(src), "--out", str(out)]) == 0
        assert out.read_text().strip() == format_tuple(tup)

    def test_nielsen_reduce_matches_library(self, tmp_path, capsys):
        src = tmp_path / "t.txt"
        src.write_text("begin tuple\na b\nb\nend tuple\n")
        assert run(["nielsen-reduce", "--alphabet", "a b", "--in", str(src),
                    "--canonical", "--out", str(tmp_path / "out.txt")]) == 0
        got = parse_tuple((tmp_path / "out.txt").read_text(), Alphabet(("a", "b")))
        lib = canonical_minimal_basis(parse_tuple(src.read_text(),
                                                  Alphabet(("a", "b"))))
        assert got.elements == lib.elements

    def test_nielsen_reduce_canonical_refuses_moves(self, tmp_path, capsys):
        # the canonical search has no move list to write
        src = tmp_path / "t.txt"
        src.write_text("begin tuple\na b\nb\nend tuple\n")
        moves = tmp_path / "moves.txt"
        assert run(["nielsen-reduce", "--alphabet", "a b", "--in", str(src),
                    "--canonical", "--moves", str(moves)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:")
        assert captured.out == ""
        assert not moves.exists()

    def test_aut_apply_and_invert(self, tmp_path, capsys):
        fx = copy_fixture(tmp_path, "otp_demo")
        rc = run(["aut-apply", "--alphabet", "a b c d",
                  "--aut", str(fx / "aut1.txt"), "--word", "d^2 c^-2"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == \
            "d c^-1 d^-1 a^-1 d^-2 a^-1 c^-1"
        inv = tmp_path / "inv.txt"
        assert run(["aut-invert", "--alphabet", "a b c d",
                    "--aut", str(fx / "aut1.txt"), "--out", str(inv)]) == 0
        rc = run(["aut-apply", "--alphabet", "a b c d", "--aut", str(inv),
                  "--word", "d c^-1 d^-1 a^-1 d^-2 a^-1 c^-1"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "d^2 c^-2"

    def test_rep_eval_matches_library(self, capsys):
        rc = run(["rep-eval", "--alphabet", "a b c d", "--preset",
                  "rank4-demo", "--word", "b a^2"])
        assert rc == 0
        expected = format_matrix(word_to_matrix(demo_representation(ABCD),
                                                ABCD.parse("b a^2")))
        assert capsys.readouterr().out.strip() == expected

    def test_rep_decode(self, capsys):
        rc = run(["rep-eval", "--alphabet", "a b", "--word", "a b^-1 a"])
        matrix_text = capsys.readouterr().out.strip()
        assert rc == 0
        rc = run(["rep-decode", "--alphabet", "a b", "--matrix", matrix_text,
                  "--max-len", "5"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "a b^-1 a"

    def test_rep_decode_absent(self, capsys):
        rc = run(["rep-decode", "--alphabet", "a b",
                  "--matrix", "[[1, 1],[0, 1]]", "--max-len", "6"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "absent"

    def test_attack(self, tmp_path, capsys):
        planted = tmp_path / "planted.txt"
        planted.write_text("begin tuple\na\nb\nend tuple\n")
        rc = run(["attack", "--alphabet", "a b", "--ball-radius", "2",
                  "--rank", "2", "--subset-size", "2",
                  "--planted", str(planted)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "subsets_examined = 120" in out
        assert "hit_index = 2" in out

    def test_attack_estimate(self, capsys):
        rc = run(["attack", "--alphabet", "a b c d", "--ball-radius", "7",
                  "--rank", "12", "--subset-size", "12", "--estimate-only"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ball = 1098056" in out

    def test_lcg_check(self, capsys):
        assert run(["lcg-check", "--modulus-exponent", "128",
                    "--beta", "5", "--gamma", "3"]) == 0
        assert capsys.readouterr().out.strip() == "max_period = true"
        assert run(["lcg-check", "--modulus-exponent", "3",
                    "--beta", "3", "--gamma", "3"]) == 0
        assert capsys.readouterr().out.strip() == "max_period = false"


class TestErrors:
    def test_usage_error_exit_1(self):
        assert run(["no-such-command"]) == 1
        assert run(["otp-encrypt"]) == 1

    def test_missing_file_exit_1(self, tmp_path):
        assert run(["otp-encrypt", "--key", str(tmp_path / "nope.txt"),
                    "--in", str(tmp_path / "nope2.txt")]) == 1

    def test_domain_error_exit_2(self, tmp_path):
        src = tmp_path / "t.txt"
        src.write_text("begin tuple\nq q\nend tuple\n")
        assert run(["nielsen-reduce", "--alphabet", "a b",
                    "--in", str(src)]) == 2

    def _assert_clean_failure(self, argv, capsys, code):
        assert run(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(("error:", "usage error:"))
        assert "Traceback" not in err

    def test_aut_file_bad_index(self, tmp_path, capsys):
        aut = tmp_path / "f.aut"
        aut.write_text("T2 1 2\nT1 x\n")
        self._assert_clean_failure(["aut-apply", "--alphabet", "a b", "--aut",
                                    str(aut), "--word", "a"], capsys, 2)

    def test_aut_file_t3_singular(self, tmp_path, capsys):
        aut = tmp_path / "f.aut"
        aut.write_text("T3 1\n")
        self._assert_clean_failure(["aut-invert", "--alphabet", "a b", "--aut",
                                    str(aut)], capsys, 2)

    def test_key_file_bad_lcg_value(self, tmp_path, capsys):
        fx = copy_fixture(tmp_path, "otp_demo")
        key = fx / "key.txt"
        key.write_text(key.read_text().replace("m = 128", "m = sixty"))
        self._assert_clean_failure(["otp-encrypt", "--key", str(key), "--in",
                                    str(fx / "message.txt")], capsys, 2)

    def test_duplicate_generator_names(self, tmp_path, capsys):
        self._assert_clean_failure(["aut-apply", "--alphabet", "a a", "--aut",
                                    str(FIXTURES / "pubkey_demo" / "f.aut"),
                                    "--word", "a"], capsys, 2)
        fx = copy_fixture(tmp_path, "otp_demo")
        key = fx / "key.txt"
        key.write_text(key.read_text().replace("alphabet = a b c d",
                                               "alphabet = a b c a"))
        self._assert_clean_failure(["otp-decrypt", "--key", str(key), "--in",
                                    str(fx / "ciphertext.txt")], capsys, 2)

    def test_params_without_alphabet_matrix(self, tmp_path, capsys):
        fx = copy_fixture(tmp_path, "pubkey_demo")
        params = fx / "params.txt"
        params.write_text("a = x1 x2\naut_file = f.aut\n")
        (tmp_path / "c.txt").write_text("x1\n")
        (tmp_path / "m.txt").write_text("x2\n")
        self._assert_clean_failure(
            ["pubkey-encrypt", "--params", str(params), "--public",
             str(tmp_path / "c.txt"), "--message", str(tmp_path / "m.txt"),
             "--t", "2", "--matrix"], capsys, 2)

    def test_word_letter_cap(self, capsys):
        started = time.perf_counter()
        assert run(["aut-apply", "--alphabet", "a b c", "--aut",
                    str(FIXTURES / "pubkey_demo" / "f.aut"),
                    "--word", "a^999999999"]) == 2
        assert time.perf_counter() - started < 5
        err = capsys.readouterr().err
        assert err.startswith("error:") and "letters" in err
        assert "Traceback" not in err

    def test_unreadable_input_exit_1(self, tmp_path, capsys):
        self._assert_clean_failure(["otp-encrypt", "--key", str(tmp_path),
                                    "--in", str(tmp_path)], capsys, 1)
        binary = tmp_path / "key.bin"
        binary.write_bytes(b"\xff\xfe\x00bad")
        self._assert_clean_failure(["otp-encrypt", "--key", str(binary),
                                    "--in", str(binary)], capsys, 1)
