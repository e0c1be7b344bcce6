import hashlib
import shutil
import time
from pathlib import Path

import pytest

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

    def test_keygen_seed_outside_64_bits(self, tmp_path, capsys):
        # 10000000000000005 used to be masked to 5
        args = ["otp-keygen", "--alphabet", "a b", "--plaintext-alphabet",
                "X Y", "--modulus-exponent", "16", "--seed"]
        for bad in ("10000000000000005", "-1"):
            assert run(args + [bad]) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and "Traceback" not in err
        assert run(args + ["ffffffffffffffff"]) == 0

    def test_key_file_seed_outside_64_bits(self, tmp_path, capsys):
        fx = copy_fixture(tmp_path, "otp_demo")
        key = fx / "key.txt"
        key.write_text(key.read_text().replace("0000000000000000",
                                               "1dde04cfe366bd8cb"))
        assert run(["otp-encrypt", "--key", str(key), "--in",
                    str(fx / "message.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_alphabet_rank_limit(self, capsys):
        names = " ".join(f"x{i}" for i in range(1, 130))
        assert run(["rep-eval", "--alphabet", names.rsplit(" ", 1)[0],
                    "--word", "x128"]) == 0
        capsys.readouterr()
        assert run(["rep-eval", "--alphabet", names, "--word", "x1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "1 to 128 generators" in err

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

    def test_table_with_too_few_auts(self, tmp_path, capsys):
        fx = copy_fixture(tmp_path, "otp_demo")
        rc = run(["otp-table", "--key", str(fx / "key.txt"), "--positions",
                  "4", "--aut", str(fx / "aut1.txt")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: need 4 override automorphisms")


class TestPubkeyCommands:
    def test_fast_growing_f_hits_size_cap(self, tmp_path, capsys):
        # f = (a -> ab, b -> a)^2 roughly multiplies image lengths by 2.6
        # per power, so f^32 passes the 2^24-letter cap in compose
        fibonacci = "T2 1 2\nT1 1\nT2 2 1\nT1 1\nT1 2\n"
        (tmp_path / "f.aut").write_text(fibonacci * 2)
        params = tmp_path / "params.txt"
        params.write_text("alphabet = a b\na = a b^2\naut_file = f.aut\n")
        assert run(["pubkey-keygen", "--params", str(params), "--n", "32"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: composite images total")
        assert "Traceback" not in captured.err

    def test_decrypt_image_past_the_cap(self, tmp_path, capsys):
        # c2 = x1^3000 is far inside the text cap, but f^24(c2) would hold
        # 3000 copies of f^24(x1); apply refuses it once it passes 2^24
        fx = copy_fixture(tmp_path, "pubkey_demo")
        pair = tmp_path / "pair.txt"
        pair.write_text("c1 = x1\nc2 = x1^3000\n")
        started = time.perf_counter()
        assert run(["pubkey-decrypt", "--params", str(fx / "params.txt"),
                    "--n", "24", "--pair", str(pair)]) == 2
        assert time.perf_counter() - started < 10
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: image has ")
        assert "Traceback" not in captured.err

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

    def test_matrix_variant_wrong_exponent(self, tmp_path, capsys):
        # a wrong n at the default --max-len 32 is a decryption failure
        fx = copy_fixture(tmp_path, "pubkey_demo")
        pub = tmp_path / "c.txt"
        run(["pubkey-keygen", "--params", str(fx / "params.txt"),
             "--n", "2", "--out", str(pub)])
        msg = tmp_path / "m.txt"
        msg.write_text("x1 x2^-1\n")
        pair = tmp_path / "pair.txt"
        run(["pubkey-encrypt", "--params", str(fx / "params.txt"),
             "--public", str(pub), "--message", str(msg), "--t", "2",
             "--matrix", "--out", str(pair)])
        capsys.readouterr()
        assert run(["pubkey-decrypt", "--params", str(fx / "params.txt"),
                    "--n", "3", "--pair", str(pair), "--matrix"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: no word of length <= 32 matches the recovered matrix"]

    # n = t = 16 is the largest equal pair whose words fit the 2^24-letter
    # cap: f^32(a) has 9.7M letters
    @pytest.mark.parametrize("n", ["10", "16"])
    def test_matrix_variant_past_the_entry_cap(self, tmp_path, capsys, n):
        fx = copy_fixture(tmp_path, "pubkey_demo")
        pub = tmp_path / "c.txt"
        assert run(["pubkey-keygen", "--params", str(fx / "params.txt"),
                    "--n", n, "--out", str(pub)]) == 0
        msg = tmp_path / "m.txt"
        msg.write_text("x1 x2^-1\n")
        pair = tmp_path / "pair.txt"
        rc = run(["pubkey-encrypt", "--params", str(fx / "params.txt"),
                  "--public", str(pub), "--message", str(msg), "--t", n,
                  "--matrix", "--out", str(pair)])
        _assert_written_or_refused(rc, capsys.readouterr())
        if rc == 0:
            assert run(["pubkey-decrypt", "--params", str(fx / "params.txt"),
                        "--n", n, "--pair", str(pair), "--matrix"]) == 0
            assert capsys.readouterr().out.strip() == "x1 x2^-1"

    # n + t = 16 is the first sum past the entry cap on the demo.  The key
    # is f^16(a) for n = 32 too (f^32(a) has 9.7M letters, a 45 MB text):
    # there the values of f^32's images already pass the cap
    @pytest.mark.parametrize("n", ["16", "32"])
    def test_matrix_variant_refused_past_the_frontier(self, tmp_path, capsys,
                                                      n):
        fx = copy_fixture(tmp_path, "pubkey_demo")
        params = str(fx / "params.txt")
        pub = tmp_path / "c.txt"
        assert run(["pubkey-keygen", "--params", params, "--n", "16",
                    "--out", str(pub)]) == 0
        msg = tmp_path / "m.txt"
        msg.write_text("x1 x2^-1\n")
        pair = tmp_path / "pair.txt"
        pair.write_text(f"c1 = [[1, 0],[0, 1]]\nc2 = {pub.read_text()}")
        started = time.perf_counter()
        for argv in (["pubkey-encrypt", "--public", str(pub), "--message",
                      str(msg), "--t", n, "--out", str(tmp_path / "out")],
                     ["pubkey-decrypt", "--pair", str(pair), "--n", n]):
            assert run([*argv, "--params", params, "--matrix"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: a product has a ")
            assert "Traceback" not in captured.err
        assert time.perf_counter() - started < 10
        assert not (tmp_path / "out").exists()


def _assert_written_or_refused(rc, captured):
    """Exit 0, or exit 2 with an error line and no output: never a
    traceback."""
    assert "Traceback" not in captured.err
    if rc != 0:
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")


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

    def test_rep_eval_past_the_entry_cap(self, capsys):
        word = "a^4000 b"
        rc = run(["rep-eval", "--alphabet", "a b c d", "--preset",
                  "rank4-demo", "--word", word])
        captured = capsys.readouterr()
        _assert_written_or_refused(rc, captured)
        if rc == 0:
            assert run(["rep-decode", "--alphabet", "a b c d", "--preset",
                        "rank4-demo", "--matrix", captured.out.strip(),
                        "--max-len", "4001"]) == 0
            assert capsys.readouterr().out.strip() == word

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

    def test_attack_cut_after_a_skipped_subset(self, tmp_path, capsys):
        # subset 4000 of this run holds an element whose inverse comes
        # earlier in the ball, so it is counted but not folded; the digest
        # was taken from the attack that folded every subset
        planted = tmp_path / "planted.txt"
        planted.write_text("begin tuple\na b^-1\nb a^2\nend tuple\n")
        rc = run(["attack", "--alphabet", "a b", "--ball-radius", "3",
                  "--rank", "2", "--subset-size", "3", "--max-subsets", "4000",
                  "--planted", str(planted)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[:4] == [
            "subsets_examined = 4000", "candidates = 64", "hit_index = 622",
            "complete = false"]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c36ed7e653f1b01162a0366c2d39ee2722d8f11cda35f581458d0caa70624074")

    def test_attack_large_subset_is_bounded_by_max_subsets(self, capsys):
        # one 1100-word subset is one fold, not a Nielsen reduction that is
        # quadratic in the subset size
        started = time.perf_counter()
        rc = run(["attack", "--alphabet", "a b", "--ball-radius", "6",
                  "--rank", "2", "--subset-size", "1100", "--max-subsets", "1"])
        assert rc == 0
        assert time.perf_counter() - started < 2
        assert capsys.readouterr().out.splitlines() == [
            "subsets_examined = 1", "candidates = 1", "hit_index = none",
            "complete = false", "begin tuple", "a", "b", "end tuple"]

    def test_attack_max_subsets_below_one(self, capsys):
        for bad in ("0", "-1"):
            assert run(["attack", "--alphabet", "a b", "--ball-radius", "2",
                        "--rank", "2", "--subset-size", "2",
                        "--max-subsets", bad]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err

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

    def test_unknown_preset_exit_1(self, capsys):
        assert run(["rep-eval", "--alphabet", "a b", "--preset", "nope",
                    "--word", "a"]) == 1
        assert "unknown representation preset 'nope'" in capsys.readouterr().err

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
