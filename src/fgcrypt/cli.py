"""Command-line surface; every subcommand is a thin adapter over the library.

Exit codes: 0 success, 1 usage error, 2 domain error.  All randomness flows
through an explicit --seed, so identical invocations give identical bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from . import automorphisms as am
from . import cryptanalysis as ca
from . import matrices as mx
from . import nielsen as ni
from . import otp
from . import pubkey as pk
from .errors import FgError
from .keystream import AutFamily, LcgParams, Prg, has_max_period, keystream
from .words import (Alphabet, _parse_int, format_word, parse_kv_lines,
                    parse_word)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise UsageError(message)


def _alphabet(text: str) -> Alphabet:
    return Alphabet(tuple(text.split()))


def _seed(text: str) -> int:
    seed = _parse_int(text, 16)
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed {text!r} is not in 0..2^64-1")
    return seed


def _derived_seed(seed: int, label: bytes) -> int:
    """64 bits of SHA-256 over ``label`` and ``seed``; a seed published
    under one label does not give away the seed under another."""
    digest = hashlib.sha256(label + seed.to_bytes(8, "big")).digest()
    return int.from_bytes(digest[:8], "big")


def _read(path: str) -> str:
    return Path(path).read_text()


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(path).write_text(text if text.endswith("\n") else text + "\n")


def _load_key(args):
    """The key file's parameters and key, and the --aut overrides or None."""
    params, key = otp.parse_key_file(_read(args.key))
    auts = [am.parse_automorphism(_read(p), params.alphabet) for p in args.aut]
    return params, key, auts or None


def _rep_for(alphabet: Alphabet, preset: str) -> mx.RepSpec:
    if preset == "default":
        return mx.make_representation(alphabet)
    if preset == "rank4-demo":
        return mx.demo_representation(alphabet)
    raise UsageError(f"unknown representation preset {preset!r}")


def build_parser() -> _Parser:
    p = _Parser(prog="fgcrypt", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def verb(name, handler, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(handler=handler)
        return sp

    sp = verb("otp-keygen", _cmd_otp_keygen, help="generate a private key file")
    sp.add_argument("--alphabet", required=True)
    sp.add_argument("--plaintext-alphabet", required=True)
    sp.add_argument("--seed", type=_seed, required=True, help="hex64")
    sp.add_argument("--modulus-exponent", type=_parse_int, default=128)
    sp.add_argument("--beta", type=_parse_int, default=5)
    sp.add_argument("--gamma", type=_parse_int, default=3)
    sp.add_argument("--out", default=None)

    for name, handler in (("otp-encrypt", _cmd_otp_encrypt),
                          ("otp-decrypt", _cmd_otp_decrypt)):
        sp = verb(name, handler)
        sp.add_argument("--key", required=True)
        sp.add_argument("--in", dest="infile", required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--aut", action="append", default=[],
                        help="override automorphism file, one per position")

    sp = verb("otp-table", _cmd_otp_table, help="emit the N x z cipher table")
    sp.add_argument("--key", required=True)
    sp.add_argument("--positions", type=_parse_int, required=True)
    sp.add_argument("--aut", action="append", default=[])
    sp.add_argument("--out", default=None)

    sp = verb("pubkey-keygen", _cmd_pubkey_keygen, help="publish c = f^n(a)")
    sp.add_argument("--params", required=True)
    sp.add_argument("--n", type=_parse_int, required=True)
    sp.add_argument("--out", default=None)

    sp = verb("pubkey-encrypt", _cmd_pubkey_encrypt)
    sp.add_argument("--params", required=True)
    sp.add_argument("--public", required=True, help="file holding c")
    sp.add_argument("--message", required=True)
    sp.add_argument("--t", type=_parse_int, required=True)
    sp.add_argument("--matrix", action="store_true")
    sp.add_argument("--rep-preset", default="default")
    sp.add_argument("--out", default=None)

    sp = verb("pubkey-decrypt", _cmd_pubkey_decrypt)
    sp.add_argument("--params", required=True)
    sp.add_argument("--n", type=_parse_int, required=True)
    sp.add_argument("--pair", required=True)
    sp.add_argument("--matrix", action="store_true")
    sp.add_argument("--rep-preset", default="default")
    sp.add_argument("--max-len", type=_parse_int, default=32)
    sp.add_argument("--out", default=None)

    sp = verb("nielsen-reduce", _cmd_nielsen_reduce)
    sp.add_argument("--alphabet", required=True)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", default=None)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--moves", default=None, help="write the move list here")
    mode.add_argument("--canonical", action="store_true",
                      help="emit the canonical minimal basis instead")

    sp = verb("aut-apply", _cmd_aut_apply)
    sp.add_argument("--alphabet", required=True)
    sp.add_argument("--aut", required=True)
    sp.add_argument("--word", required=True)
    sp.add_argument("--out", default=None)

    sp = verb("aut-invert", _cmd_aut_invert)
    sp.add_argument("--alphabet", required=True)
    sp.add_argument("--aut", required=True)
    sp.add_argument("--out", default=None)

    sp = verb("rep-eval", _cmd_rep_eval)
    sp.add_argument("--alphabet", required=True)
    sp.add_argument("--preset", default="default")
    sp.add_argument("--word", required=True)
    sp.add_argument("--out", default=None)

    sp = verb("rep-decode", _cmd_rep_decode)
    sp.add_argument("--alphabet", required=True)
    sp.add_argument("--preset", default="default")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--max-len", type=_parse_int, default=16)
    sp.add_argument("--out", default=None)

    sp = verb("attack", _cmd_attack)
    sp.add_argument("--alphabet", required=True)
    sp.add_argument("--ball-radius", type=_parse_int, required=True)
    sp.add_argument("--rank", type=_parse_int, required=True)
    sp.add_argument("--subset-size", type=_parse_int, required=True)
    sp.add_argument("--max-subsets", type=_parse_int, default=None)
    sp.add_argument("--planted", default=None, help="tuple file with the true key")
    sp.add_argument("--estimate-only", action="store_true")
    sp.add_argument("--out", default=None)

    sp = verb("lcg-check", _cmd_lcg_check)
    sp.add_argument("--modulus-exponent", type=_parse_int, required=True)
    sp.add_argument("--beta", type=_parse_int, required=True)
    sp.add_argument("--gamma", type=_parse_int, required=True)

    return p


def _cmd_otp_keygen(args) -> None:
    alphabet = _alphabet(args.alphabet)
    lcg = LcgParams(args.modulus_exponent, args.beta, args.gamma)
    fam = AutFamily(_derived_seed(args.seed, b"otp family"), alphabet, lcg.m)
    params = otp.CipherPublicParams(
        alphabet, tuple(args.plaintext_alphabet.split()), fam, lcg)
    key = otp.keygen(params, Prg(_derived_seed(args.seed, b"otp key")))
    _write(args.out, otp.write_key_file(params, key))


def _cmd_otp_encrypt(args) -> None:
    params, key, auts = _load_key(args)
    message = _read(args.infile).rstrip("\n")
    ct = otp.encrypt(params, key, message, automorphisms=auts)
    _write(args.out, otp.format_ciphertext(ct))


def _cmd_otp_decrypt(args) -> None:
    params, key, auts = _load_key(args)
    ct = otp.parse_ciphertext(_read(args.infile), params.alphabet)
    symbols = otp.decrypt(params, key, ct, automorphisms=auts)
    _write(args.out, "".join(symbols))


def _cmd_otp_table(args) -> None:
    params, key, auts = _load_key(args)
    indices = keystream(params.lcg, key.alpha, args.positions)
    table = otp.build_cipher_table(params, key, indices, automorphisms=auts)
    lines = [f"columns = {' '.join(str(x) for x in indices)}"]
    for sym, row in zip(params.plaintext_alphabet, table):
        lines.append(f"{sym}: " + otp.UNIT_SEPARATOR.join(format_word(w) for w in row))
    _write(args.out, "\n".join(lines))


def _load_pubkey_params(args) -> pk.PubkeyParams:
    params_path = Path(args.params)
    text = params_path.read_text()
    # the representation needs the alphabet before the params are assembled
    kv = parse_kv_lines(text, ("alphabet", "aut_file"))
    aut_text = (params_path.parent / kv["aut_file"]).read_text()
    rep = None
    if getattr(args, "matrix", False):
        rep = _rep_for(_alphabet(kv["alphabet"]), args.rep_preset)
    return pk.parse_params_file(text, aut_text, rep=rep)


def _cmd_pubkey_keygen(args) -> None:
    params = _load_pubkey_params(args)
    _write(args.out, format_word(pk.alice_keygen(params, args.n)))


def _cmd_pubkey_encrypt(args) -> None:
    params = _load_pubkey_params(args)
    c = parse_word(_read(args.public).strip(), params.alphabet)
    m = parse_word(_read(args.message).strip(), params.alphabet)
    if args.matrix:
        pair = pk.bob_encrypt_matrix(params, c, m, args.t)
    else:
        pair = pk.bob_encrypt(params, c, m, args.t)
    _write(args.out, pk.write_pair_file(pair))


def _cmd_pubkey_decrypt(args) -> None:
    params = _load_pubkey_params(args)
    pair = pk.parse_pair_file(_read(args.pair), params.alphabet,
                              matrix=args.matrix)
    if args.matrix:
        m = pk.alice_decrypt_matrix(params, args.n, pair,
                                    decode_bound=args.max_len)
    else:
        m = pk.alice_decrypt(params, args.n, pair)
    _write(args.out, format_word(m))


def _cmd_nielsen_reduce(args) -> None:
    alphabet = _alphabet(args.alphabet)
    t = ni.parse_tuple(_read(args.infile), alphabet)
    if args.canonical:
        _write(args.out, ni.format_tuple(ni.canonical_minimal_basis(t)))
        return
    result, moves = ni.nielsen_reduce(t)
    _write(args.out, ni.format_tuple(result))
    if args.moves is not None:
        _write(args.moves, ni.format_moves(moves))


def _cmd_aut_apply(args) -> None:
    alphabet = _alphabet(args.alphabet)
    f = am.parse_automorphism(_read(args.aut), alphabet)
    w = parse_word(args.word, alphabet)
    _write(args.out, format_word(f.apply(w)))


def _cmd_aut_invert(args) -> None:
    alphabet = _alphabet(args.alphabet)
    f = am.parse_automorphism(_read(args.aut), alphabet)
    _write(args.out, am.format_automorphism(f.inverse()))


def _cmd_rep_eval(args) -> None:
    alphabet = _alphabet(args.alphabet)
    spec = _rep_for(alphabet, args.preset)
    w = parse_word(args.word, alphabet)
    _write(args.out, mx.format_matrix(mx.word_to_matrix(spec, w)))


def _cmd_rep_decode(args) -> None:
    alphabet = _alphabet(args.alphabet)
    spec = _rep_for(alphabet, args.preset)
    M = mx.parse_matrix(args.matrix)
    w = mx.matrix_to_word(spec, M, args.max_len)
    _write(args.out, format_word(w) if w is not None else "absent")


def _cmd_attack(args) -> None:
    alphabet = _alphabet(args.alphabet)
    cfg = ca.AttackConfig(args.ball_radius, args.rank, args.subset_size,
                          args.max_subsets)
    if args.estimate_only:
        est = ca.attack_cost_estimate(cfg, alphabet.rank)
        _write(args.out, f"ball = {est.ball}\nsubsets = {est.subsets}\n"
                         f"per_subset_cost = {est.per_subset_cost}")
        return
    planted = None
    if args.planted:
        planted = ni.parse_tuple(_read(args.planted), alphabet)
    report = ca.subset_attack(alphabet, cfg, planted)
    _write(args.out, ca.format_report(report))


def _cmd_lcg_check(args) -> None:
    p = LcgParams(args.modulus_exponent, args.beta, args.gamma)
    sys.stdout.write(f"max_period = {str(has_max_period(p)).lower()}\n")


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:  # missing or unreadable file
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
