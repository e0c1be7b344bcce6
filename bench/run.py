#!/usr/bin/env python3
"""fgcrypt benchmark: three seeded closed-loop workloads, one caller each.

    python3 bench/run.py --workload otp-session --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Workloads: ``otp-session``, ``pubkey-exchange``, ``subset-attack`` (or
``all``, which runs each in its own fresh interpreter).  Every run checks
every output, prints a report of every end-to-end metric with its unit, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics
named in BENCHMARK.json: each workload's work rate, headline-operation
latency and set-up time (scaled to a nominal machine speed by a reference
loop timed between rounds; the raw values are printed too) and peak RSS.  ``--trace 1`` runs the workload's fixed digest
prefix twice: untraced in a fresh interpreter, then with every public
function of the package wrapped in a span recorder (bench/tracing.py); it
reports per-layer calls, self times and work counts, plus the tracing
overhead (traced minus untraced) of each end-to-end metric.

Set-up time (import, parameter construction, warm-up) is measured in fresh
interpreters, several times per run, and reported as the median.  Detailed
results (Python version, nproc, platform, reference-loop timings, sample
counts, digest, failures) are written to bench/out/.  The program is imported from ``src/`` of the
checkout this file sits in; without it the run exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import workloads  # noqa: E402  (bench/ is the script directory)

SETUP_SAMPLES = 7
SETUP_EVERY = 2
REFERENCE_LOOP = 100_000
SETUP_SEED = 0
CHILD_TIMEOUT_S = 170

END_TO_END = {            # generic projection gated by BENCHMARK.json
    "work_per_s_norm": "1/s",
    "op_ms_norm": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# The machine's speed swings by 20-40% over seconds to minutes on small
# shared VMs, far more than the bounds a gate needs.  The gated rate,
# latency and set-up time are therefore scaled by the run's median
# reference-loop time over this nominal value (a quiet 2-vCPU VM); the raw
# values are reported too.
REFERENCE_NOMINAL_MS = 8.0

_CALLS_SELF = (
    "keystream.derive_automorphism", "keystream.keystream",
    "automorphisms.random_whitehead_automorphism", "automorphisms.from_factors",
    "automorphisms.FactoredAutomorphism.apply",
    "automorphisms.FactoredAutomorphism.inverse",
    "automorphisms.FactoredAutomorphism.power",
    "automorphisms.FactoredAutomorphism.compose",
    "nielsen.canonical_minimal_basis", "nielsen.nielsen_reduce",
    "nielsen.is_nielsen_reduced", "nielsen.is_nielsen_reduced_segments",
    "words.concat", "words.Word.inverse", "words.compare_words",
    "words.parse_word", "words.format_word",
    "matrices.word_to_matrix", "matrices.mat_mul", "matrices.mat_inv",
    "matrices.matrix_to_word",
    "otp.keygen", "otp.encrypt", "otp.decrypt", "otp.build_cipher_table",
    "otp.decrypt_with_table", "otp.format_ciphertext", "otp.parse_ciphertext",
    "otp.write_key_file", "otp.parse_key_file",
    "pubkey.alice_keygen", "pubkey.bob_encrypt", "pubkey.alice_decrypt",
    "pubkey.bob_encrypt_matrix", "pubkey.alice_decrypt_matrix",
    "pubkey.write_pair_file", "pubkey.parse_pair_file",
    "cryptanalysis.subset_attack", "cryptanalysis.format_report",
    "cryptanalysis.enumerate_ball",
)
_WORK_COUNTS = (
    "automorphisms.FactoredAutomorphism.apply.letters_in",
    "automorphisms.FactoredAutomorphism.apply.letters_out",
    "automorphisms.FactoredAutomorphism.inverse.factors",
    "automorphisms.FactoredAutomorphism.power.image_letters",
    "nielsen.nielsen_reduce.moves", "nielsen.nielsen_reduce.rank_drops",
    "words.concat.letters_cancelled",
    "matrices.word_to_matrix.letters_in", "matrices.word_to_matrix.result_bits",
    "cryptanalysis.subset_attack.subsets_examined",
    "cryptanalysis.subset_attack.candidates",
)
_RATIOS = (
    "keystream.prg_draws_per_derivation", "keystream.factors_per_derivation",
    "matrices.matrix_to_word.found_ratio", "cryptanalysis.full_rank_ratio",
)


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    out: dict[str, str] = {}
    for fn in _CALLS_SELF:
        out[f"{fn}.calls"] = "count"
        out[f"{fn}.self_ms"] = "ms"
    for name in _WORK_COUNTS:
        out[name] = "count"
    for name in _RATIOS:
        out[name] = "ratio"
    out["pubkey.rejections"] = "count"
    out["trace.spans"] = "count"
    for name, unit in END_TO_END.items():
        out[f"overhead.{name}"] = unit
    return out


def import_fgcrypt():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fgcrypt" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {src}/fgcrypt")
    sys.path.insert(0, str(src))
    import fgcrypt
    if Path(fgcrypt.__file__).resolve().parent != (src / "fgcrypt").resolve():
        raise SystemExit("bench: fgcrypt was imported from outside the checkout")
    return fgcrypt


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


def _child(args: list[str]) -> str:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: child {' '.join(args)} exited {proc.returncode}")
    return proc.stdout


def setup_probe(name: str, trace: bool) -> float:
    """Child side: import, (install tracing,) construct and warm up."""
    t0 = perf_counter()
    fg = import_fgcrypt()
    if trace:
        import tracing
        tracing.install(tracing.Tracer())
    workloads.WORKLOADS[name].setup(fg, SETUP_SEED)
    return perf_counter() - t0


def reference_ms() -> float:
    """Wall time of a fixed pure-Python loop: how fast the machine is at that
    moment, recorded next to the results so run-to-run swings can be read."""
    t0 = perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i % 7
    return (perf_counter() - t0) * 1000.0


class BetweenRounds:
    """Work done between rounds, while the workload waits: a reference-loop
    timing every round, and the set-up samples in fresh interpreters (one
    before the run, then one every SETUP_EVERY rounds, the rest at the end),
    so both spread over the run's stretch of machine noise."""

    def __init__(self, name: str, trace: bool):
        self.args = ["--setup-probe", "--workload", name, "--trace", str(int(trace))]
        self.setup_samples: list[float] = []
        self.reference: list[float] = [reference_ms()]
        self.rounds = 0
        self.probe()

    def probe(self) -> None:
        out = _child(self.args)
        self.setup_samples.append(json.loads(out.strip().splitlines()[-1])["setup_s"])

    def __call__(self) -> None:
        self.rounds += 1
        self.reference.append(reference_ms())
        if len(self.setup_samples) < SETUP_SAMPLES and self.rounds % SETUP_EVERY == 0:
            self.probe()

    def finish(self) -> list[float]:
        while len(self.setup_samples) < SETUP_SAMPLES:
            self.probe()
        return self.setup_samples


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 fixed: bool) -> dict:
    """One workload in this interpreter.  ``fixed`` runs only the digest
    prefix (the traced plan); otherwise the run lasts ``seconds``."""
    wl = workloads.WORKLOADS[name]
    between = BetweenRounds(name, traced)
    fg = import_fgcrypt()
    state = wl.setup(fg, SETUP_SEED)
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    rec = workloads.Recorder(tracer, on_round=between)
    t0 = perf_counter()
    wl.run(fg, state, seed, rec, None if fixed else t0 + seconds)
    elapsed = perf_counter() - t0
    setup_samples = between.finish()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    work_per_s, op_ms = wl.headline(rec)
    speed = statistics.median(between.reference) / REFERENCE_NOMINAL_MS
    result = {
        "workload": name, "seed": seed, "seconds": seconds,
        "mode": "traced" if traced else ("fixed" if fixed else "timed"),
        **environment(),
        "elapsed_s": elapsed, "attempted": rec.attempted, "failed": rec.failed,
        "failed_ratio": rec.failed / max(rec.attempted, 1),
        "failures": rec.failures, "correct": rec.failed == 0,
        "digest": rec.digest_hex, "digest_lines": rec.digest_lines,
        "samples": wl.sample_counts(rec),
        "setup_samples_s": setup_samples,
        "reference_loop_ms": between.reference,
        "end_to_end": {
            "work_per_s_norm": _metric(work_per_s * speed, "1/s"),
            "op_ms_norm": _metric(op_ms / speed, "ms"),
            "work_per_s": _metric(work_per_s, "1/s"),
            "op_ms": _metric(op_ms, "ms"),
            "setup_s": _metric(statistics.median(setup_samples) / speed, "s"),
            "setup_s_raw": _metric(statistics.median(setup_samples), "s"),
            "peak_rss_mib": _metric(peak_rss_mib, "MiB"),
        },
        "workload_metrics": {k: _metric(v, u) for k, (v, u) in wl.metrics(rec).items()},
    }
    if tracer is not None:
        result["tracer"] = tracer
        result["rejections"] = rec.totals["rejections"]
    return result


def layer_metrics(tracer, rejections: float) -> tuple[dict, dict]:
    """(per-layer metrics of BENCHMARK.json, self time of every span name)."""
    import tracing
    stats = tracing.self_times(tracer.names, tracer.span_name, tracer.span_start,
                               tracer.span_end, tracer.span_parent)
    counts = tracer.counts
    out = {}
    for fn in _CALLS_SELF:
        calls, _, own = stats.get(fn, (0, 0.0, 0.0))
        out[f"{fn}.calls"] = calls
        out[f"{fn}.self_ms"] = own * 1000.0
    for name in _WORK_COUNTS:
        out[name] = counts.get(name, 0)
    derivations = out["keystream.derive_automorphism.calls"]
    out["keystream.prg_draws_per_derivation"] = \
        counts.get("keystream.prg_draws", 0) / derivations if derivations else 0.0
    out["keystream.factors_per_derivation"] = \
        counts.get("keystream.factors", 0) / derivations if derivations else 0.0
    decodes = out["matrices.matrix_to_word.calls"]
    out["matrices.matrix_to_word.found_ratio"] = \
        counts.get("matrices.matrix_to_word.found", 0) / decodes if decodes else 0.0
    out["cryptanalysis.full_rank_ratio"] = _full_rank_ratio(tracer, out)
    out["pubkey.rejections"] = rejections
    out["trace.spans"] = len(tracer)
    every = {name: {"calls": c, "total_ms": t * 1000.0, "self_ms": s * 1000.0}
             for name, (c, t, s) in sorted(stats.items())}
    return out, every


def _full_rank_ratio(tracer, out) -> float:
    """Subsets that reduced to rank N over subsets examined: the canonical
    bases computed directly inside subset_attack, less the one per call
    for the planted key."""
    examined = out["cryptanalysis.subset_attack.subsets_examined"]
    if not examined:
        return 0.0
    names = tracer.names
    attack = names.index("cryptanalysis.subset_attack")
    canon = names.index("nielsen.canonical_minimal_basis")
    nested = sum(1 for i in range(len(tracer))
                 if tracer.span_name[i] == canon and tracer.span_parent[i] >= 0
                 and tracer.span_name[tracer.span_parent[i]] == attack)
    return (nested - out["cryptanalysis.subset_attack.calls"]) / examined


def report(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} mode={result['mode']} "
          f"python={result['python']} nproc={result['nproc']} "
          f"platform={result['platform']}")
    print(f"  elapsed_s = {result['elapsed_s']:.3f} s")
    for group in ("end_to_end", "workload_metrics"):
        for k, m in result[group].items():
            print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_ratio = {result['failed_ratio']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    print("  samples: " + " ".join(f"{k}={v}" for k, v in result["samples"].items()))
    print("  setup samples s: " + " ".join(f"{x:.4f}" for x in result["setup_samples_s"]))
    ref = result["reference_loop_ms"]
    print(f"  reference loop ms: median {statistics.median(ref):.2f} "
          f"min {min(ref):.2f} max {max(ref):.2f} ({len(ref)} between rounds)")
    print(f"  digest sha256 = {result['digest']} ({result['digest_lines']} lines)")
    for f in result["failures"]:
        print(f"  FAILED {f}")


def _write(result: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{result['workload']}-s{result['seed']}-{result['mode']}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return path


def main_untraced(args) -> dict:
    result = run_workload(args.workload, args.seed, args.seconds, False, args.fixed)
    _write(result)
    report(result)
    metrics = {k: _metric(result["end_to_end"][k]["value"], u)
               for k, u in END_TO_END.items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main_traced(args) -> dict:
    out = _child(["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", "0", "--fixed"])
    base = json.loads(out.strip().splitlines()[-1])
    traced = run_workload(args.workload, args.seed, args.seconds, True, True)
    tracer = traced.pop("tracer")
    layers, every = layer_metrics(tracer, traced.pop("rejections"))
    for k in END_TO_END:
        layers[f"overhead.{k}"] = (traced["end_to_end"][k]["value"]
                                   - base["metrics"][k]["value"])
    traced["per_layer"] = layers
    traced["self_time_by_span"] = every
    traced["untraced"] = base
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-s{args.seed}.tsv.gz"
    tracer.write(spans)
    _write(traced)
    report(traced)
    print("  per-layer:")
    units = per_layer_names()
    for k, unit in units.items():
        print(f"    {k} = {layers[k]:.6g} {unit}")
    print("  self time by span, top 15 (ms):")
    for name, st in sorted(every.items(), key=lambda kv: -kv[1]["self_ms"])[:15]:
        print(f"    {name}: {st['self_ms']:.1f} in {st['calls']} calls")
    print(f"  spans written to {spans.relative_to(ROOT)}")
    correct = traced["correct"] and base["correct"]
    return {"correct": correct, "attempted": traced["attempted"],
            "failed": traced["failed"],
            "metrics": {k: _metric(layers[k], u) for k, u in units.items()}}


def main_all(args) -> dict:
    """Each workload in its own fresh interpreter."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        out = _child(["--workload", name, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)])
        lines = out.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = m
    return combined


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fixed", action="store_true",
                    help="run only the fixed digest prefix (traced plan)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, bool(args.trace))}))
        return 0
    if args.workload == "all":
        final = main_all(args)
    elif args.trace:
        final = main_traced(args)
    else:
        final = main_untraced(args)
    sys.stdout.flush()
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
