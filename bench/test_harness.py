"""Tests of the benchmark harness itself, at smoke size.

    python3 -m pytest -q bench

The smoke runs use ``--fixed`` (only the digest prefix of each workload) in
fresh interpreters, as the benchmark does.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import tracing
import workloads

HERE = Path(__file__).resolve().parent
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
_LINE = re.compile(r"^\s+(\S+) = (\S+) (\S+)$")


def _run(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for ln in lines[:-1]:
        m = _LINE.match(ln)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
    digest = next(ln.split("=")[1].split()[0] for ln in lines if "digest sha256" in ln)
    return printed, digest, json.loads(lines[-1])


def test_self_times_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child g [2, 3];
    # a second root-level a [11, 12] has no children
    names = ["root", "a", "b", "g"]
    span_name = [0, 1, 3, 2, 1]
    start = [0.0, 1.0, 2.0, 5.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    parent = [-1, 0, 1, 0, -1]
    st = tracing.self_times(names, span_name, start, end, parent)
    assert st["root"] == (1, 10.0, 3.0)
    assert st["a"] == (2, 4.0, 3.0)
    assert st["g"] == (1, 1.0, 1.0)
    assert st["b"] == (1, 4.0, 4.0)


def test_tracer_records_only_inside_ops():
    tr = tracing.Tracer()
    leaf = tr.wrap("leaf", lambda x: x + 1)
    outer = tr.wrap("outer", lambda x: leaf(leaf(x)))
    assert outer(0) == 2                       # outside an op: not recorded
    assert len(tr) == 0
    tr.op = 7
    with tr.span("bench.op"):
        assert outer(0) == 2
    assert [tr.names[i] for i in tr.span_name] == ["bench.op", "outer", "leaf", "leaf"]
    assert list(tr.span_parent) == [-1, 0, 1, 1]
    assert set(tr.span_op) == {7}
    st = tracing.self_times(tr.names, tr.span_name, tr.span_start, tr.span_end,
                            tr.span_parent)
    _, total, own = st["outer"]
    assert 0 <= own <= total


def test_prg_draw_count_inverts_splitmix_steps():
    state = 12345
    after = state
    for _ in range(37):
        after = (after + tracing._GOLDEN) & tracing._MASK64
    assert tracing._prg_draws(state, after) == 37


def test_benchmark_json_matches_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.per_layer_names()
    assert set(LAYER_MAP["workloads"]) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_prints_every_metric_and_repeats_digest(workload):
    printed, digest, result = _run("--workload", workload, "--seed", "3",
                                   "--fixed", "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.WORKLOADS[workload].digest_ops
    assert {k: m["unit"] for k, m in result["metrics"].items()} == bench.END_TO_END
    expected = (LAYER_MAP["workloads"][workload]["metrics"]
                + LAYER_MAP["every_workload"] + list(bench.END_TO_END))
    for name in expected:
        assert name in printed, f"{name} not printed"
        assert printed[name][1], f"{name} printed without a unit"
    assert printed["failed_ratio"][0] == 0
    _, digest2, _ = _run("--workload", workload, "--seed", "3",
                         "--fixed", "--trace", "0")
    assert digest2 == digest


def test_traced_smoke_prints_per_layer_metrics():
    printed, _, result = _run("--workload", "subset-attack", "--seed", "3",
                              "--trace", "1")
    assert result["correct"]
    units = bench.per_layer_names()
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for name in units:
        assert name in printed
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["cryptanalysis.subset_attack.calls"] == workloads.SubsetAttack.digest_ops
    assert m["cryptanalysis.subset_attack.subsets_examined"] == \
        workloads.SubsetAttack.DIGEST_ROUNDS * workloads.SubsetAttack.PLANTS \
        * (1326 + 560 + 630)
    assert m["matrices.mat_mul.calls"] == 0     # predicted: matrices never run
    assert m["keystream.derive_automorphism.calls"] == 0
    assert 0 < m["cryptanalysis.full_rank_ratio"] <= 1
    assert m["nielsen.nielsen_reduce.self_ms"] > 0
