"""Fast self-check of the benchmark: each workload at a tiny size.

    python3 -m pytest -q bench/test_bench.py

A tiny run keeps only the first command of each CLI subcommand of the
corpus and makes one pass (one untraced and one traced pass with tracing).
"""

from __future__ import annotations

import json
import signal

import pytest

import layertrace
import run as bench
from corpus import WORKLOADS, build_corpus

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def alarm_handler():
    previous = signal.signal(signal.SIGALRM, bench._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def test_declared_metrics_and_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layertrace.PER_LAYER


def check_printed(outcome, spec_key):
    declared = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    printed = {name: m["unit"] for name, m in outcome.result["metrics"].items()}
    assert printed == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in outcome.lines), name
    assert outcome.result["attempted"] >= 1
    assert outcome.result["failed"] == 0, outcome.lines
    assert outcome.result["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_untraced_run(workload):
    outcome = bench.run_benchmark(workload, 1, 0, trace=False, tiny=True)
    check_printed(outcome, "end_to_end")
    assert all(v["value"] > 0 for v in outcome.result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run(workload):
    first = bench.run_benchmark(workload, 1, 0, trace=True, tiny=True)
    check_printed(first, "per_layer")
    # per command, the self times of its spans and cli.self_ms add up to its root span
    assert first.balances
    for self_sum, duration in first.balances:
        assert self_sum == duration
    second = bench.run_benchmark(workload, 1, 0, trace=True, tiny=True)
    for name in layertrace.COUNT_METRICS:
        assert first.result["metrics"][name] == second.result["metrics"][name], name
    assert first.inputs_sha256 == second.inputs_sha256


def test_realized_median_builds_value_matrix_four_times(tmp_path):
    # the CLI target lookup, phi_type, compute_N and the definition each build it
    corpus = build_corpus("stability-search", 1, tmp_path)
    corpus.commands = [cmd for cmd in corpus.commands if cmd.label == "median-hg/2"][:1]
    results, metrics, _, _ = bench.measure_traced(bench.import_contlogic(), corpus, 0)
    assert results.verify(bench.load_pinned("stability-search")["digests"])[0] == 0
    assert metrics["structures.value_matrix.calls"] == 4
    assert metrics["structures.value_matrix.rebuild_ratio"] == 0.75
    assert metrics["stability.compute_N.calls"] == 1
    assert metrics["stability.definition_abort_ratio"] == 0


def test_seed_fixes_inputs(tmp_path):
    a = build_corpus("synth-topometric", 3, tmp_path / "a").inputs_sha256()
    b = build_corpus("synth-topometric", 3, tmp_path / "b").inputs_sha256()
    c = build_corpus("synth-topometric", 4, tmp_path / "c").inputs_sha256()
    assert a == b != c


def test_missing_program_source_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(bench, "SRC", bench.ROOT / "no-such-src")
    assert bench.main(["--workload", "synth-topometric", "--seed", "1",
                       "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


def test_every_seed_is_checked_against_pinned_digests(tmp_path):
    # --seed folds into the pinned corpus seeds, and a command without a digest fails
    corpus = build_corpus("synth-topometric", 21 % bench.corpora.PINNED_SEEDS, tmp_path)
    assert corpus.inputs_sha256() == bench.load_pinned("synth-topometric")["inputs_sha256"]["1"]
    cmd = corpus.commands[-1]
    code, out, err = bench.invoke(bench.import_contlogic(), cmd.argv)
    pinned = bench.load_pinned("synth-topometric")["digests"]
    assert bench.verify_output(corpus, cmd, code, out, err, pinned) is None
    assert "no pinned digest" in bench.verify_output(corpus, cmd, code, out, err, {})


def test_report_without_checked_key_fails():
    assert bench.corpora.at_most("max_error", 1)(0, {}) == "no max_error in the report"
    assert bench.corpora.stages_decrease(0, {}) == "no stages in the report"
    assert bench.corpora.distinct_classes(4)(0, {}) == "no classes of B in the report"


def test_host_speed_scales_to_the_reference_time():
    # commands timed while the reference loop took twice REFERENCE_MS count half
    speed = bench.HostSpeed()
    speed.at = [i * 10**8 for i in range(20)]
    speed.ns = [int(2 * bench.REFERENCE_MS * 1e6)] * 20
    assert speed.scale(5 * 10**8) == 0.5
    assert speed.scale(10**10) == 0.5
