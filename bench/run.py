#!/usr/bin/env python3
"""Benchmark for contlogic: seeded CLI corpora run through `contlogic.cli.run`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process, one client, closed loop: the
next command starts when the previous one returns, with stdout captured and
no threads.  A run builds the workload's corpus from the seed (see
`corpus.py`), then repeats whole passes over it until `--seconds` have
elapsed.  The corpus seed is `--seed` modulo `corpus.PINNED_SEEDS`, the
number of corpus seeds whose report digests `pin.py` wrote to `expected/`,
so every command of every run has a pinned digest.  Every report is checked
afterwards: exit code, the independent invariant of its command, and the
pinned digest; a command without one fails.  A command that hits the
per-command wall-clock cap counts as failed.

The machine a run shares changes speed, by up to 2x, in phases of a few
seconds, and every command slows alike.  So untraced runs time a fixed
reference loop between commands, at most every REFERENCE_EVERY_S, and scale
each command's wall time by REFERENCE_MS over the median reference time
within REFERENCE_WINDOW_S of it (set-up repeats by the reference runs around
them): times read as on a host where the reference loop takes REFERENCE_MS,
about its time on an idle 2-vCPU VM.  The reference loop is the benchmark's
own code, so a change to the program moves scaled times as it moves wall
times.

With `--trace 0` the last stdout line holds the end-to-end metrics.  With
`--trace 1` the run alternates untraced and traced passes and reports
per-layer self times and counts per corpus pass (see `layertrace.py`);
end-to-end metrics never come from a traced run.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"
sys.path.insert(0, str(HERE))

import corpus as corpora  # noqa: E402
import layertrace  # noqa: E402

CAP_SECONDS = 60
SETUP_REPEATS = 5
# p90 of the pooled samples; each corpus puts a block of alike commands there
TAIL_PERCENTILE = 90

REFERENCE_MS = 5.0
REFERENCE_EVERY_S = 0.2
REFERENCE_WINDOW_S = 0.5

END_TO_END = [
    ("commands_per_s", "1/s"),
    ("command_p50_ms", "ms"),
    ("command_tail_ms", "ms"),
    ("command_geomean_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class CapHit(BaseException):
    """Raised by SIGALRM when one command exceeds CAP_SECONDS."""


def _on_alarm(signum, frame):
    raise CapHit()


class BenchError(Exception):
    """The benchmark cannot run here (no program source, bad arguments)."""


# ---------------------------------------------------------------------------
# Set-up


def import_contlogic():
    """Fresh import of the program from this checkout's src/."""
    if not (SRC / "contlogic" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC / 'contlogic'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "contlogic" or n.startswith("contlogic.")]:
        del sys.modules[name]
    cli = importlib.import_module("contlogic.cli")
    importlib.import_module("contlogic.imaginaries")
    if Path(cli.__file__).resolve().parent != (SRC / "contlogic").resolve():
        raise BenchError(f"contlogic imported from {cli.__file__}, not from {SRC}")
    return cli


def warm_commands(corpus) -> list:
    """The first command of each CLI subcommand in the corpus."""
    first: dict = {}
    for cmd in corpus.commands:
        first.setdefault(cmd.argv[0], cmd)
    return list(first.values())


def set_up(workload: str, seed: int, work: Path):
    """Import, corpus generation and warm-up, repeated.

    Returns the last import and corpus and the median scaled time of a repeat.
    """
    times = []
    before = reference_loop()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter_ns()
        cli = import_contlogic()
        corpus = corpora.build_corpus(workload, seed, work)
        for cmd in warm_commands(corpus):
            invoke(cli, cmd.argv)
        ns = time.perf_counter_ns() - t0
        after = reference_loop()
        times.append(ns / 1e9 * REFERENCE_MS * 1e6 / ((before + after) / 2))
        before = after
    return cli, corpus, statistics.median(times)


# ---------------------------------------------------------------------------
# Host speed


def reference_loop() -> int:
    """Wall time in ns of a fixed Fraction sum, with garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        total = Fraction(0)
        for i in range(1, 2400):
            total += Fraction(i % 97, 1 + i % 13)
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference loop times taken between commands, and the scale they give."""

    def __init__(self):
        self.at: list[int] = []  # perf_counter_ns at the middle of each reference run
        self.ns: list[int] = []

    def probe_if_due(self):
        start = time.perf_counter_ns()
        if not self.at or start - self.at[-1] >= REFERENCE_EVERY_S * 1e9:
            ns = reference_loop()
            self.at.append(start + ns // 2)
            self.ns.append(ns)

    def scale(self, at: int) -> float:
        """REFERENCE_MS over the median reference time near `at` (at least the 3 nearest)."""
        window = REFERENCE_WINDOW_S * 1e9
        lo = bisect.bisect_left(self.at, at - window)
        hi = bisect.bisect_right(self.at, at + window)
        if hi - lo < 3:
            j = bisect.bisect_left(self.at, at)
            lo, hi = max(0, j - 2), min(len(self.at), j + 1)
        return REFERENCE_MS * 1e6 / statistics.median(self.ns[lo:hi])


# ---------------------------------------------------------------------------
# Running commands


def invoke(cli, argv):
    """Run one command line in-process; returns (exit code or None on cap hit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        signal.setitimer(signal.ITIMER_REAL, CAP_SECONDS)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CapHit:
        return None, out.getvalue(), f"cap of {CAP_SECONDS} s hit"
    except Exception:  # a traceback from the program is a failed command, not a crash
        return -1, out.getvalue(), traceback.format_exc(limit=-1)
    return code, out.getvalue(), err.getvalue()


class Results:
    """Timings and distinct outputs of the commands run in the measured passes."""

    def __init__(self, corpus):
        self.corpus = corpus
        self.samples: list[tuple[int, int, int]] = []  # (command index, ns, middle)
        self.outputs: list[dict] = [{} for _ in corpus.commands]  # output -> sample count

    def run_pass(self, cli, recorder=None, speed: HostSpeed | None = None) -> int:
        work = str(self.corpus.work)
        t0 = time.perf_counter_ns()
        for i, cmd in enumerate(self.corpus.commands):
            if speed:
                speed.probe_if_due()
            root = recorder.open_command() if recorder else None
            start = time.perf_counter_ns()
            code, out, err = invoke(cli, cmd.argv)
            ns = time.perf_counter_ns() - start
            if recorder:
                recorder.close_command(root, len(out.replace(work, "<work>").encode()))
            self.samples.append((i, ns, start + ns // 2))
            key = (code, out, err)
            self.outputs[i][key] = self.outputs[i].get(key, 0) + 1
        return time.perf_counter_ns() - t0

    def verify(self, pinned: dict):
        """Returns (failed samples, list of failure messages)."""
        failed = 0
        messages = []
        for cmd, outputs in zip(self.corpus.commands, self.outputs):
            errors = [verify_output(self.corpus, cmd, code, out, err, pinned)
                      for code, out, err in outputs]
            if len(outputs) > 1:
                errors = [e or "report differs between passes" for e in errors]
            for e, count in zip(errors, outputs.values()):
                if e:
                    failed += count
                    messages.append(f"{cmd.label}: {e}")
        return failed, messages


def command_key(corpus, cmd) -> str:
    """Digest of a command line and the contents of its input files."""
    h = hashlib.sha256(json.dumps(corpus.normalize(cmd.argv)).encode())
    prefix = str(corpus.work) + os.sep
    for arg in cmd.argv:
        name = arg[len(prefix):] if arg.startswith(prefix) else None
        if name in corpus.files:
            h.update(hashlib.sha256(corpus.files[name]).digest())
    return h.hexdigest()


def report_digest(corpus, code, payload) -> str:
    text = json.dumps([code, corpus.normalize(payload)], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def parse_report(out: str):
    return json.loads(out)["report"]


def verify_output(corpus, cmd, code, out, err, pinned: dict | None) -> str | None:
    """Why the output is wrong, or None; `pinned` None skips the digest (for pin.py)."""
    if code is None:
        return err
    if code != cmd.code:
        return f"exit code {code}, expected {cmd.code}: {err.strip()[-200:]}"
    try:
        payload = parse_report(out)
    except (ValueError, KeyError):
        return f"no JSON report: {err.strip()[-200:]}"
    if cmd.check is not None:
        try:
            problem = cmd.check(code, payload)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            problem = f"malformed report: {exc!r}"
        if problem:
            return problem
    if pinned is None:
        return None
    want = pinned.get(command_key(corpus, cmd))
    if want is None:
        return "no pinned digest for this command line and inputs"
    if want != report_digest(corpus, code, payload):
        return "report differs from the pinned digest"
    return None


def inputs_note(pinned: dict, corpus_seed: int, corpus) -> str:
    want = pinned["inputs_sha256"].get(str(corpus_seed))
    if want is None:
        return "corpus seed not pinned"
    return "same as pinned" if want == corpus.inputs_sha256() else "DIFFERS from pinned"


def load_pinned(workload: str) -> dict:
    """{"digests": {command key: report digest}, "inputs_sha256": {seed: hash}}."""
    path = EXPECTED / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {"digests": {},
                                                                 "inputs_sha256": {}}


# ---------------------------------------------------------------------------
# Metrics


def scaled_ms(results: Results, speed: HostSpeed) -> list[tuple[int, float]]:
    """(command index, scaled ms) of every sample."""
    return [(i, ns / 1e6 * speed.scale(at)) for i, ns, at in results.samples]


def end_to_end(samples: list[tuple[int, float]], setup_s: float):
    ms = sorted(v for _, v in samples)
    per_command: dict = {}
    for i, v in samples:
        per_command.setdefault(i, []).append(v)
    medians = [statistics.median(v) for v in per_command.values()]
    tail_rank = math.ceil(TAIL_PERCENTILE / 100 * len(ms))
    metrics = {
        "commands_per_s": len(ms) / (sum(ms) / 1e3),
        "command_p50_ms": statistics.median(ms),
        "command_tail_ms": ms[tail_rank - 1],
        "command_geomean_ms": math.exp(statistics.fmean(math.log(m) for m in medians)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, len(ms) - tail_rank


def per_label(corpus, samples: list[tuple[int, float]]):
    by_label: dict = {}
    for i, v in samples:
        by_label.setdefault(corpus.commands[i].label, []).append(v)
    return {label: statistics.median(v) for label, v in by_label.items()}


# ---------------------------------------------------------------------------


def measure_plain(cli, corpus, seconds: float):
    """Whole untraced passes, with reference runs, until `seconds` have elapsed."""
    results = Results(corpus)
    speed = HostSpeed()
    loop_ns = 0
    passes = 0
    while passes == 0 or loop_ns < seconds * 1e9:
        loop_ns += results.run_pass(cli, speed=speed)
        passes += 1
    return results, speed, passes


def measure_traced(cli, corpus, seconds: float):
    """Untraced and traced passes in turn until `seconds` have elapsed.

    Returns the results, the per-layer metrics per corpus pass, the number
    of traced passes, and each traced command's (sum of span self times,
    root span duration) in ns.
    """
    results = Results(corpus)
    plain_ns, traced_ns, summaries, balances = [], [], [], []
    start = time.perf_counter()
    while not summaries or time.perf_counter() - start < seconds:
        plain_ns.append(results.run_pass(cli))
        recorder = layertrace.Recorder()
        recorder.install()
        try:
            traced_ns.append(results.run_pass(cli, recorder))
        finally:
            recorder.uninstall()
        summaries.append(recorder.summary())
        balances += recorder.command_balance()
    overhead = statistics.median(traced_ns) / statistics.median(plain_ns)
    return results, layertrace.combine(summaries, overhead), len(summaries), balances


@dataclass
class Outcome:
    result: dict  # the JSON object printed last
    lines: list  # human-readable report printed before it
    inputs_sha256: str
    balances: list  # traced runs: (sum of span self times, root duration) per command


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False) -> Outcome:
    """One benchmark run; `tiny` keeps only the warm-up commands (for the self-check)."""
    corpus_seed = seed % corpora.PINNED_SEEDS
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        cli, corpus, setup_s = set_up(workload, corpus_seed, work)
        if tiny:
            corpus.commands = warm_commands(corpus)
        if trace:
            results, metrics, passes, balances = measure_traced(cli, corpus, seconds)
        else:
            results, speed, passes = measure_plain(cli, corpus, seconds)
            balances = []
        pinned = load_pinned(workload)
        failed, messages = results.verify(pinned["digests"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    attempted = len(results.samples)
    kind = "traced and untraced passes each" if trace else "passes"
    lines = [f"workload {workload} seed {seed} (corpus seed {corpus_seed}): "
             f"{len(corpus.commands)} commands x {passes} {kind}",
             f"inputs sha256 {corpus.inputs_sha256()} "
             f"({inputs_note(pinned, corpus_seed, corpus)})"]
    lines += [f"FAILED {m}" for m in sorted(set(messages))]
    lines.append(f"failed_ratio {failed / attempted:.6g} ratio ({failed} of {attempted})")
    if trace:
        units = dict(layertrace.PER_LAYER)
    else:
        samples = scaled_ms(results, speed)
        metrics, beyond = end_to_end(samples, setup_s)
        units = dict(END_TO_END)
        ref_ms = [ns / 1e6 for ns in speed.ns]
        lines.append(f"reference loop {statistics.median(ref_ms):.3f} ms median over "
                     f"{len(ref_ms)} runs ({min(ref_ms):.3f}-{max(ref_ms):.3f}); times below "
                     f"are scaled to {REFERENCE_MS} ms, wall p50 "
                     f"{statistics.median(ns / 1e6 for _, ns, _ in results.samples):.3f} ms")
        lines += [f"  {label:32s} {median:10.3f} ms median"
                  for label, median in per_label(corpus, samples).items()]
        lines.append(f"command_tail_ms is p{TAIL_PERCENTILE} of {attempted} samples, "
                     f"{beyond} beyond it")
    lines += [f"{name} {value:.6g} {units[name]}" for name, value in metrics.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return Outcome(result, lines, corpus.inputs_sha256(), balances)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpora.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        outcome = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for line in outcome.lines:
        print(line)
    print(json.dumps(outcome.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
