#!/usr/bin/env python3
"""Pin the expected report digest of every corpus command for every corpus seed.

    python3 bench/pin.py [--workload NAME ...]

Run from the repository root, at a commit whose reports are trusted.  Each
command of each corpus seed in 0..PINNED_SEEDS-1 runs once; its exit code
and invariant must hold before its digest (exit code and normalized `report`
payload, not the envelope) is written to bench/expected/<workload>.json.
`run.py` folds every `--seed` into that range and fails a command with no
pinned digest.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys

import run as bench
from corpus import PINNED_SEEDS, WORKLOADS, build_corpus


def pin(workload: str):
    """Returns the report digest of every command and the inputs hash of every seed."""
    cli = bench.import_contlogic()
    digests = {}
    inputs = {}
    for seed in range(PINNED_SEEDS):
        work = bench.ROOT / ".bench_work" / f"pin-{workload}-{seed}"
        try:
            corpus = build_corpus(workload, seed, work)
            inputs[str(seed)] = corpus.inputs_sha256()
            for cmd in corpus.commands:
                code, out, err = bench.invoke(cli, cmd.argv)
                problem = bench.verify_output(corpus, cmd, code, out, err, None)
                if problem:
                    raise SystemExit(f"{workload} seed {seed} {cmd.label}: {problem}")
                payload = bench.parse_report(out)
                digests[bench.command_key(corpus, cmd)] = bench.report_digest(corpus, code,
                                                                              payload)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{workload} seed {seed}: {len(corpus.commands)} commands", flush=True)
    return digests, inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, bench._on_alarm)
    bench.EXPECTED.mkdir(exist_ok=True)
    for workload in args.workload or WORKLOADS:
        digests, inputs = pin(workload)
        path = bench.EXPECTED / f"{workload}.json"
        path.write_text(json.dumps({"inputs_sha256": inputs,
                                    "digests": dict(sorted(digests.items()))}, indent=0) + "\n")
    scratch = bench.ROOT / ".bench_work"
    if scratch.is_dir() and not any(scratch.iterdir()):
        scratch.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
