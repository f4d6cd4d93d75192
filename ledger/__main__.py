"""``python -m ledger {one,run,compare}``; see ``ledger/README.md``.

* ``one --workload W --seed N --seconds T --trace 0|1`` runs one workload
  in this process and prints, last, one JSON line with ``correct``,
  ``attempted``, ``failed`` and ``metrics`` (the ``BENCHMARK.json``
  command).
* ``run --seed S --out FILE`` runs every workload, each in a fresh
  ``one`` subprocess, prints every metric as ``name workload value unit``
  and writes the records with an environment stamp.  ``--quick`` does
  about a tenth of the work; ``--traced`` produces the per-layer metrics.
* ``compare A.json... -- B.json...`` applies the bounds of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from . import ROOT, SRC, WORK, require_source

#: Seconds one full run measures (BENCHMARK.json ``run_seconds``).
RUN_SECONDS = 10
#: Ceiling on one ``one`` subprocess started by ``run``.
WORKLOAD_TIMEOUT = 900


def _terminate(signum, frame):
    # Turn SIGTERM into SystemExit so every ``finally`` stops its daemon.
    raise SystemExit(128 + signum)


def cmd_one(args) -> int:
    require_source()
    os.chdir(ROOT)
    signal.signal(signal.SIGTERM, _terminate)
    from .metrics import as_metrics, metric_lines
    from .procs import cpu_split, loadavg
    from .workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        raise SystemExit("ledger: unknown workload %r (one of %s)"
                         % (args.workload, ", ".join(WORKLOADS)))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="%s-" % args.workload, dir=WORK))
    load_cpus, daemon_cpus = cpu_split()
    os.sched_setaffinity(0, load_cpus)
    run = Run(workload=args.workload, seed=args.seed, seconds=args.seconds,
              quick=args.quick, work=work, daemon_cpus=daemon_cpus)
    load_before = loadavg()
    try:
        if args.trace:
            from .traced import traced

            values, table = traced(run)
            print(table)
        else:
            values = WORKLOADS[args.workload][0](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = run.failed == 0 and not run.leaks
    print("notes %s %s" % (args.workload, json.dumps(run.notes, sort_keys=True)))
    for line in metric_lines(args.workload, values):
        print(line)
    for problem in run.problems + run.leaks:
        print("ledger: %s: %s" % (args.workload, problem), file=sys.stderr)
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": as_metrics(values)}
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, quick=args.quick, trace=bool(args.trace),
                      fingerprints=run.fingerprints, notes=run.notes,
                      problems=run.problems, leaks=run.leaks,
                      failed_frac=run.failed / max(run.attempted, 1),
                      loadavg_before=load_before, loadavg_after=loadavg())
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def _git_sha() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over the program's Python source (the checkout may have no git)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
    }


def cmd_run(args) -> int:
    require_source()
    from .metrics import metric_lines
    from .workloads import WORKLOADS

    seconds = max(1, RUN_SECONDS // 10) if args.quick else RUN_SECONDS
    report = {"env": environment(), "seed": args.seed, "quick": args.quick,
              "traced": args.traced, "seconds": seconds,
              "started": time.strftime("%Y-%m-%dT%H:%M:%S"), "workloads": {}}
    correct = True
    WORK.mkdir(exist_ok=True)
    for name in WORKLOADS:
        with tempfile.NamedTemporaryFile(dir=WORK, suffix=".json") as out:
            command = [sys.executable, "-m", "ledger", "one", "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(seconds),
                       "--trace", "1" if args.traced else "0", "--out", out.name]
            if args.quick:
                command.append("--quick")
            try:
                done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                      timeout=WORKLOAD_TIMEOUT)
            except subprocess.TimeoutExpired:
                print("ledger: %s timed out after %ds" % (name, WORKLOAD_TIMEOUT),
                      file=sys.stderr)
                correct = False
                continue
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print("ledger: %s exited with %d" % (name, done.returncode),
                      file=sys.stderr)
                correct = False
                continue
            record = json.loads(Path(out.name).read_text())
        if args.traced:
            print("\n".join(done.stdout.splitlines()[:-1]))
        else:
            values = {metric: entry["value"] for metric, entry in record["metrics"].items()}
            print("\n".join(metric_lines(name, values)), flush=True)
        correct = correct and record["correct"]
        report["workloads"][name] = record
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if correct else 1


def cmd_compare(first: List[str], second: List[str]) -> int:
    from .compare import check_comparable, compare, load_bounds, render

    runs_a = [json.loads(Path(path).read_text()) for path in first]
    runs_b = [json.loads(Path(path).read_text()) for path in second]
    reasons = check_comparable(runs_a, runs_b)
    if reasons:
        print("ledger compare: refusing runs of different inputs:\n  "
              + "\n  ".join(reasons), file=sys.stderr)
        return 2
    rows = compare(runs_a, runs_b, load_bounds(ROOT / "BENCHMARK.json"))
    print(render(rows))
    flagged = [row for row in rows if row["status"] in ("regressed", "unresolved")]
    print("%d metric x workload pairs, %d regressed, %d unresolved"
          % (len(rows), sum(row["status"] == "regressed" for row in rows),
             sum(row["status"] == "unresolved" for row in rows)))
    return 1 if flagged else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        rest = argv[1:]
        split = rest.index("--") if "--" in rest else 0
        if not 0 < split < len(rest) - 1:
            print("usage: python -m ledger compare A.json... -- B.json...", file=sys.stderr)
            return 2
        return cmd_compare(rest[:split], rest[split + 1:])

    parser = argparse.ArgumentParser(prog="python -m ledger", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    one = sub.add_parser("one", help="run one workload in this process")
    one.add_argument("--workload", required=True)
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--seconds", type=float, default=RUN_SECONDS)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument("--quick", action="store_true")
    one.add_argument("--out", default=None, help="also write the full record here")
    run = sub.add_parser("run", help="run every workload, each in a fresh process")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--quick", action="store_true")
    run.add_argument("--traced", action="store_true")
    sub.add_parser("compare", help="A.json... -- B.json...: apply the bounds")
    args = parser.parse_args(argv)
    return cmd_one(args) if args.command == "one" else cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
