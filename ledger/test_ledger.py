"""Tests of the bench ledger itself, at ``--quick`` sizes: ``pytest ledger/``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from ledger import ROOT, WORK, require_source

require_source()

from repro.clients import DaemonClient  # noqa: E402

from ledger import metrics  # noqa: E402
from ledger.__main__ import RUN_SECONDS, main  # noqa: E402
from ledger.compare import check_comparable, compare, load_bounds  # noqa: E402
from ledger.workloads import WORKLOADS, Run, serve_pairs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_describes_this_ledger():
    assert BENCHMARK["command"] == ["python3", "-m", "ledger", "one"]
    assert BENCHMARK["paths"] == ["ledger"]
    assert BENCHMARK["run_seconds"] == RUN_SECONDS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for key, defined in (("end_to_end", metrics.END_TO_END),
                         ("per_layer", metrics.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[key]] \
            == [tuple(metric) for metric in defined]
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """One untraced and one traced ``run --quick``, side by side."""
    out = tmp_path_factory.mktemp("ledger")
    procs = {}
    for mode in ("plain", "traced"):
        command = [sys.executable, "-m", "ledger", "run", "--quick", "--seed", "3",
                   "--out", str(out / ("%s.json" % mode))]
        if mode == "traced":
            command.append("--traced")
        procs[mode] = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                       stderr=subprocess.PIPE, text=True)
    runs = {}
    for mode, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        runs[mode] = (json.loads((out / ("%s.json" % mode)).read_text()), stdout)
    return runs


@pytest.mark.parametrize("mode,key", [("plain", "end_to_end"), ("traced", "per_layer")])
def test_every_metric_appears_with_its_unit(quick_runs, mode, key):
    report, stdout = quick_runs[mode]
    units = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    for workload in WORKLOADS:
        record = report["workloads"][workload]
        assert record["correct"] and record["failed"] == 0 and not record["leaks"]
        assert {name: entry["unit"] for name, entry in record["metrics"].items()} == units
        assert record["fingerprints"]["program"] and record["fingerprints"]["stream"]
        for name, unit in units.items():
            assert "%s %s " % (name, workload) in stdout
            if key == "end_to_end":
                assert record["metrics"][name]["value"] > 0
    if mode == "traced":
        assert stdout.count("in-process -> socket split") == len(WORKLOADS)


class _FlipOnce(DaemonClient):
    """A service that answers exactly one ``is_alias`` query wrongly."""

    flipped = False

    def is_alias_batch(self, pairs, as_of=None):
        answers = super().is_alias_batch(pairs, as_of=as_of)
        if not _FlipOnce.flipped:
            _FlipOnce.flipped = True
            answers[0] = not answers[0]
        return answers


def test_a_flipped_answer_makes_failed_frac_positive(monkeypatch):
    monkeypatch.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    work = WORK / "test-flip"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    run = Run(workload="serve-pairs", seed=3, seconds=0.5, quick=True, work=work,
              client_cls=_FlipOnce)
    try:
        serve_pairs(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert _FlipOnce.flipped and not run.leaks
    assert run.failed == 1 and run.attempted > 1
    assert run.failed / run.attempted > 0


def _fake_run(seed, values):
    return {"workloads": {"serve-pairs": {
        "seed": seed,
        "fingerprints": {"program": "p%d" % seed, "stream": "s%d" % seed},
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()}}}}


def test_compare_flags_a_2x_move_and_passes_identical_inputs(tmp_path):
    bounds = load_bounds(ROOT / "BENCHMARK.json")
    first = [_fake_run(seed, {"p50_ms": 1.0 + 0.01 * seed, "throughput": 1000.0 + seed})
             for seed in range(1, 6)]
    same = json.loads(json.dumps(first))
    assert check_comparable(first, same) == []
    assert {row["status"] for row in compare(first, same, bounds)} == {"ok"}
    doubled = [_fake_run(seed, {"p50_ms": 2 * (1.0 + 0.01 * seed),
                                "throughput": (1000.0 + seed) / 2})
               for seed in range(1, 6)]
    assert {row["status"] for row in compare(first, doubled, bounds)} == {"regressed"}
    assert check_comparable(first, first[:4])

    paths = {}
    for name, runs in (("a", first), ("b", same), ("c", doubled)):
        paths[name] = []
        for index, run in enumerate(runs):
            path = tmp_path / ("%s%d.json" % (name, index))
            path.write_text(json.dumps(run))
            paths[name].append(str(path))
    assert main(["compare"] + paths["a"] + ["--"] + paths["b"]) == 0
    assert main(["compare"] + paths["a"] + ["--"] + paths["c"]) == 1
    assert main(["compare"] + paths["a"] + ["--"] + paths["c"][:4]) == 2


def test_a_copy_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "ledger", tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(BENCHMARK["command"] + ["--workload", "serve-pairs", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
