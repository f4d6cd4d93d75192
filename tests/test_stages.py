"""Staged pipeline: contracts, executors, and pinned output bytes.

The load-bearing property is byte-identity: the pipeline must reproduce
the SHA-256 digests pinned in ``fixtures/encode_sha256.json`` for every
version/coding/order, serially and over a process pool, and a
multi-process run must reproduce the serial bytes exactly — chunked
fan-out with deterministic merges, never "close enough".
"""

import hashlib
import json
import os
import random

import pytest

from repro.bench.synthetic import SyntheticSpec, synthesize
from repro.core import pipeline
from repro.core.builder import ORDER_CHOICES
from repro.core.stages import (
    ENCODE_STAGES,
    BuildContext,
    BuildReport,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
    run_pipeline,
    run_stages,
)
from repro.matrix.points_to import PointsToMatrix

VERSIONS = ((1, False), (2, False), (3, False), (3, True), (4, False))

with open(os.path.join(os.path.dirname(__file__), "fixtures", "encode_sha256.json")) as _fh:
    DIGESTS = json.load(_fh)["digests"]


def version_key(version, compact):
    return "v%d%s" % (version, "c" if compact else "")


def digest(data):
    return hashlib.sha256(data).hexdigest()


def random_matrix(seed, n_pointers=14, n_objects=9):
    rng = random.Random(seed)
    matrix = PointsToMatrix(n_pointers, n_objects)
    for _ in range(rng.randint(0, n_pointers * n_objects)):
        matrix.add(rng.randrange(n_pointers), rng.randrange(n_objects))
    return matrix


@pytest.fixture(scope="module")
def synthetic():
    return synthesize(SyntheticSpec(n_pointers=3000, n_objects=600, seed=17))


@pytest.fixture(scope="module")
def pool2():
    executor = ProcessExecutor(2)
    yield executor
    executor.close()


@pytest.fixture(scope="module")
def pool4():
    executor = ProcessExecutor(4)
    yield executor
    executor.close()


# ----------------------------------------------------------------------
# Pipeline output == pinned digests
# ----------------------------------------------------------------------


@pytest.fixture(scope="module", params=["serial", "jobs2"])
def executor(request, pool2):
    return SerialExecutor() if request.param == "serial" else pool2


@pytest.mark.parametrize("order", ORDER_CHOICES)
@pytest.mark.parametrize("version,compact", VERSIONS)
def test_synthetic_matches_pinned_digest(synthetic, executor, order, version, compact):
    data = run_pipeline(synthetic, order=order, seed=5, compact=compact,
                        version=version, executor=executor)
    assert digest(data) == DIGESTS["synthetic/%s/%s" % (order, version_key(version, compact))]


def test_random_matrices_match_pinned_digests(executor):
    for seed in range(20):
        matrix = random_matrix(seed)
        for order in ORDER_CHOICES:
            data = run_pipeline(matrix, order=order, seed=seed, version=3,
                                compact=bool(seed % 2), executor=executor)
            assert digest(data) == DIGESTS["random/%d/%s" % (seed, order)], (seed, order)


def test_explicit_order_matches_pinned_digest(synthetic, executor):
    perm = list(range(synthetic.n_objects))
    random.Random(3).shuffle(perm)
    data = run_pipeline(synthetic, explicit_order=perm, executor=executor)
    assert digest(data) == DIGESTS["synthetic/explicit/v3"]


@pytest.mark.parametrize("version,compact", VERSIONS)
def test_paper_matrix_matches_pinned_digest(paper_matrix, executor, version, compact):
    data = run_pipeline(paper_matrix, order="identity", compact=compact,
                        version=version, executor=executor)
    assert digest(data) == DIGESTS["paper/identity/%s" % version_key(version, compact)]


def test_every_pinned_digest_is_checked():
    expected = {"synthetic/%s/%s" % (order, version_key(version, compact))
                for order in ORDER_CHOICES for version, compact in VERSIONS}
    expected |= {"random/%d/%s" % (seed, order)
                 for seed in range(20) for order in ORDER_CHOICES}
    expected |= {"paper/identity/%s" % version_key(version, compact)
                 for version, compact in VERSIONS}
    expected.add("synthetic/explicit/v3")
    assert set(DIGESTS) == expected


def test_pipeline_facade_routes_through_stages(synthetic):
    assert pipeline.encode(synthetic) == run_pipeline(synthetic)
    assert pipeline.encode(synthetic, jobs=1) == run_pipeline(synthetic)


@pytest.mark.parametrize("version,compact", VERSIONS)
def test_empty_object_universe_round_trips(version, compact):
    """No allocation sites: zero groups, every pointer untracked."""
    matrix = PointsToMatrix(4, 0)
    data = run_pipeline(matrix, compact=compact, version=version)
    for lazy in (False, True):
        index = pipeline.index_from_bytes(data, lazy=lazy)
        assert index.n_pointers == 4
        assert not index.is_alias(0, 1)
        assert not index.is_alias(2, 2)
        assert list(index.list_points_to(3)) == []
        assert list(index.list_aliases(0)) == []
        assert index.materialize() == matrix


def test_stage_slices_compose(synthetic):
    """A prefix plus the remaining suffix is the full pipeline."""
    ctx = BuildContext(synthetic)
    run_stages(ctx, ENCODE_STAGES[:6])
    assert "payload" not in ctx.artifacts
    run_stages(ctx, ENCODE_STAGES[6:])
    assert ctx.artifacts["payload"] == run_pipeline(synthetic)


def test_stage_slice_checks_inputs(synthetic):
    with pytest.raises(KeyError, match="candidates"):
        run_stages(BuildContext(synthetic), ENCODE_STAGES[5:])


# ----------------------------------------------------------------------
# Parallel parity: --jobs N is byte-identical to serial
# ----------------------------------------------------------------------


@pytest.mark.parametrize("order", ORDER_CHOICES)
@pytest.mark.parametrize("version,compact", ((3, False), (3, True), (4, False)))
def test_parallel_byte_identical(synthetic, pool2, order, version, compact):
    serial = run_pipeline(synthetic, order=order, seed=2, compact=compact,
                          version=version)
    parallel = run_pipeline(synthetic, order=order, seed=2, compact=compact,
                            version=version, executor=pool2)
    assert parallel == serial


def test_parallel_byte_identical_four_jobs(synthetic, pool4):
    for version, compact in VERSIONS:
        serial = run_pipeline(synthetic, compact=compact, version=version)
        assert run_pipeline(synthetic, compact=compact, version=version,
                            executor=pool4) == serial


def test_parallel_byte_identical_small_matrices(pool2):
    # Degenerate shapes: empty, single row, chunk-count > item-count.
    cases = [PointsToMatrix(1, 1)]
    cases[0].add(0, 0)
    cases.append(random_matrix(42, n_pointers=3, n_objects=2))
    cases.append(random_matrix(43, n_pointers=50, n_objects=4))
    for matrix in cases:
        for version, compact in VERSIONS:
            serial = run_pipeline(matrix, compact=compact, version=version)
            assert run_pipeline(matrix, compact=compact, version=version,
                                executor=pool2) == serial


def test_jobs_kwarg_spins_up_own_pool(synthetic):
    serial = run_pipeline(synthetic, version=4)
    assert run_pipeline(synthetic, version=4, jobs=2) == serial


# ----------------------------------------------------------------------
# Executors and stage framework
# ----------------------------------------------------------------------


def test_make_executor_selection():
    assert isinstance(make_executor(None), SerialExecutor)
    assert isinstance(make_executor(0), SerialExecutor)
    assert isinstance(make_executor(1), SerialExecutor)
    executor = make_executor(2)
    assert isinstance(executor, ProcessExecutor)
    assert executor.jobs == 2
    executor.close()
    with pytest.raises(ValueError):
        ProcessExecutor(1)


def test_serial_executor_preserves_order():
    executor = SerialExecutor()
    assert executor.map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]


def test_process_executor_preserves_order(pool2):
    payloads = list(range(20))
    assert pool2.map(_square, payloads) == [value * value for value in payloads]


def _square(value):
    return value * value


def test_stage_contracts_are_declared():
    names = [stage.name for stage in ENCODE_STAGES]
    assert names == ["normalize", "order", "trie", "intervals", "rectangles",
                     "dedup", "sections", "assemble"]
    produced = {"matrix"}
    for stage in ENCODE_STAGES:
        for key in stage.inputs:
            assert key in produced, (stage.name, key)
        produced.update(stage.outputs)
    assert "payload" in produced
    # The parallel stages the issue names, and only those plus sections.
    assert [stage.name for stage in ENCODE_STAGES if stage.parallel] == [
        "order", "rectangles", "sections"]


def test_build_report_collects_stages(synthetic):
    report = BuildReport()
    run_pipeline(synthetic, report=report)
    assert [entry.name for entry in report.stages] == [
        stage.name for stage in ENCODE_STAGES]
    assert report.jobs == 1
    assert report.total_seconds() > 0
    assert all(entry.peak_rss_kb > 0 for entry in report.stages)
    assert report.seconds("rectangles") >= 0


def test_stage_telemetry_emitted(synthetic):
    from repro.obs import get_registry

    registry = get_registry()
    before = registry.snapshot().get("repro_stage_seconds", {}).get("series", [])
    before_count = sum(entry["count"] for entry in before)
    run_pipeline(synthetic)
    after = registry.snapshot()["repro_stage_seconds"]["series"]
    after_count = sum(entry["count"] for entry in after)
    assert after_count == before_count + len(ENCODE_STAGES)
    stages_seen = {entry["labels"]["stage"] for entry in after}
    assert {stage.name for stage in ENCODE_STAGES} <= stages_seen


def test_decoded_queries_match_legacy_index(synthetic):
    data = run_pipeline(synthetic, version=3)
    index = pipeline.index_from_bytes(data)
    assert index.materialize() == synthetic
