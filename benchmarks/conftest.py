"""Shared benchmark fixtures: built subjects and their encoded artefacts.

Everything heavyweight is session-scoped so the whole benchmark run builds
each subject and each persistent encoding exactly once.  Paper-style result
tables are printed and also written to ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, Optional

import pytest

from repro.baselines.bitmap_persist import BitmapIndex, BitmapPersistence
from repro.baselines.bzip_persist import BzipPersistence
from repro.baselines.cha_bitvector import ChaBitVectorIndex, ChaBitVectorPersistence
from repro.baselines.demand import DemandDriven
from repro.bdd.encode import PointsToBdd, encode_matrix
from repro.bdd.persist import BddPersistence
from repro.bench.harness import timed
from repro.bench.suite import BDD_SUBJECTS, SUBJECT_NAMES, Subject, get_subject
from repro.core.pipeline import load_index, persist
from repro.core.flat import FlatIndex

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Decodes timed per persisted artefact; Table 7c reports their median.
DECODE_RUNS = 5


@dataclass
class EncodedSubject:
    """One subject plus every persistent artefact and decoded index."""

    subject: Subject
    pes_path: str
    pes_size: int
    pes_construct_seconds: float
    pes_decode_seconds: float
    pes_decode_spread: float
    pestrie: FlatIndex

    bitp_path: str
    bitp_size: int
    bitp_construct_seconds: float
    bitp_decode_seconds: float
    bitp_decode_spread: float
    bitp: BitmapIndex

    bzip_path: str
    bzip_size: int
    bzip_construct_seconds: float

    cha_path: str
    cha_size: int
    cha_construct_seconds: float
    cha_decode_seconds: float
    cha: ChaBitVectorIndex

    demand: DemandDriven

    bdd_path: Optional[str] = None
    bdd_size: Optional[int] = None
    bdd_construct_seconds: Optional[float] = None
    bdd: Optional[PointsToBdd] = None

    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.subject.name


def _timed_decodes(decode):
    """``(median seconds, max - min seconds, result)`` over ``DECODE_RUNS`` decodes."""
    runs = [timed(decode) for _ in range(DECODE_RUNS)]
    seconds = [run.seconds for run in runs]
    return median(seconds), max(seconds) - min(seconds), runs[-1].result


def _encode_subject(subject: Subject, directory: str) -> EncodedSubject:
    matrix = subject.matrix
    pes_path = os.path.join(directory, subject.name + ".pes")
    construct = timed(lambda: persist(matrix, pes_path))
    decode_seconds, decode_spread, pestrie = _timed_decodes(
        lambda: load_index(pes_path))

    bitp_path = os.path.join(directory, subject.name + ".bitp")
    bitp_construct = timed(lambda: BitmapPersistence.encode_to_file(matrix, bitp_path))
    bitp_seconds, bitp_spread, bitp = _timed_decodes(
        lambda: BitmapPersistence.decode_from_file(bitp_path))

    bzip_path = os.path.join(directory, subject.name + ".bz")
    bzip_construct = timed(lambda: BzipPersistence.encode_to_file(matrix, bzip_path))

    cha_path = os.path.join(directory, subject.name + ".chbv")
    cha_construct = timed(lambda: ChaBitVectorPersistence.encode_to_file(matrix, cha_path))
    cha_decode = timed(lambda: ChaBitVectorPersistence.decode_from_file(cha_path))

    encoded = EncodedSubject(
        subject=subject,
        pes_path=pes_path,
        pes_size=construct.result,
        pes_construct_seconds=construct.seconds,
        pes_decode_seconds=decode_seconds,
        pes_decode_spread=decode_spread,
        pestrie=pestrie,
        bitp_path=bitp_path,
        bitp_size=bitp_construct.result,
        bitp_construct_seconds=bitp_construct.seconds,
        bitp_decode_seconds=bitp_seconds,
        bitp_decode_spread=bitp_spread,
        bitp=bitp,
        bzip_path=bzip_path,
        bzip_size=bzip_construct.result,
        bzip_construct_seconds=bzip_construct.seconds,
        cha_path=cha_path,
        cha_size=cha_construct.result,
        cha_construct_seconds=cha_construct.seconds,
        cha_decode_seconds=cha_decode.seconds,
        cha=cha_decode.result,
        demand=DemandDriven(matrix, universe=subject.base_pointers),
    )

    if subject.name in BDD_SUBJECTS:
        bdd_path = os.path.join(directory, subject.name + ".bdd")
        build = timed(lambda: encode_matrix(matrix))
        encoded.bdd = build.result
        write = timed(lambda: BddPersistence.encode_to_file(build.result, bdd_path))
        encoded.bdd_path = bdd_path
        encoded.bdd_size = write.result
        encoded.bdd_construct_seconds = build.seconds + write.seconds
    return encoded


@pytest.fixture(scope="session")
def artefact_dir(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("pestrie-bench"))


@pytest.fixture(scope="session")
def encoded_suite(artefact_dir) -> Dict[str, EncodedSubject]:
    """Every subject, built, analysed, and encoded by all backends."""
    return {
        name: _encode_subject(get_subject(name), artefact_dir)
        for name in SUBJECT_NAMES
    }


def write_result(filename: str, text: str) -> None:
    """Print a result table and archive it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, filename), "w") as stream:
        stream.write(text + "\n")
    print(text)


def write_metrics_snapshot(filename: str) -> None:
    """Archive the process telemetry registry (JSON) next to the tables.

    Benchmarks exercise the instrumented pipeline anyway, so their runs
    double as metric fixtures: the snapshot shows exactly which counters
    and histograms the measured workload moved.
    """
    from repro.obs import get_registry

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, filename), "w") as stream:
        stream.write(get_registry().to_json() + "\n")
