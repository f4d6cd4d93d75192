"""Cross-version differential oracle: ``as_of(k)`` ≡ from-scratch rebuild.

The MVCC invariant under test: for any base matrix and any sequence of
edit scripts appended as epoch-stamped delta records, replaying the chain
prefix ``as_of(k)`` answers all four Table 1 queries identically to a
:class:`FlatIndex` built from a *full re-encode* of the matrix after
the first ``k`` scripts — for every epoch ``k`` at once, from one file
open.  Compaction folds history and must make folded epochs fail loudly
(:class:`VersionUnavailableError`), never answer from the wrong version.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_matrix, matrices
from repro.core.pipeline import encode, index_from_bytes, persist
from repro.delta import (
    DeltaLog,
    VersionUnavailableError,
    append_delta,
    compact_file,
    encode_record,
    load_versions,
    versions_from_bytes,
)
from repro.matrix.points_to import PointsToMatrix
from test_delta_oracle import apply_script, assert_table1_equivalent, random_script

# ----------------------------------------------------------------------
# Chain construction: a persisted base plus K appended records, with the
# reference state at every epoch kept alongside.
# ----------------------------------------------------------------------


def build_chain(path: str, matrix: PointsToMatrix, scripts) -> List[PointsToMatrix]:
    """Persist ``matrix`` then append one record per script.

    Returns ``states`` where ``states[k]`` is the ground-truth matrix at
    epoch ``k`` (``states[0]`` is the base).  Scripts that net to nothing
    still consume an epoch only if they produce a record, so callers pass
    effective scripts.
    """
    states = [matrix]
    for script in scripts:
        result = append_delta(path, script)
        assert result.epoch == len(states), "epochs must be 1..k in order"
        states.append(apply_script(states[-1], script))
    return states


def effective_scripts(rng: random.Random, matrix: PointsToMatrix,
                      count: int) -> Tuple[List[DeltaLog], List[PointsToMatrix]]:
    """``count`` scripts that each net to at least one record."""
    scripts: List[DeltaLog] = []
    state = matrix
    while len(scripts) < count:
        script = random_script(rng, matrix, rng.randint(1, 8))
        inserts, deletes = script.net()
        if not inserts and not deletes:
            continue
        scripts.append(script)
        state = apply_script(state, script)
    return scripts, [state]


def assert_chain_matches_rebuilds(versioned, states) -> None:
    """Every epoch of ``versioned`` answers like its from-scratch rebuild."""
    assert versioned.floor == 0
    assert versioned.head == len(states) - 1
    assert versioned.versions() == list(range(len(states)))
    for epoch, state in enumerate(states):
        pinned = versioned.as_of(epoch)
        oracle = index_from_bytes(encode(state))
        assert_table1_equivalent(pinned, oracle, state.n_pointers,
                                 state.n_objects)
        assert pinned.materialize() == state


# ----------------------------------------------------------------------
# The oracle over file-backed chains
# ----------------------------------------------------------------------


class TestVersionOracle:
    def test_seeded_sweep(self, tmp_path):
        """Deterministic volume: 20 chains × every epoch × four queries."""
        checked = 0
        for seed in range(20):
            rng = random.Random("version-oracle-%d" % seed)
            matrix = make_random_matrix(
                rng.randint(2, 16), rng.randint(1, 8),
                density=rng.choice((0.1, 0.3, 0.5)), seed=seed)
            path = str(tmp_path / ("chain-%d.pestrie" % seed))
            persist(matrix, path, compact=bool(seed % 2))
            scripts, _ = effective_scripts(rng, matrix, rng.randint(1, 5))
            states = build_chain(path, matrix, scripts)
            versioned = load_versions(path)
            try:
                assert_chain_matches_rebuilds(versioned, states)
                checked += len(states)
            finally:
                versioned.close()
        assert checked >= 40

    @settings(max_examples=40)
    @given(matrices(), st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_hypothesis_chains(self, matrix, seed):
        """Adversarial shapes: in-memory chains checked at every epoch."""
        rng = random.Random(seed)
        image = encode(matrix)
        states = [matrix]
        for _ in range(rng.randint(1, 4)):
            script = random_script(rng, matrix, rng.randint(0, 10))
            inserts, deletes = script.net()
            if not inserts and not deletes:
                continue
            image += encode_record(inserts, deletes, epoch=len(states))
            states.append(apply_script(states[-1], script))
        versioned = versions_from_bytes(image)
        assert_chain_matches_rebuilds(versioned, states)

    @pytest.mark.parametrize("version,lazy", [(3, False), (4, False), (4, True)])
    def test_base_variants(self, tmp_path, version, lazy):
        """The oracle holds over compact v3 and zero-copy/flat v4 bases."""
        matrix = make_random_matrix(14, 6, density=0.3, seed=31)
        path = str(tmp_path / "base.pestrie")
        persist(matrix, path, version=version, compact=version == 3)
        rng = random.Random(31)
        scripts, _ = effective_scripts(rng, matrix, 3)
        states = build_chain(path, matrix, scripts)
        versioned = load_versions(path, lazy=lazy)
        try:
            assert_chain_matches_rebuilds(versioned, states)
        finally:
            versioned.close()

    def test_out_of_range_versions_raise(self, tmp_path):
        matrix = make_random_matrix(8, 4, density=0.3, seed=33)
        path = str(tmp_path / "range.pestrie")
        persist(matrix, path)
        append_delta(path, DeltaLog().insert(0, 0) if 0 not in matrix.rows[0]
                     else DeltaLog().delete(0, 0))
        versioned = load_versions(path)
        try:
            with pytest.raises(VersionUnavailableError):
                versioned.as_of(2)
            with pytest.raises(VersionUnavailableError):
                versioned.as_of(-1)
            with pytest.raises(TypeError):
                versioned.as_of("1")
        finally:
            versioned.close()


class TestLegacyAndMixedChains:
    """``PESDELT1`` records get implicit epochs and mix with stamped ones."""

    def _states_and_scripts(self, matrix, seed, count):
        rng = random.Random(seed)
        scripts = []
        states = [matrix]
        while len(scripts) < count:
            script = random_script(rng, matrix, rng.randint(1, 6))
            inserts, deletes = script.net()
            if not inserts and not deletes:
                continue
            scripts.append((inserts, deletes))
            states.append(apply_script(states[-1], script))
        return scripts, states

    def test_legacy_chain_gets_implicit_epochs(self):
        matrix = make_random_matrix(10, 5, density=0.3, seed=41)
        scripts, states = self._states_and_scripts(matrix, 41, 3)
        image = encode(matrix)
        for inserts, deletes in scripts:  # epoch=None → legacy PESDELT1
            image += encode_record(inserts, deletes)
        versioned = versions_from_bytes(image)
        assert_chain_matches_rebuilds(versioned, states)

    def test_mixed_chain(self):
        """Legacy records interleaved with stamped ones keep 1..k epochs."""
        matrix = make_random_matrix(10, 5, density=0.3, seed=42)
        scripts, states = self._states_and_scripts(matrix, 42, 4)
        image = encode(matrix)
        for index, (inserts, deletes) in enumerate(scripts):
            epoch = index + 1 if index % 2 else None  # alternate variants
            image += encode_record(inserts, deletes, epoch=epoch)
        versioned = versions_from_bytes(image)
        assert_chain_matches_rebuilds(versioned, states)

    def test_epoch_gaps_snap_to_the_older_record(self):
        """Stamped epochs may skip values; gaps resolve to the older state."""
        matrix = make_random_matrix(10, 5, density=0.3, seed=43)
        scripts, states = self._states_and_scripts(matrix, 43, 2)
        image = encode(matrix)
        image += encode_record(*scripts[0], epoch=2)
        image += encode_record(*scripts[1], epoch=7)
        versioned = versions_from_bytes(image)
        assert versioned.versions() == [0, 2, 7]
        assert versioned.as_of(2).materialize() == states[1]
        assert versioned.as_of(7).materialize() == states[2]
        # State only changes at record epochs: 1 sees the base, 5 sees
        # the epoch-2 record, and past-the-head versions fail loudly.
        assert versioned.as_of(1).materialize() == states[0]
        assert versioned.as_of(5).materialize() == states[1]
        with pytest.raises(VersionUnavailableError):
            versioned.as_of(8)


class TestCompactionWatermark:
    def test_folded_epochs_fail_loudly(self, tmp_path):
        matrix = make_random_matrix(12, 6, density=0.3, seed=51)
        path = str(tmp_path / "wm.pestrie")
        persist(matrix, path)
        scripts, _ = effective_scripts(random.Random(51), matrix, 3)
        states = build_chain(path, matrix, scripts)
        compact_file(path)
        versioned = load_versions(path)
        try:
            assert versioned.floor == versioned.head == 3
            assert versioned.versions() == [3]
            assert versioned.as_of(3).materialize() == states[3]
            for folded in (0, 1, 2):
                with pytest.raises(VersionUnavailableError):
                    versioned.as_of(folded)
        finally:
            versioned.close()

    def test_appends_continue_past_the_watermark(self, tmp_path):
        """Post-compaction appends resume the epoch sequence, not restart it."""
        matrix = make_random_matrix(12, 6, density=0.3, seed=52)
        path = str(tmp_path / "wm2.pestrie")
        persist(matrix, path)
        rng = random.Random(52)
        scripts, _ = effective_scripts(rng, matrix, 2)
        states = build_chain(path, matrix, scripts)
        compact_file(path)
        more, _ = effective_scripts(rng, matrix, 2)
        for script in more:
            result = append_delta(path, script)
            states.append(apply_script(states[-1], script))
            assert result.epoch == len(states) - 1
        versioned = load_versions(path)
        try:
            assert versioned.floor == 2
            assert versioned.versions() == [2, 3, 4]
            for epoch in (2, 3, 4):
                oracle = index_from_bytes(encode(states[epoch]))
                assert_table1_equivalent(versioned.as_of(epoch), oracle,
                                         12, 6)
        finally:
            versioned.close()


# ----------------------------------------------------------------------
# dirty_between / diff: the record-derived change sets are exact
# ----------------------------------------------------------------------


class TestVersionDiff:
    def test_diff_matches_materialized_states(self, tmp_path):
        matrix = make_random_matrix(14, 7, density=0.3, seed=61)
        path = str(tmp_path / "diff.pestrie")
        persist(matrix, path)
        scripts, _ = effective_scripts(random.Random(61), matrix, 4)
        states = build_chain(path, matrix, scripts)
        versioned = load_versions(path)
        try:
            for v1 in range(len(states)):
                for v2 in range(v1, len(states)):
                    added, removed = versioned.diff(v1, v2)
                    old_facts = {(p, o) for p in range(14)
                                 for o in states[v1].rows[p]}
                    new_facts = {(p, o) for p in range(14)
                                 for o in states[v2].rows[p]}
                    assert set(added) == new_facts - old_facts
                    assert set(removed) == old_facts - new_facts
        finally:
            versioned.close()

    def test_dirty_between_covers_every_changed_pointer(self, tmp_path):
        matrix = make_random_matrix(14, 7, density=0.3, seed=62)
        path = str(tmp_path / "dirty.pestrie")
        persist(matrix, path)
        scripts, _ = effective_scripts(random.Random(62), matrix, 3)
        states = build_chain(path, matrix, scripts)
        versioned = load_versions(path)
        try:
            pointers, objects = versioned.dirty_between(0, versioned.head)
            changed = {p for p in range(14)
                       if set(states[0].rows[p]) != set(states[-1].rows[p])}
            assert changed <= pointers
            changed_objects = {o for p in range(14)
                               for o in set(states[0].rows[p])
                               ^ set(states[-1].rows[p])}
            assert changed_objects <= objects
        finally:
            versioned.close()
