"""The serve layer: AliasService, caching, stats, concurrency."""

import copy
import random
import threading
import time

import pytest

from repro.core.flat import FlatIndex, unpack_ids
from repro.core.pipeline import encode, index_from_bytes, persist
from repro.delta import DeltaLog, OverlayIndex
from repro.matrix.points_to import PointsToMatrix
from repro.serve import AliasService, LRUCache
from repro.serve.stats import QUERY_KINDS, ServiceStats, quantile

from conftest import make_random_matrix


def _apply_script(matrix, log):
    edited = copy.deepcopy(matrix)
    for op, pointer, obj in log:
        if op == "+":
            edited.add(pointer, obj)
        else:
            edited.rows[pointer].discard(obj)
    return edited


class TestLRUCache:
    def test_put_get_and_eviction(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b", the least recent
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_invalidate_where_removes_matches_and_bumps_epoch(self):
        cache = LRUCache(8)
        before = cache.epoch
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate_where(lambda key: key == "a") == 1
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.epoch == before + 1

    def test_stale_epoch_put_is_dropped(self):
        """The compute/invalidate race: a pre-swap answer must not land."""
        cache = LRUCache(8)
        epoch = cache.epoch  # reader snapshots the epoch…
        cache.invalidate_where(lambda key: True)  # …writer swaps meanwhile
        cache.put("a", "stale", epoch=epoch)
        assert cache.get("a") is None
        cache.put("a", "fresh", epoch=cache.epoch)
        assert cache.get("a") == "fresh"


class TestQuantile:
    def test_empty(self):
        assert quantile([], 0.5) == 0.0

    def test_basic(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert quantile(samples, 0.0) == 1.0
        assert quantile(samples, 0.95) == 4.0

    def test_median_of_two_is_lower_sample(self):
        # The old int(q * n) truncation picked the *larger* of two samples
        # as the median; nearest-rank (ceil(q*n) - 1) picks the smaller.
        assert quantile([1.0, 2.0], 0.5) == 1.0

    def test_nearest_rank_small_windows(self):
        assert quantile([3.0], 0.5) == 3.0
        assert quantile([1.0, 2.0, 3.0], 0.5) == 2.0
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
        assert quantile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0


class TestServiceStatsKinds:
    def test_render_lists_extra_kinds_after_fixed_four(self):
        stats = ServiceStats()
        stats.record("column_probe", 0.001)
        lines = stats.snapshot().render().splitlines()
        listed = [line.split()[0] for line in lines[1:1 + len(QUERY_KINDS) + 1]]
        assert listed == list(QUERY_KINDS) + ["column_probe"]

    def test_unknown_kind_registration_is_thread_safe(self):
        stats = ServiceStats()
        workers, per_worker = 8, 250

        def run():
            for _ in range(per_worker):
                stats.record("novel_kind", 1e-6)

        threads = [threading.Thread(target=run) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.snapshot().counts["novel_kind"] == workers * per_worker


class TestAliasService:
    @pytest.fixture
    def matrix(self):
        return make_random_matrix(50, 15, density=0.15, seed=3)

    @pytest.fixture
    def service(self, matrix):
        return AliasService.from_index(index_from_bytes(encode(matrix)))

    def test_single_queries_match_oracle(self, matrix, service):
        for p in range(matrix.n_pointers):
            assert sorted(service.list_aliases(p)) == matrix.list_aliases(p)
            assert sorted(service.list_points_to(p)) == matrix.list_points_to(p)
            for q in range(matrix.n_pointers):
                assert service.is_alias(p, q) == matrix.is_alias(p, q)
        for obj in range(matrix.n_objects):
            assert sorted(service.list_pointed_by(obj)) == matrix.list_pointed_by(obj)

    def test_batch_matches_single(self, matrix, service):
        pairs = [(p, q) for p in range(matrix.n_pointers)
                 for q in range(0, matrix.n_pointers, 3)]
        assert service.is_alias_batch(pairs) == [
            matrix.is_alias(p, q) for p, q in pairs
        ]
        pointers = list(range(matrix.n_pointers)) * 2
        many = service.list_aliases_many(pointers)
        assert [sorted(row) for row in many] == [
            matrix.list_aliases(p) for p in pointers
        ]
        points = service.points_to_batch(pointers)
        assert [sorted(row) for row in points] == [
            matrix.list_points_to(p) for p in pointers
        ]
        objects = list(range(matrix.n_objects))
        pointed = service.pointed_by_batch(objects)
        assert [sorted(row) for row in pointed] == [
            matrix.list_pointed_by(obj) for obj in objects
        ]

    def test_cache_hits_on_repeats(self, service):
        assert service.is_alias(0, 1) == service.is_alias(1, 0)
        snapshot = service.stats()
        assert snapshot.cache_hits == 1  # symmetric pair normalised to one key
        assert snapshot.cache_misses == 1
        assert 0.0 < snapshot.cache_hit_rate < 1.0

    def test_cache_disabled(self, matrix):
        service = AliasService.from_index(index_from_bytes(encode(matrix)),
                                          cache_size=0)
        service.is_alias(0, 1)
        service.is_alias(0, 1)
        snapshot = service.stats()
        assert snapshot.cache_hits == 0
        assert snapshot.cache_misses == 2
        assert service.cache_size() == 0

    def test_stats_counters_and_reset(self, service):
        service.is_alias(0, 1)
        service.list_aliases(2)
        service.is_alias_batch([(0, 1), (2, 3)])
        snapshot = service.stats()
        assert snapshot.counts["is_alias"] == 3
        assert snapshot.batched["is_alias"] == 2
        assert snapshot.counts["list_aliases"] == 1
        assert snapshot.total_queries == 4
        assert set(snapshot.latency_p50) == set(QUERY_KINDS)
        assert snapshot.latency_p95["is_alias"] >= 0.0
        rendered = snapshot.render()
        assert "is_alias" in rendered and "hit rate" in rendered
        service.reset_stats()
        assert service.stats().total_queries == 0

    def test_packed_batch_matches_lists(self, matrix, service):
        for kind, many in (("list_aliases", service.list_aliases_many),
                           ("list_points_to", service.points_to_batch)):
            operands = list(range(matrix.n_pointers))
            packed = service.packed_batch(kind, operands)
            assert all(type(row) is bytes for row in packed)
            assert [unpack_ids(row) for row in packed] == many(operands)
        with pytest.raises(ValueError):
            service.packed_batch("is_alias", [0])

    def test_cached_answers_outlive_a_closed_lazy_index(self, matrix, tmp_path):
        # The cache owns its bytes: no view into the mapping survives in it,
        # so close() unmaps cleanly and cached answers stay readable.
        path = str(tmp_path / "m.pes")
        persist(matrix, path, version=4)
        service = AliasService.from_files([path], lazy=True)
        first = service.list_aliases_many([0, 1, 2])
        pointed = service.list_pointed_by(0)
        service.close()
        assert service.list_aliases_many([0, 1, 2]) == first
        assert service.list_pointed_by(0) == pointed

    def test_from_files_fronts_one_index(self, matrix, tmp_path):
        # A v2 file is served as a FlatIndex; a v3 file through its epoch
        # head, an OverlayIndex over one FlatIndex.
        for version, kind in ((2, FlatIndex), (3, OverlayIndex)):
            path = str(tmp_path / ("v%d.pes" % version))
            persist(matrix, path, version=version)
            service = AliasService.from_files([path])
            assert type(service.backend) is kind
            assert service.n_pointers == matrix.n_pointers
            assert service.n_objects == matrix.n_objects
            for p in range(0, matrix.n_pointers, 5):
                assert sorted(service.list_aliases(p)) == matrix.list_aliases(p)

    def test_out_of_range_operands_raise(self, matrix, service):
        with pytest.raises(IndexError):
            service.list_points_to(matrix.n_pointers)
        with pytest.raises(IndexError):
            service.list_aliases(matrix.n_pointers)
        with pytest.raises(IndexError):
            service.is_alias(0, matrix.n_pointers)
        with pytest.raises(IndexError):
            service.list_pointed_by(matrix.n_objects)

    def test_clear_cache(self, service):
        service.is_alias(0, 1)
        assert service.cache_size() == 1
        service.clear_cache()
        assert service.cache_size() == 0


class TestConcurrency:
    """The service must be safe to hammer from many threads."""

    THREADS = 6
    ROUNDS = 3

    def test_threads_agree_with_sequential_oracle(self):
        matrix = make_random_matrix(40, 12, density=0.18, seed=7)
        service = AliasService.from_index(index_from_bytes(encode(matrix)),
                                          cache_size=64)
        pair_oracle = {
            (p, q): matrix.is_alias(p, q)
            for p in range(matrix.n_pointers)
            for q in range(matrix.n_pointers)
        }
        alias_oracle = {p: matrix.list_aliases(p) for p in range(matrix.n_pointers)}
        points_oracle = {p: matrix.list_points_to(p) for p in range(matrix.n_pointers)}

        failures = []
        barrier = threading.Barrier(self.THREADS)

        def worker(slot):
            try:
                barrier.wait()
                for _ in range(self.ROUNDS):
                    for p in range(matrix.n_pointers):
                        q = (p * 7 + slot) % matrix.n_pointers
                        if service.is_alias(p, q) != pair_oracle[(p, q)]:
                            failures.append(("is_alias", p, q))
                        if sorted(service.list_aliases(p)) != alias_oracle[p]:
                            failures.append(("list_aliases", p))
                    pairs = [(p, (p + slot) % matrix.n_pointers)
                             for p in range(matrix.n_pointers)]
                    for (p, q), answer in zip(pairs, service.is_alias_batch(pairs)):
                        if answer != pair_oracle[(p, q)]:
                            failures.append(("is_alias_batch", p, q))
                    pointers = list(range(matrix.n_pointers))
                    for p, row in zip(pointers, service.points_to_batch(pointers)):
                        if sorted(row) != points_oracle[p]:
                            failures.append(("points_to_batch", p))
            except Exception as error:  # pragma: no cover - debugging aid
                failures.append(("exception", slot, repr(error)))

        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures, failures[:10]
        # Every issued query was counted, none lost to races.
        per_thread = self.ROUNDS * matrix.n_pointers * 4
        assert service.stats().total_queries == self.THREADS * per_thread


class TestApplyDelta:
    """Live updates through the service: hot swap + targeted invalidation."""

    @pytest.fixture
    def matrix(self):
        return make_random_matrix(30, 10, density=0.2, seed=13)

    def test_all_queries_track_the_delta(self, matrix):
        service = AliasService.from_index(index_from_bytes(encode(matrix)))
        for p in range(matrix.n_pointers):  # warm the cache with stale answers
            service.list_aliases(p)
            service.list_points_to(p)
        log = DeltaLog().insert(0, 9).insert(29, 9).delete(1, 1)
        service.apply_delta(log)
        edited = _apply_script(matrix, log)
        assert isinstance(service.backend, OverlayIndex)
        for p in range(matrix.n_pointers):
            assert sorted(service.list_points_to(p)) == edited.list_points_to(p)
            assert sorted(service.list_aliases(p)) == edited.list_aliases(p)
            for q in range(matrix.n_pointers):
                assert service.is_alias(p, q) == edited.is_alias(p, q)
        for obj in range(matrix.n_objects):
            assert sorted(service.list_pointed_by(obj)) == edited.list_pointed_by(obj)

    def test_batch_apis_see_post_delta_answers(self, matrix):
        service = AliasService.from_index(index_from_bytes(encode(matrix)))
        pairs = [(p, q) for p in range(30) for q in range(0, 30, 3)]
        pointers = list(range(30))
        service.is_alias_batch(pairs)  # warm
        service.points_to_batch(pointers)
        service.list_aliases_many(pointers)
        log = DeltaLog().insert(2, 0).delete(5, 2).insert(5, 9)
        service.apply_delta(log)
        edited = _apply_script(matrix, log)
        assert service.is_alias_batch(pairs) == [edited.is_alias(p, q) for p, q in pairs]
        assert [sorted(row) for row in service.points_to_batch(pointers)] == [
            edited.list_points_to(p) for p in pointers
        ]
        assert [sorted(row) for row in service.list_aliases_many(pointers)] == [
            edited.list_aliases(p) for p in pointers
        ]
        assert [sorted(row) for row in service.pointed_by_batch(list(range(10)))] == [
            edited.list_pointed_by(obj) for obj in range(10)
        ]

    def test_only_stale_entries_are_invalidated(self):
        # p0 -> {o0}, p1 -> {o1}, p2 -> {o2}, p3 -> {}; inserting (p3, o0)
        # dirties p3 and object o0, and alias-affects p0 (the only pointer
        # of o0) — p1/p2 answers are untouched and must stay cached.
        matrix = PointsToMatrix.from_pairs(4, 3, [(0, 0), (1, 1), (2, 2)])
        service = AliasService.from_index(index_from_bytes(encode(matrix)))
        service.is_alias(1, 2)
        service.is_alias(0, 3)
        service.list_aliases(0)
        service.list_aliases(1)
        service.list_points_to(3)
        service.list_points_to(2)
        service.list_pointed_by(0)
        service.list_pointed_by(1)
        invalidated = service.apply_delta(DeltaLog().insert(3, 0))
        assert invalidated == 4
        kept = set(service._cache._data)
        assert kept == {
            ("is_alias", (1, 2)),
            ("list_aliases", 1),
            ("list_points_to", 2),
            ("list_pointed_by", 1),
        }
        # The refreshed answers reflect the edit.
        assert service.is_alias(0, 3) is True
        assert sorted(service.list_aliases(0)) == [3]
        assert sorted(service.list_points_to(3)) == [0]
        assert sorted(service.list_pointed_by(0)) == [0, 3]

    def test_noop_delta_changes_nothing(self, matrix):
        service = AliasService.from_index(index_from_bytes(encode(matrix)))
        backend = service.backend
        service.is_alias(0, 1)
        assert service.apply_delta(DeltaLog()) == 0
        assert service.backend is backend
        assert service.cache_size() == 1

    def test_deltas_stack(self, matrix):
        service = AliasService.from_index(index_from_bytes(encode(matrix)))
        edited = matrix
        rng = random.Random(13)
        for _ in range(4):
            log = DeltaLog()
            for _ in range(3):
                pointer, obj = rng.randrange(30), rng.randrange(10)
                if rng.random() < 0.5:
                    log.insert(pointer, obj)
                else:
                    log.delete(pointer, obj)
            service.apply_delta(log)
            edited = _apply_script(edited, log)
        for p in range(30):
            assert sorted(service.list_points_to(p)) == edited.list_points_to(p)
            assert sorted(service.list_aliases(p)) == edited.list_aliases(p)

    def test_overlays_share_the_base_index(self, matrix):
        # The first delta wraps the FlatIndex in an overlay; later deltas
        # extend that overlay over the same base instead of nesting.
        index = index_from_bytes(encode(matrix))
        service = AliasService.from_index(index)
        service.apply_delta(DeltaLog().insert(0, 0))
        first = service.backend
        assert isinstance(first, OverlayIndex) and first.base is index
        service.apply_delta(DeltaLog().delete(1, 6))
        second = service.backend
        assert isinstance(second, OverlayIndex) and second.base is index
        assert second is not first
        assert second.net_delta() == ([(0, 0)], [(1, 6)])


class TestConcurrentUpdates:
    """Readers keep getting consistent answers while an updater applies deltas.

    Untouched pointers must answer exactly the base oracle at all times;
    touched pointers must answer according to *some* prefix of the applied
    delta sequence (a reader may race the swap, but never sees a torn or
    invented state); after the updater finishes, the service must agree
    with the final oracle everywhere.
    """

    READERS = 4
    UPDATES = 4

    def test_reader_updater_linearizability(self):
        matrix = make_random_matrix(30, 10, density=0.2, seed=17)
        service = AliasService.from_index(index_from_bytes(encode(matrix)),
                                          cache_size=128)
        touched = list(range(6))
        untouched = list(range(6, 30))
        rng = random.Random(17)
        logs = []
        states = [matrix]
        for _ in range(self.UPDATES):
            log = DeltaLog()
            for _ in range(5):
                pointer, obj = rng.choice(touched), rng.randrange(10)
                if rng.random() < 0.5:
                    log.insert(pointer, obj)
                else:
                    log.delete(pointer, obj)
            logs.append(log)
            states.append(_apply_script(states[-1], log))

        # Untouched rows never change, so these answers are state-invariant.
        base_points = {u: matrix.list_points_to(u) for u in untouched}
        base_pairs = {(u, v): matrix.is_alias(u, v)
                      for u in untouched for v in untouched}
        # Touched queries may legally answer per any prefix state.
        ok_points = {t: {tuple(state.list_points_to(t)) for state in states}
                     for t in touched}
        ok_pairs = {(t, q): {state.is_alias(t, q) for state in states}
                    for t in touched for q in range(30)}

        failures = []
        stop = threading.Event()

        def reader(slot):
            reader_rng = random.Random(100 + slot)
            try:
                while not stop.is_set():
                    u = reader_rng.choice(untouched)
                    v = reader_rng.choice(untouched)
                    if sorted(service.list_points_to(u)) != base_points[u]:
                        failures.append(("untouched points_to", u))
                    if service.is_alias(u, v) != base_pairs[(u, v)]:
                        failures.append(("untouched is_alias", u, v))
                    t = reader_rng.choice(touched)
                    q = reader_rng.randrange(30)
                    if tuple(sorted(service.list_points_to(t))) not in ok_points[t]:
                        failures.append(("touched points_to", t))
                    if service.is_alias(t, q) not in ok_pairs[(t, q)]:
                        failures.append(("touched is_alias", t, q))
            except Exception as error:  # pragma: no cover - debugging aid
                failures.append(("reader exception", slot, repr(error)))

        def updater():
            try:
                for log in logs:
                    time.sleep(0.01)
                    service.apply_delta(log)
            except Exception as error:  # pragma: no cover - debugging aid
                failures.append(("updater exception", repr(error)))
            finally:
                stop.set()

        threads = [threading.Thread(target=reader, args=(slot,))
                   for slot in range(self.READERS)]
        threads.append(threading.Thread(target=updater))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures, failures[:10]
        final = states[-1]
        for p in range(30):
            assert sorted(service.list_points_to(p)) == final.list_points_to(p)
            assert sorted(service.list_aliases(p)) == final.list_aliases(p)
            for q in range(30):
                assert service.is_alias(p, q) == final.is_alias(p, q)
        for obj in range(10):
            assert sorted(service.list_pointed_by(obj)) == final.list_pointed_by(obj)


class TestFromFilesResourceSafety:
    """A failed open must release every mapping it created."""

    def _persist(self, tmp_path, seed=41):
        matrix = make_random_matrix(24, 8, density=0.2, seed=seed)
        path = str(tmp_path / "served.pes")
        persist(matrix, path, version=4)
        return matrix, path

    def _open_gauge(self):
        from repro.obs import get_registry

        return get_registry().gauge("repro_store_open_containers")

    @pytest.mark.parametrize("damage", ["magic", "checksum"])
    def test_corrupt_file_leaks_nothing(self, tmp_path, damage):
        from repro.core.decoder import CorruptFileError

        _matrix, path = self._persist(tmp_path)
        with open(path, "r+b") as handle:
            if damage == "magic":
                handle.write(b"GARBAGE!")
            else:
                # A flipped byte mid-file: the file maps, then fails its
                # checksum, and the mapping must be released again.
                offset = handle.seek(0, 2) // 2
                handle.seek(offset)
                byte = handle.read(1)[0]
                handle.seek(offset)
                handle.write(bytes([byte ^ 0xFF]))
        gauge = self._open_gauge()
        before = gauge.value
        with pytest.raises(CorruptFileError):
            AliasService.from_files([path], lazy=True)
        assert gauge.value == before

    def test_service_constructor_failure_leaks_nothing(self, tmp_path):
        matrix, path = self._persist(tmp_path)
        gauge = self._open_gauge()
        before = gauge.value
        # LRUCache rejects negative capacities, so the backend is already
        # open when AliasService.__init__ raises and must be unwound.
        with pytest.raises(ValueError):
            AliasService.from_files([path], lazy=True, cache_size=-1)
        assert gauge.value == before
        # And the happy path still opens, answers, and closes the file.
        service = AliasService.from_files([path], lazy=True)
        assert gauge.value == before + 1
        assert service.is_alias(0, 1) == matrix.is_alias(0, 1)
        service.close()
        assert gauge.value == before

    def test_rejects_any_other_file_count(self, tmp_path):
        matrix, first = self._persist(tmp_path)
        second = str(tmp_path / "second.pes")
        persist(matrix, second, version=4)
        gauge = self._open_gauge()
        before = gauge.value
        for paths in ([first, second], []):
            with pytest.raises(ValueError, match="exactly one file"):
                AliasService.from_files(paths, lazy=True)
            assert gauge.value == before


class TestBatchReadersDuringUpdates:
    """The batch entry points under a concurrent ``apply_delta`` stream.

    Same legality rule as ``TestConcurrentUpdates`` — every answer in a
    batch must come from some prefix state, untouched rows are invariant —
    but exercised through ``is_alias_batch``/``points_to_batch``, whose
    epoch-before-backend snapshot is the invariant under audit.
    """

    READERS = 3
    UPDATES = 6

    def test_batch_readers_vs_apply_delta(self):
        matrix = make_random_matrix(30, 10, density=0.2, seed=19)
        service = AliasService.from_index(index_from_bytes(encode(matrix)),
                                          cache_size=128)
        touched = list(range(6))
        untouched = list(range(6, 30))
        rng = random.Random(19)
        logs, states = [], [matrix]
        for _ in range(self.UPDATES):
            log = DeltaLog()
            for _ in range(5):
                pointer, obj = rng.choice(touched), rng.randrange(10)
                if rng.random() < 0.5:
                    log.insert(pointer, obj)
                else:
                    log.delete(pointer, obj)
            logs.append(log)
            states.append(_apply_script(states[-1], log))

        base_points = {u: matrix.list_points_to(u) for u in untouched}
        base_pairs = {(u, v): matrix.is_alias(u, v)
                      for u in untouched for v in untouched}
        ok_points = {t: {tuple(state.list_points_to(t)) for state in states}
                     for t in touched}
        ok_pairs = {(t, q): {state.is_alias(t, q) for state in states}
                    for t in touched for q in range(30)}

        failures = []
        stop = threading.Event()

        def reader(slot):
            reader_rng = random.Random(200 + slot)
            try:
                while not stop.is_set():
                    sample_u = reader_rng.sample(untouched, 6)
                    mixed = ([(u, reader_rng.choice(untouched))
                              for u in sample_u[:3]]
                             + [(reader_rng.choice(touched),
                                 reader_rng.randrange(30)) for _ in range(3)])
                    answers = service.is_alias_batch(mixed)
                    for (p, q), answer in zip(mixed, answers):
                        legal = (base_pairs[(p, q)] == answer
                                 if p in base_points
                                 else answer in ok_pairs[(p, q)])
                        if not legal:
                            failures.append(("is_alias_batch", p, q, answer))
                    targets = sample_u[:3] + [reader_rng.choice(touched)]
                    rows = service.points_to_batch(targets)
                    for p, row in zip(targets, rows):
                        if p in base_points:
                            if sorted(row) != base_points[p]:
                                failures.append(("untouched batch row", p))
                        elif tuple(sorted(row)) not in ok_points[p]:
                            failures.append(("touched batch row", p, row))
            except Exception as error:  # pragma: no cover - debugging aid
                failures.append(("reader exception", slot, repr(error)))

        def updater():
            try:
                for log in logs:
                    time.sleep(0.01)
                    service.apply_delta(log)
            except Exception as error:  # pragma: no cover - debugging aid
                failures.append(("updater exception", repr(error)))
            finally:
                stop.set()

        threads = [threading.Thread(target=reader, args=(slot,))
                   for slot in range(self.READERS)]
        threads.append(threading.Thread(target=updater))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures, failures[:10]
        final = states[-1]
        pairs = [(p, q) for p in range(30) for q in range(30)]
        assert service.is_alias_batch(pairs) == [
            final.is_alias(p, q) for p, q in pairs
        ]
        rows = service.points_to_batch(list(range(30)))
        assert [sorted(row) for row in rows] == [
            final.list_points_to(p) for p in range(30)
        ]


class TestPinnedSnapshotsDuringUpdates:
    """MVCC stress: pinned ``as_of`` handles stay exact while the head races.

    Unlike the prefix-legality rule above, a *pinned* snapshot has a
    stronger contract: every answer must match its epoch's state exactly —
    no drift, no torn reads — no matter how many deltas land, and even
    after the epoch itself is pruned from the service's history.
    """

    READERS = 4

    def _chain(self, seed, n_pointers=24, n_objects=8, updates=6):
        matrix = make_random_matrix(n_pointers, n_objects, density=0.25,
                                    seed=seed)
        rng = random.Random(seed)
        logs, states = [], [matrix]
        while len(logs) < updates:
            log = DeltaLog()
            for _ in range(5):
                pointer, obj = rng.randrange(n_pointers), rng.randrange(n_objects)
                if rng.random() < 0.5:
                    log.insert(pointer, obj)
                else:
                    log.delete(pointer, obj)
            inserts, deletes = log.net()
            if not inserts and not deletes:
                continue
            logs.append(log)
            states.append(_apply_script(states[-1], log))
        return matrix, logs, states

    def _race(self, pins, states, writer, n_pointers, n_objects):
        failures = []
        stop = threading.Event()

        def reader(slot):
            reader_rng = random.Random(300 + slot)
            versions = sorted(pins)
            try:
                while not stop.is_set():
                    version = reader_rng.choice(versions)
                    snap, state = pins[version], states[version]
                    p = reader_rng.randrange(n_pointers)
                    q = reader_rng.randrange(n_pointers)
                    if sorted(snap.list_points_to(p)) != state.list_points_to(p):
                        failures.append(("points_to", version, p))
                    if snap.is_alias(p, q) != state.is_alias(p, q):
                        failures.append(("is_alias", version, p, q))
                    obj = reader_rng.randrange(n_objects)
                    if sorted(snap.list_pointed_by(obj)) != state.list_pointed_by(obj):
                        failures.append(("pointed_by", version, obj))
                    pairs = [(reader_rng.randrange(n_pointers),
                              reader_rng.randrange(n_pointers))
                             for _ in range(4)]
                    if snap.is_alias_batch(pairs) != [state.is_alias(p, q)
                                                     for p, q in pairs]:
                        failures.append(("is_alias_batch", version))
            except Exception as error:  # pragma: no cover - debugging aid
                failures.append(("reader exception", slot, repr(error)))

        def updater():
            try:
                writer()
            except Exception as error:  # pragma: no cover - debugging aid
                failures.append(("updater exception", repr(error)))
            finally:
                stop.set()

        threads = [threading.Thread(target=reader, args=(slot,))
                   for slot in range(self.READERS)]
        threads.append(threading.Thread(target=updater))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return failures

    def test_pinned_readers_vs_updater_and_prune(self):
        from repro.delta import VersionUnavailableError

        matrix, logs, states = self._chain(seed=23)
        service = AliasService.from_index(index_from_bytes(encode(matrix)),
                                          cache_size=64)
        for log in logs[:3]:  # history to pin before the race starts
            service.apply_delta(log)
        assert service.versions() == [0, 1, 2, 3]
        pins = {version: service.as_of(version) for version in range(4)}

        def writer():
            for log in logs[3:]:
                time.sleep(0.01)
                service.apply_delta(log)
            service.prune_versions(3)

        failures = self._race(pins, states, writer, 24, 8)
        assert not failures, failures[:10]

        assert service.version == len(logs)
        assert service.version_floor == 3
        final = states[-1]
        for p in range(24):
            assert sorted(service.list_points_to(p)) == final.list_points_to(p)
        for version in (0, 1, 2):
            with pytest.raises(VersionUnavailableError):
                service.as_of(version)
        # Handles pinned before the prune keep answering their exact epoch.
        for version, snap in pins.items():
            for p in range(24):
                assert sorted(snap.list_points_to(p)) == \
                    states[version].list_points_to(p)

    def test_pinned_file_epochs_survive_on_disk_compaction(self, tmp_path):
        from repro.core.pipeline import persist
        from repro.delta import append_delta, compact_file, load_versions

        matrix, logs, states = self._chain(seed=29, updates=3)
        path = str(tmp_path / "service.pestrie")
        persist(matrix, path)
        for log in logs:
            append_delta(path, log)
        service = AliasService.from_files([path], cache_size=64)
        try:
            assert service.versions() == [0, 1, 2, 3]
            pins = {version: service.as_of(version) for version in range(4)}

            def writer():
                time.sleep(0.01)
                # Rewrites the file on disk; the service's mapping (and
                # every pinned handle) must keep serving the old image.
                compact_file(path)

            failures = self._race(pins, states, writer, 24, 8)
            assert not failures, failures[:10]
            for version, snap in pins.items():
                for p in range(24):
                    assert sorted(snap.list_points_to(p)) == \
                        states[version].list_points_to(p)
        finally:
            service.close()
        # A fresh open sees the folded history behind the watermark.
        versioned = load_versions(path)
        try:
            assert versioned.floor == versioned.head == 3
        finally:
            versioned.close()
