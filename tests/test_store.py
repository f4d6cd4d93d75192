"""The unified storage layer: containers, lazy materialisation, lifetime.

Covers the ``repro.store`` contract across all three format versions:

* opening is cheap — header introspection parses no sections;
* lazily materialised answers are identical to the eager decode;
* closing a container invalidates outstanding lazy indexes *cleanly*:
  structures materialised before the close keep answering (they are plain
  Python lists), unmaterialised ones raise ``ContainerClosedError``, and a
  close while a caller still holds a zero-copy view fails with
  ``BufferError`` instead of leaving a dangling view over released memory.
"""

import pytest

from repro.core.decoder import CorruptFileError, decode_bytes
from repro.core.pipeline import encode, index_from_bytes, load_index
from repro.delta import DeltaLog, append_delta, load_overlay
from repro.serve import AliasService
from repro.store import (
    SECTION_NAMES,
    Container,
    ContainerClosedError,
    MappedBlob,
    open_blob,
    open_container,
    open_index,
)

from conftest import make_random_matrix

VERSIONS = (1, 2, 3)
#: Container-level behaviour is uniform across every version, including the
#: flat PESTRIE4 layout; index-lifetime tests that rely on materialised
#: structures outliving the mapping stay on VERSIONS (the zero-copy flat
#: engine deliberately has nothing left after a close — see test_flat.py).
ALL_VERSIONS = (1, 2, 3, 4)


def _encode_for(matrix, version, order="hub"):
    return encode(matrix, order=order, compact=version == 2, version=version)


def _write(tmp_path, name, data):
    path = str(tmp_path / name)
    with open(path, "wb") as stream:
        stream.write(data)
    return path


@pytest.fixture
def matrix():
    return make_random_matrix(18, 7, 0.3, seed=99)


class TestContainerOpen:
    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_header_without_materialization(self, matrix, version):
        data = _encode_for(matrix, version)
        with Container.from_bytes(data) as container:
            assert container.version == version
            assert container.n_pointers == matrix.n_pointers
            assert container.n_objects == matrix.n_objects
            assert container.n_groups > 0
            assert len(container.shape_counts) == 8
            assert container.size == len(data)
            assert not container.has_tail
            # Opening parsed the skeleton only: no section materialised yet.
            assert container.sections_materialized == 0

    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_payload_matches_eager_decode(self, matrix, version):
        data = _encode_for(matrix, version)
        eager = decode_bytes(data)
        with Container.from_bytes(data) as container:
            lazy = container.payload()
        assert lazy == eager
        # Every section was forced.
        assert len(SECTION_NAMES) == 10

    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_mmap_open_matches_in_memory(self, matrix, version, tmp_path):
        data = _encode_for(matrix, version)
        path = _write(tmp_path, "image.pst", data)
        with open_container(path) as container:
            assert bytes(container.buffer) == data
            assert container.payload() == decode_bytes(data)

    def test_direct_construction_is_rejected(self):
        with pytest.raises(TypeError, match="Container.open"):
            Container()

    def test_rejects_empty_and_garbage(self, tmp_path):
        with pytest.raises(CorruptFileError):
            Container.from_bytes(b"")
        with pytest.raises(CorruptFileError):
            Container.from_bytes(b"NOTAPES!" + bytes(64))
        path = _write(tmp_path, "empty.pst", b"")
        with pytest.raises(CorruptFileError):
            Container.open(path)

    def test_no_tail_mode_rejects_delta_tail(self, matrix, tmp_path):
        path = _write(tmp_path, "tailed.pst", _encode_for(matrix, 3))
        log = DeltaLog()
        log.insert(0, 0)
        append_delta(path, log)
        with pytest.raises(CorruptFileError, match="DELTA"):
            Container.open(path, allow_tail=False)
        with pytest.raises(CorruptFileError, match="DELTA"):
            open_index(path)
        with open_container(path) as container:
            assert container.has_tail
            assert len(container.tail_records()) == 1


class TestLazySections:
    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_sections_materialize_on_demand(self, matrix, version):
        data = _encode_for(matrix, version)
        with Container.from_bytes(data) as container:
            container.timestamps()
            # Timestamps touch exactly the two timestamp sections (v2's
            # sequential boundary discovery cannot skip ahead, but sections
            # 0 and 1 come first on disk in every version).
            assert container.sections_materialized == 2
            container.rects()
            assert container.sections_materialized == 10

    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_section_values_are_cached(self, matrix, version):
        data = _encode_for(matrix, version)
        with Container.from_bytes(data) as container:
            first = container.section_values(0)
            assert container.section_values(0) is first
            with pytest.raises(IndexError):
                container.section_values(10)

    def test_section_view_is_zero_copy_for_fixed_layouts(self, matrix):
        for version in (1, 3, 4):
            data = _encode_for(matrix, version)
            with Container.from_bytes(data) as container:
                view = container.section_view(0)
                assert len(view) == 4 * matrix.n_pointers
                view.release()

    def test_section_view_rejected_for_varint_layout(self, matrix):
        data = _encode_for(matrix, 2)
        with Container.from_bytes(data) as container:
            with pytest.raises(ValueError, match="PESTRIE2"):
                container.section_view(0)


class TestContainerLifetime:
    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_close_invalidates_unmaterialized_reads(self, matrix, version, tmp_path):
        path = _write(tmp_path, "image.pst", _encode_for(matrix, version))
        container = open_container(path)
        container.close()
        assert container.closed
        container.close()  # idempotent
        for access in (lambda: container.section_values(0),
                       container.timestamps, container.rects,
                       container.payload, container.tail_records,
                       lambda: container.buffer):
            with pytest.raises(ContainerClosedError):
                access()

    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_close_refuses_while_view_is_exported(self, matrix, version, tmp_path):
        path = _write(tmp_path, "image.pst", _encode_for(matrix, version))
        container = open_container(path)
        view = container.buffer
        with pytest.raises(BufferError):
            container.close()
        # The refused close left the container fully usable.
        assert not container.closed
        assert container.section_values(0) == container.section_values(0)
        view.release()
        container.close()
        assert container.closed

    @pytest.mark.parametrize("version", VERSIONS)
    def test_lazy_index_materialized_before_close_fails_cleanly(
            self, matrix, version, tmp_path):
        data = _encode_for(matrix, version)
        path = _write(tmp_path, "image.pst", data)
        eager = index_from_bytes(data)
        lazy = load_index(path, lazy=True)
        for p in range(matrix.n_pointers):
            for q in range(matrix.n_pointers):
                assert lazy.is_alias(p, q) == eager.is_alias(p, q)
        assert lazy.materialize() == matrix
        lazy.close()
        # Every column was built before the close, yet a closed index
        # refuses cleanly rather than answering from released columns.
        with pytest.raises(ContainerClosedError):
            lazy.is_alias(0, 1)
        with pytest.raises(ContainerClosedError):
            lazy.materialize()

    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_lazy_index_unmaterialized_after_close_fails_cleanly(
            self, matrix, version, tmp_path):
        path = _write(tmp_path, "image.pst", _encode_for(matrix, version))
        lazy = load_index(path, lazy=True)
        lazy.close()
        with pytest.raises(ContainerClosedError):
            lazy.is_alias(0, 1)

    def test_lazy_index_close_is_idempotent_and_eager_close_is_noop(self, matrix):
        data = _encode_for(matrix, 3)
        eager = index_from_bytes(data)
        eager.close()  # no container behind it — must be a clean no-op
        assert eager.materialize() == matrix
        lazy = index_from_bytes(data, lazy=True)
        lazy.close()
        lazy.close()


class TestLazyQueryParity:
    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_all_queries_match_eager(self, matrix, version, tmp_path):
        data = _encode_for(matrix, version)
        path = _write(tmp_path, "image.pst", data)
        eager = index_from_bytes(data)
        lazy = load_index(path, lazy=True)
        try:
            for p in range(matrix.n_pointers):
                assert lazy.list_points_to(p) == eager.list_points_to(p)
                assert lazy.list_aliases(p) == eager.list_aliases(p)
                for q in range(matrix.n_pointers):
                    assert lazy.is_alias(p, q) == eager.is_alias(p, q)
            for obj in range(matrix.n_objects):
                assert lazy.list_pointed_by(obj) == eager.list_pointed_by(obj)
        finally:
            lazy.close()

    def test_index_from_bytes_lazy(self, matrix):
        data = _encode_for(matrix, 3)
        lazy = index_from_bytes(data, lazy=True)
        assert lazy.materialize() == index_from_bytes(data).materialize()
        lazy.close()


class TestLazyOverlayLifetime:
    def test_lazy_overlay_matches_eager_and_closes(self, matrix, tmp_path):
        path = _write(tmp_path, "tailed.pst", encode(matrix, version=3))
        log = DeltaLog()
        log.insert(0, matrix.n_objects - 1)
        log.delete(1, 0)
        append_delta(path, log)
        eager = load_overlay(path)
        lazy = load_overlay(path, lazy=True)
        assert lazy.materialize() == eager.materialize()
        lazy.close()
        eager.close()  # eager overlay has no live mapping — clean no-op
        assert eager.materialize() == eager.materialize()


class TestServiceLifetime:
    """``AliasService.from_files`` over a mapped file: v1/v2 open through
    ``load_index``, v3/v4 through the versioned loader."""

    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_lazy_service_matches_eager(self, matrix, version, tmp_path):
        path = _write(tmp_path, "image.pst", _encode_for(matrix, version))
        eager = AliasService.from_files([path])
        lazy = AliasService.from_files([path], lazy=True)
        try:
            for p in range(matrix.n_pointers):
                assert lazy.list_points_to(p) == eager.list_points_to(p)
                assert lazy.list_aliases(p) == eager.list_aliases(p)
                for q in range(matrix.n_pointers):
                    assert lazy.is_alias(p, q) == eager.is_alias(p, q)
            for obj in range(matrix.n_objects):
                assert lazy.list_pointed_by(obj) == eager.list_pointed_by(obj)
        finally:
            lazy.close()

    def test_close_invalidates_an_unqueried_lazy_service(self, matrix, tmp_path):
        path = _write(tmp_path, "image.pst", _encode_for(matrix, 3))
        service = AliasService.from_files([path], lazy=True)
        service.close()
        with pytest.raises(ContainerClosedError):
            service.is_alias(0, 1)
        service.close()  # idempotent

    def test_close_on_an_eager_service_is_noop(self, matrix, tmp_path):
        path = _write(tmp_path, "image.pst", _encode_for(matrix, 3))
        service = AliasService.from_files([path])
        service.close()
        assert service.is_alias(0, 1) == matrix.is_alias(0, 1)


class TestMappedBlob:
    def test_round_trip_and_lifetime(self, tmp_path):
        payload = bytes(range(256)) * 3
        path = _write(tmp_path, "blob.bin", payload)
        blob = open_blob(path)
        view = blob.buffer
        assert bytes(view) == payload
        with pytest.raises(BufferError):
            blob.close()
        view.release()
        blob.close()
        blob.close()  # idempotent
        with pytest.raises(ContainerClosedError):
            blob.buffer

    def test_empty_blob(self, tmp_path):
        path = _write(tmp_path, "empty.bin", b"")
        with MappedBlob(path) as blob:
            assert bytes(blob.buffer) == b""
            assert blob.size == 0


class TestFlatIndexLifetime:
    """Satellite of the daemon work: close() racing live memoryview casts.

    A ``BufferError`` from the container (someone still holds an exported
    view) must not leave the pair half-closed: queries fail cleanly, the
    container stays fully intact, and a retried ``close()`` succeeds once
    the last view is released.
    """

    def _flat_index(self, tmp_path):
        from repro.core.flat import FlatIndex

        matrix = make_random_matrix(20, 8, density=0.25, seed=13)
        path = _write(tmp_path, "flat.pes", encode(matrix, version=4))
        container = open_container(path, allow_tail=False)
        return matrix, container, FlatIndex(container)

    def test_close_with_exported_view_is_retryable(self, tmp_path):
        matrix, container, index = self._flat_index(tmp_path)
        assert index.is_alias(0, 1) == matrix.is_alias(0, 1)  # materialise casts
        held = container.buffer
        with pytest.raises(BufferError):
            index.close()
        # The index is closed for queries from here on...
        with pytest.raises(ContainerClosedError):
            index.is_alias(0, 1)
        with pytest.raises(ContainerClosedError):
            index.list_points_to(0)
        # ...but the container is NOT half-closed: still open, still readable.
        assert not container.closed
        assert bytes(held[:8])  # the held view still reads mapped bytes
        with pytest.raises(BufferError):
            index.close()  # retry before release still refuses, cleanly
        held.release()
        index.close()  # now the unmap goes through
        assert container.closed
        index.close()  # idempotent after success

    def test_clean_close_releases_own_casts(self, tmp_path):
        matrix, container, index = self._flat_index(tmp_path)
        for p in range(20):
            assert sorted(index.list_points_to(p)) == matrix.list_points_to(p)
        index.close()  # no foreign views: our casts must not block the unmap
        assert container.closed
        with pytest.raises(ContainerClosedError):
            index.list_aliases(0)
