"""Pack page reads: accessor parity, close semantics, corrupt descents, fuzz.

* **accessor differential** — for every node, edge and facility,
  :class:`PackedNetworkStorage` returns what :class:`NetworkStorage` over
  the :class:`SimulatedDisk` returns at the same buffer capacity, with
  equal :class:`AccessStatistics` after every call;
* **close** — a pack closes while its pages sit in a buffer pool, and
  touching those pages afterwards raises :class:`StorageError`;
* **corrupt descent** — a B+-tree child pointer aimed at a page of another
  kind, or back at the root, fails typed instead of crashing or looping;
* **page-slot fuzz** — after random byte damage in the page region, every
  page read and accessor call returns a value or raises a typed
  :class:`ReproError`;
* **concurrent readers** — threads sharing one pack through snapshot views
  read what a single reader reads.
"""

from __future__ import annotations

import contextlib
import signal
import struct
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datagen import WorkloadSpec, make_workload
from repro.errors import PackFormatError, ReproError, StorageError
from repro.storage import NetworkStorage, open_dataset, pack_network_storage
from repro.storage.btree import _LeafRecord
from repro.storage.pages import PageKind
from repro.storage.persist import HEADER_SIZE
from tests.strategies import apply_mutations, id_list_length_offsets, page_slot_mutations

SPEC = WorkloadSpec(
    num_nodes=140, num_facilities=40, num_cost_types=2, num_queries=1, seed=33
)
PAGE_SIZE = 512
BUFFER_FRACTION = 0.05


@contextlib.contextmanager
def watchdog(seconds: int):
    """Fail, instead of hanging the suite, when the body runs too long."""

    def expire(signum, frame):
        raise AssertionError(f"no result within {seconds} s (hang)")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def workload():
    return make_workload(SPEC)


@pytest.fixture(scope="module")
def pack_path(workload, tmp_path_factory):
    storage = NetworkStorage.build(
        workload.graph, workload.facilities, page_size=PAGE_SIZE, buffer_fraction=BUFFER_FRACTION
    )
    path = tmp_path_factory.mktemp("pages") / "pages.mcnpack"
    pack_network_storage(storage, str(path))
    return path


def _fresh_pair(workload, dataset):
    simulated = NetworkStorage.build(
        workload.graph, workload.facilities, page_size=PAGE_SIZE, buffer_fraction=BUFFER_FRACTION
    )
    packed = dataset.storage(buffer_capacity=simulated.buffer.capacity)
    return simulated, packed


class TestAccessorDifferential:
    def test_every_request_matches_the_simulated_disk(self, workload, pack_path):
        with open_dataset(str(pack_path)) as dataset:
            simulated, packed = _fresh_pair(workload, dataset)
            requests = (
                [("adjacency", node) for node in sorted(workload.graph.node_ids())]
                + [("edge_facilities", edge.edge_id) for edge in workload.graph.edges()]
                + [("facility_edge", facility.facility_id) for facility in workload.facilities]
            )
            # A second, reversed pass replays every request against a warm
            # buffer, so hits are compared as well as misses.
            for method, key in requests + requests[::-1]:
                want = getattr(simulated, method)(key)
                got = getattr(packed, method)(key)
                assert got == want, (method, key)
                assert packed.statistics == simulated.statistics, (method, key)
            assert packed.statistics.buffer_hits > 0

    def test_unknown_keys_fail_alike(self, workload, pack_path):
        with open_dataset(str(pack_path)) as dataset:
            simulated, packed = _fresh_pair(workload, dataset)
            for storage in (simulated, packed):
                with pytest.raises(StorageError, match="not present in the adjacency tree"):
                    storage.adjacency(10**9)
                with pytest.raises(StorageError, match="not present in the facility tree"):
                    storage.facility_edge(10**9)
                assert storage.edge_facilities(10**9) == []
            assert packed.statistics == simulated.statistics


class TestCloseWithBufferedPages:
    def test_close_succeeds_and_buffered_pages_fail_typed(self, workload, pack_path):
        dataset = open_dataset(str(pack_path))
        packed = dataset.storage(buffer_capacity=10**6)
        node = min(workload.graph.node_ids())
        edge = next(
            e.edge_id for e in workload.graph.edges() if workload.facilities.on_edge(e.edge_id)
        )
        facility = next(iter(workload.facilities)).facility_id
        assert packed.adjacency(node)
        assert packed.edge_facilities(edge)
        packed.facility_edge(facility)
        adjacency_page = next(
            page
            for page in (packed.buffer.read(pid) for pid in packed.adjacency_page_plan(node))
            if page.kind is PageKind.ADJACENCY
        )
        leaf = next(
            page.records[0]
            for page in (packed.buffer.read(pid) for pid in packed.adjacency_page_plan(node))
            if isinstance(page.records[0], _LeafRecord)
        )

        dataset.close()  # no BufferError: no page holds an export of the map

        with pytest.raises(StorageError, match="closed"):
            list(adjacency_page.records)
        with pytest.raises(StorageError, match="closed"):
            leaf.values[0]
        with pytest.raises(StorageError, match="closed"):
            packed.adjacency(node)
        with pytest.raises(StorageError, match="closed"):
            packed.edge_facilities(edge)
        with pytest.raises(StorageError, match="closed"):
            packed.facility_edge(facility)


def _root_first_child_offset(data: bytes, root: int, slot_size: int) -> int:
    """Byte offset of the first child pointer of the internal record at ``root``."""
    slot = HEADER_SIZE + root * slot_size
    assert data[slot + 8] == 1, "root must be an internal record"
    (separators,) = struct.unpack_from("<I", data, slot + 9)
    return slot + 9 + 4 + 8 * separators + 4


class TestCorruptDescent:
    def _corrupt_root(self, pack_path, tmp_path, target):
        with open_dataset(str(pack_path)) as dataset:
            catalog = dataset.catalog
            kinds = [dataset.disk.peek(pid).kind for pid in range(catalog.num_pages)]
        root = catalog.adjacency_tree.root_page_id
        assert catalog.adjacency_tree.height >= 2
        data = bytearray(pack_path.read_bytes())
        offset = _root_first_child_offset(data, root, catalog.slot_size)
        child = kinds.index(PageKind.ADJACENCY) if target == "adjacency" else root
        struct.pack_into("<q", data, offset, child)
        out = tmp_path / f"descent-{target}.mcnpack"
        out.write_bytes(bytes(data))
        return open_dataset(str(out), verify_checksum=False)

    def test_child_pointing_at_an_adjacency_page(self, pack_path, tmp_path, workload):
        with self._corrupt_root(pack_path, tmp_path, "adjacency") as dataset, watchdog(10):
            storage = dataset.storage(buffer_fraction=BUFFER_FRACTION)
            with pytest.raises(PackFormatError, match="not a page of the adjacency-index tree"):
                storage.adjacency(min(workload.graph.node_ids()))

    def test_child_pointing_back_at_the_root(self, pack_path, tmp_path, workload):
        with self._corrupt_root(pack_path, tmp_path, "root") as dataset, watchdog(10):
            storage = dataset.storage(buffer_fraction=BUFFER_FRACTION)
            with pytest.raises(PackFormatError, match="tree height"):
                storage.adjacency(min(workload.graph.node_ids()))
            with pytest.raises(PackFormatError, match="tree height"):
                storage.adjacency_page_plan(min(workload.graph.node_ids()))


@pytest.fixture(scope="module")
def fuzz_target(pack_path, workload, tmp_path_factory):
    with open_dataset(str(pack_path)) as dataset:
        catalog = dataset.catalog
    data = pack_path.read_bytes()
    geometry = {
        "region_start": HEADER_SIZE,
        "slot_size": catalog.slot_size,
        "num_pages": catalog.num_pages,
    }
    return {
        "data": data,
        "path": tmp_path_factory.mktemp("fuzz") / "mutated.mcnpack",
        "geometry": geometry,
        "length_offsets": id_list_length_offsets(
            data, num_cost_types=catalog.num_cost_types, **geometry
        ),
        "nodes": sorted(workload.graph.node_ids()),
        "edges": sorted(edge.edge_id for edge in workload.graph.edges()),
        "facilities": sorted(facility.facility_id for facility in workload.facilities),
    }


def _typed(call) -> None:
    """Run ``call``; a typed library error is an acceptable outcome."""
    try:
        call()
    except ReproError:
        pass


def _touch_page(page) -> None:
    for record in page.records:
        if isinstance(record, _LeafRecord):
            list(record.values)


class TestPageSlotFuzz:
    def test_length_offsets_walk_the_intact_pack(self, fuzz_target):
        # The reference walk must land on real list lengths: every one it
        # reports fits its slot.
        data, geometry = fuzz_target["data"], fuzz_target["geometry"]
        offsets = fuzz_target["length_offsets"]
        assert len(offsets) > geometry["num_pages"]
        for offset in offsets:
            slot_end = offset - (offset - HEADER_SIZE) % geometry["slot_size"] + geometry["slot_size"]
            (length,) = struct.unpack_from("<I", data, offset)
            assert offset + 4 + 8 * length <= slot_end

    def test_a_last_list_one_past_its_slot_is_rejected(self, fuzz_target, tmp_path):
        # The last id list of a slot is the one no later record's framing
        # would trip over: lengthen it by a single id past the slot end, in
        # every slot at once, and every such page must refuse to decode.
        data, geometry = bytearray(fuzz_target["data"]), fuzz_target["geometry"]
        slot_size = geometry["slot_size"]
        last = {}
        for offset in fuzz_target["length_offsets"]:
            last[(offset - HEADER_SIZE) // slot_size] = offset
        for page, offset in last.items():
            slot_end = HEADER_SIZE + (page + 1) * slot_size
            struct.pack_into("<I", data, offset, (slot_end - offset - 4) // 8 + 1)
        path = tmp_path / "overrun.mcnpack"
        path.write_bytes(bytes(data))
        with open_dataset(str(path), verify_checksum=False) as dataset:
            for page in last:
                with pytest.raises(PackFormatError, match="id list longer than its page slot"):
                    dataset.disk.peek(page)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=st.data())
    def test_damaged_slots_fail_typed_or_answer(self, fuzz_target, data):
        target = fuzz_target
        mutations = data.draw(
            page_slot_mutations(length_offsets=target["length_offsets"], **target["geometry"])
        )
        damaged = bytearray(target["data"])
        apply_mutations(damaged, mutations)
        target["path"].write_bytes(bytes(damaged))
        with open_dataset(str(target["path"]), verify_checksum=False) as dataset, watchdog(20):
            disk = dataset.disk
            for page_id in range(disk.num_pages):
                _typed(lambda: _touch_page(disk.peek(page_id)))
                _typed(lambda: _touch_page(disk.read(page_id)))
            storage = dataset.storage(buffer_fraction=BUFFER_FRACTION)
            for node in target["nodes"]:
                _typed(lambda: storage.adjacency(node))
            for edge in target["edges"]:
                _typed(lambda: storage.edge_facilities(edge))
            for facility in target["facilities"]:
                _typed(lambda: storage.facility_edge(facility))


class TestConcurrentReaders:
    def test_threads_sharing_one_pack_read_what_one_reader_reads(self, workload, pack_path):
        # Shard workers share one FileDisk through private-buffer snapshot
        # views: more threads than cores, a short switch interval, and every
        # thread must see the sequential answers while the disk's counted
        # reads equal the views' misses (no lost update).
        nodes = sorted(workload.graph.node_ids())
        facilities = sorted(f.facility_id for f in workload.facilities)
        with open_dataset(str(pack_path)) as dataset:
            base = dataset.storage(buffer_capacity=4)
            want = ([base.adjacency(n) for n in nodes], [base.facility_edge(f) for f in facilities])
            dataset.disk.statistics.reset()
            views = [base.snapshot_view() for _ in range(6)]
            results: dict[int, tuple] = {}

            def work(index: int) -> None:
                view = views[index]
                results[index] = (
                    [view.adjacency(n) for n in nodes],
                    [view.facility_edge(f) for f in facilities],
                )

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=work, args=(i,)) for i in range(len(views))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert all(results[index] == want for index in range(len(views)))
            misses = sum(view.statistics.page_reads for view in views)
            assert dataset.disk.statistics.page_reads == misses
