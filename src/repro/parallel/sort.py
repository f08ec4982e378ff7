"""Range-partitioned parallel external sort.

The driver behind :meth:`repro.sort.external.ExternalSorter.sort_parallel`:

1. **Partition** (coordinator): one scan of the source routes every tuple
   into its ``b(v)`` slice's scratch file — this write pass is the
   partitioning overhead the parallel cost model charges.
2. **Sort** (workers): each slice is sorted independently by a plain
   :class:`~repro.sort.external.ExternalSorter` on its own pool thread,
   charging into its own :class:`~repro.storage.stats.OperationStats`
   ledger and guarded by a :class:`~repro.parallel.executor.LinkedCancelToken`
   so one failing slice cancels its siblings.
3. **Splice** (coordinator): the sorted slices are concatenated with
   :meth:`~repro.storage.disk.SimulatedDisk.splice` — *no merge pass*.
   Slices are order-disjoint on ``b``, and within a slice the sort
   already ordered ties on ``e``, so the concatenation is exactly the
   ``(b, e)``-lexicographic order Definition 3.1 asks for.

Note the asymmetry with the partitioned *join*: a standalone sort needs
no replication because every tuple belongs to exactly one slice.  The
``Rng(r)`` overlap band only matters when a second relation is probed
against the slices — see :mod:`repro.parallel.join`.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from ..resilience import CancelToken, QueryGuard
from ..sort.runs import RunWriter
from ..storage.disk import SimulatedDisk
from ..storage.heap import HeapFile
from ..storage.stats import OperationStats
from .executor import gather_partitions
from .partitioner import RangePartitioner

#: Stats phase charged for the coordinator's partitioning write pass.
PARTITION_PHASE = "partition"

_partition_counter = itertools.count(1)


def partition_heap(
    disk: SimulatedDisk,
    source: HeapFile,
    attribute: str,
    partitioner: RangePartitioner,
    stats: OperationStats,
) -> List[HeapFile]:
    """Route ``source`` into one scratch heap per ``b(v)`` slice.

    One charged read pass over the source plus the writes of the slice
    files, all under the ``partition`` phase.  Returns the slice heaps in
    partition order (empty slices included, as zero-page heaps).
    """
    key_index = source.schema.index_of(attribute)
    tag = next(_partition_counter)
    names = [
        f"__part_{source.name}_{tag}_{i}" for i in range(partitioner.n_partitions)
    ]
    writers = [RunWriter(disk, name, source.serializer) for name in names]
    counts = [0] * partitioner.n_partitions
    ok = False
    try:
        with disk.use_stats(stats), stats.enter_phase(PARTITION_PHASE):
            key_value = source.serializer.decode_attribute
            for page_index in range(source.n_pages):
                page = disk.read_page(source.name, page_index)
                for record in page.records():
                    i = partitioner.partition_index(key_value(record, key_index))
                    stats.count_move()
                    writers[i].append_record(record)
                    counts[i] += 1
            for writer in writers:
                writer.close()
        ok = True
    finally:
        if not ok:
            for writer in writers:
                writer.discard()
            for name in names:
                disk.delete(name)
    heaps = []
    for name, count in zip(names, counts):
        heap = HeapFile(name, source.schema, disk, source.serializer.fixed_size)
        heap.n_tuples = count
        heaps.append(heap)
    return heaps


def parallel_sort(
    disk: SimulatedDisk,
    buffer_pages: int,
    stats: OperationStats,
    source: HeapFile,
    attribute: str,
    partitioner: RangePartitioner,
    workers: int,
    out_name: Optional[str] = None,
    metrics=None,
    guard: Optional[QueryGuard] = None,
    cancel: Optional[CancelToken] = None,
) -> Tuple[HeapFile, List[OperationStats]]:
    """Partition, sort each slice concurrently, splice; returns the output
    heap plus one per-slice :class:`~repro.storage.stats.OperationStats`.

    Worker ledgers are merged into ``stats`` in partition order (so the
    coordinator's totals cover all the work done on its behalf) and also
    returned separately — the parallel cost model takes its ``max`` over
    them.  Any worker fault cancels the siblings through the shared
    linked token and surfaces as one typed error; every scratch slice and
    any partial output is deleted on the way out.
    """
    from ..sort.external import ExternalSorter

    if out_name is None:
        out_name = f"{source.name}__psorted_{attribute}"
    parts = partition_heap(disk, source, attribute, partitioner, stats)
    sorted_names: List[Optional[str]] = [None] * len(parts)
    deadline = guard.deadline if guard is not None else None

    def make_task(i: int, part: HeapFile):
        def task(linked: CancelToken):
            worker_stats = OperationStats()
            worker_guard = QueryGuard(deadline=deadline, token=linked)
            with disk.use_guard(worker_guard):
                sorter = ExternalSorter(disk, buffer_pages, worker_stats)
                out = sorter.sort(part, attribute, out_name=f"{out_name}__p{i}")
            return i, out, worker_stats

        return task

    try:
        tasks = [make_task(i, part) for i, part in enumerate(parts)]
        results = gather_partitions(tasks, workers, cancel)
        partition_stats: List[OperationStats] = []
        total_tuples = 0
        for i, out, worker_stats in results:
            sorted_names[i] = out.name
            partition_stats.append(worker_stats)
            total_tuples += out.n_tuples
            stats.merge(worker_stats)
        disk.delete(out_name)
        disk.splice(out_name, [name for name in sorted_names if name is not None])
        sorted_names = [None] * len(parts)  # consumed by the splice
        merged = HeapFile(out_name, source.schema, disk, source.serializer.fixed_size)
        merged.n_tuples = total_tuples
        if metrics is not None:
            from ..observe.metrics import SortMetrics

            record = SortMetrics(
                source=source.name,
                attribute=attribute,
                tuples=total_tuples,
                runs=len(parts),
                output=out_name,
            )
            metrics.record_sort(record)
        return merged, partition_stats
    except BaseException:
        disk.delete(out_name)
        raise
    finally:
        for part in parts:
            disk.delete(part.name)
        for name in sorted_names:
            if name is not None:
                disk.delete(name)
