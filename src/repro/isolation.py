"""In-process run isolation: the audit of process-wide state.

One ``repro sweep`` worker process executes many experiment runs
back-to-back, so anything memoized at module or class level is shared
between runs.  This module is the closed inventory of that state and
the contract each entry must honor:

* ``repro.hardware.crc`` — the shared :class:`~repro.hardware.crc.HashFamily`
  mask caches (:func:`~repro.hardware.crc.shared_hash_family`).  A mask
  is a pure function of ``(hash count, modulus, key)``, so warmth can
  change wall-clock time only, never a simulated result.  **Safe to
  share; kept warm across runs.**
* ``repro.hardware.bloom`` — the module-level
  :data:`~repro.hardware.bloom.BLOOM_OPS` energy counters
  (``reads``/``writes``), reset by
  :meth:`~repro.hardware.bloom.BloomFilter.reset_stats`.  These
  accumulate forever, so any consumer reading the raw totals sees
  every previous run's accesses.  **Not safe to read raw**:
  :func:`~repro.runner.run_experiment` snapshots them and reports
  per-run deltas (``ExperimentResult.bloom_read_ops``/``bloom_write_ops``),
  which are what the energy report consumes.
* ``repro.hardware.bloom`` — the process-wide WrBF2 position memos
  (:data:`~repro.hardware.bloom._INDEX_POSITION_CACHES`): ``key ->
  (key // line_bytes) % llc_sets % index_bits``, keyed by filter shape.
  A pure value cache.  **Safe to share; kept warm across runs.**
* ``repro.sim.random`` — the process-wide zipfian scramble memo
  (:data:`~repro.sim.random._SCRAMBLE_CACHES`): ``rank ->
  fnv1a_64(rank) % item_count``, keyed by ``item_count``.  A pure value
  cache, so warmth changes wall-clock time only.  (The per-generator
  rank *tapes* are instance state constructed fresh per run and feed
  off the generator's own private RNG, so they never cross runs.)
  **Safe to share; kept warm across runs.**
* The CRC lookup table (``repro.hardware.crc._TABLE``) and similar
  computed constants — immutable after import, trivially safe.

Everything else an experiment touches (engine, cluster, protocol,
metrics, workloads, fault injectors, recovery managers) is constructed
fresh inside :func:`~repro.runner.run_experiment` per call.  The
simulator objects among them are released when it returns: their
reference cycles are broken, so reference counting frees them without
the cyclic collector, and the result holds none (``tests/test_teardown.py``).

``tests/test_isolation.py`` pins the contract: running A then B in one
process must be bit-identical to running B in a fresh process.  Any new
module-level cache must either be a pure value cache (document it here)
or be registered in :func:`reset_process_caches`.
"""

from __future__ import annotations

from typing import Dict


def process_state_report() -> Dict[str, object]:
    """Sizes of every known process-wide cache/counter, for the audit
    tests and for memory diagnostics of long-lived sweep workers."""
    from repro.hardware.bloom import BLOOM_OPS, split_index_stats
    from repro.hardware.crc import shared_family_stats
    from repro.sim.random import zipfian_scramble_stats

    return {
        "hash_family_masks": shared_family_stats(),
        "bloom_total_read_ops": BLOOM_OPS.reads,
        "bloom_total_write_ops": BLOOM_OPS.writes,
        "split_index_positions": split_index_stats(),
        "zipfian_scramble_keys": zipfian_scramble_stats(),
    }


def reset_process_caches() -> None:
    """Restore every process-wide cache/counter to import-time state.

    Run-to-run isolation does *not* require calling this (see the
    module docstring); it exists so tests can prove that claim — a run
    after ``reset_process_caches()`` must equal the same run on a warm
    process — and so a long-lived worker can bound mask-cache memory.
    """
    from repro.hardware.bloom import BloomFilter, clear_split_index_caches
    from repro.hardware.crc import clear_shared_families
    from repro.sim.random import clear_zipfian_scramble_caches

    clear_shared_families()
    BloomFilter.reset_stats()
    clear_split_index_caches()
    clear_zipfian_scramble_caches()
