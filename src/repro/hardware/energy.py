"""Bloom-filter energy accounting (Table III energy rows).

Table III gives per-access dynamic energies (12.8 pJ reads,
12.7/13.1 pJ writes) and per-filter leakage (1.7/1.9 mW).  The filters
count their accesses process-wide in
:data:`~repro.hardware.bloom.BLOOM_OPS` (``reads``/``writes``), and
every :class:`~repro.runner.ExperimentResult` carries its run's share as
``bloom_read_ops``/``bloom_write_ops``; this module turns a run's
counts + duration into an energy estimate:

* dynamic energy = accesses × per-access pJ,
* leakage energy = (#filter pairs provisioned) × mW × simulated time.

The point the paper makes (Section VI) is that BFs are area- and
energy-*cheap* — the report makes that concrete: nanojoules per
committed transaction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import BloomParams, ClusterConfig


@dataclass(frozen=True)
class EnergyReport:
    """Energy estimate for one run."""

    read_ops: int
    write_ops: int
    dynamic_pj: float
    leakage_pj: float
    committed: int

    @property
    def total_pj(self) -> float:
        return self.dynamic_pj + self.leakage_pj

    @property
    def nj_per_transaction(self) -> float:
        if self.committed <= 0:
            return 0.0
        return self.total_pj / 1000.0 / self.committed

    def as_dict(self) -> dict:
        return {
            "read_ops": self.read_ops,
            "write_ops": self.write_ops,
            "dynamic_pj": round(self.dynamic_pj, 1),
            "leakage_pj": round(self.leakage_pj, 1),
            "nj_per_txn": round(self.nj_per_transaction, 3),
        }


def provisioned_filter_pairs(config: ClusterConfig) -> int:
    """Filter pairs powered in the whole cluster: per node, m×C core
    pairs plus m×C×D NIC pairs (Section VI)."""
    per_node = (config.transactions_per_node
                + int(config.transactions_per_node
                      * max(1.0, config.remote_nodes_per_txn)))
    return per_node * config.nodes


def energy_report(config: ClusterConfig, elapsed_ns: float,
                  committed: int, *, read_ops: int, write_ops: int,
                  bloom: BloomParams = None) -> EnergyReport:
    """Energy estimate for one run.

    ``read_ops``/``write_ops`` are the run's own Bloom accesses — the
    per-run deltas every :class:`~repro.runner.ExperimentResult` carries
    as ``bloom_read_ops``/``bloom_write_ops`` — so back-to-back runs in
    one process each report their own accesses.
    """
    if elapsed_ns < 0:
        raise ValueError(f"negative elapsed time: {elapsed_ns}")
    if committed < 0:
        raise ValueError(f"negative commit count: {committed}")
    bloom = bloom if bloom is not None else config.bloom
    dynamic = (read_ops * bloom.read_energy_pj
               + write_ops * bloom.write_energy_pj)
    # 1 mW = 1e-3 J/s = 1e9 pJ / 1e9 ns = 1 pJ/ns.
    pairs = provisioned_filter_pairs(config)
    leakage = pairs * bloom.leakage_mw * elapsed_ns
    return EnergyReport(read_ops=read_ops, write_ops=write_ops,
                        dynamic_pj=dynamic, leakage_pj=leakage,
                        committed=committed)
