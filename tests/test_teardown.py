"""A finished run frees itself by reference counting.

Every :func:`~repro.runner.run_experiment` leg builds a cluster whose
objects point at each other (engine <-> processes, protocol <-> fabric
handlers, ...).  The runner tears those cycles down when the run
returns, so nothing of the simulator waits for the cyclic collector.
These tests run legs with the collector disabled and check that no
simulator object survives — while the result is held (it holds none),
and after it is dropped — across the protocol x mode combinations the
runner can express, and when the run raises.
"""

import gc

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.config import (
    ClusterConfig, FaultPlan, LivelockParams, LoadParams, RecoveryParams)
from repro.core import PROTOCOLS
from repro.core.base import ProtocolBase
from repro.core.replication import HadesReplicatedProtocol
from repro.obs.spans import SpanRecorder
from repro.obs.telemetry import TelemetrySampler
from repro.runner import run_experiment
from repro.sim.engine import Engine, Process
from repro.workloads import YcsbWorkload, make_workload

SIM_TYPES = (Cluster, Node, Engine, Process, ProtocolBase)

PROTOCOL_NAMES = ("baseline", "hades-h", "hades", "replicated")

MODES = ("plain", "observed", "crash", "open_loop", "pessimistic")


@pytest.fixture
def collector_off(monkeypatch):
    """Collect what earlier tests left, then keep the collector off, and
    hand back the simulator objects alive at that point (held, so no
    new object can reuse one of their ids)."""
    monkeypatch.setitem(PROTOCOLS, "replicated", HadesReplicatedProtocol)
    gc.collect()
    gc.disable()
    try:
        yield {id(obj): obj for obj in gc.get_objects()
               if isinstance(obj, SIM_TYPES)}
    finally:
        gc.enable()


def leftovers(before):
    return sorted(type(obj).__name__ for obj in gc.get_objects()
                  if isinstance(obj, SIM_TYPES) and id(obj) not in before)


def run_leg(protocol, mode, workload=None):
    config = ClusterConfig(nodes=3, cores_per_node=2)
    kwargs = {}
    if mode == "observed":
        kwargs = dict(fault_plan=FaultPlan.parse("drop=0.02,jitter=300",
                                                 seed=5),
                      spans=SpanRecorder(),
                      telemetry=TelemetrySampler(interval_ns=5_000.0),
                      sample_interval_ns=5_000.0)
    elif mode == "crash":
        config = config.replace(recovery=RecoveryParams(enabled=True))
        kwargs = dict(fault_plan=FaultPlan.parse("crash=1:20000:70000",
                                                 seed=5))
    elif mode == "open_loop":
        config = config.replace(load=LoadParams(enabled=True,
                                                rate_tps=4_000_000.0,
                                                queue_capacity=8))
    elif mode == "pessimistic":
        config = config.replace(livelock=LivelockParams(squash_threshold=0))
    if workload is None:
        workload = make_workload("HT-wA", scale=0.05)
    duration_ns = 150_000.0 if mode == "crash" else 60_000.0
    return run_experiment(protocol, workload, config=config,
                          duration_ns=duration_ns, seed=7, llc_sets=256,
                          **kwargs)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_finished_run_frees_itself(collector_off, protocol, mode):
    result = run_leg(protocol, mode)
    assert result.metrics.meter.committed > 0
    if mode == "crash":
        assert result.recovery_summary["suspicions_raised"] >= 1
    if mode == "open_loop":
        assert result.load["completed"] > 0
    if mode == "pessimistic":
        assert result.metrics.counters.get("pessimistic_commits") > 0
    assert leftovers(collector_off) == []
    del result
    assert leftovers(collector_off) == []


class _FailingWorkload(YcsbWorkload):
    """A workload whose transaction generator breaks mid-run."""

    def __init__(self, fail_after):
        super().__init__(store="ht", variant="a", record_count=500, seed=3)
        self.fail_after = fail_after

    def next_transaction(self, rng, node_id, cluster, client_id=None):
        self.fail_after -= 1
        if self.fail_after < 0:
            raise RuntimeError("workload bug")
        return super().next_transaction(rng, node_id, cluster,
                                        client_id=client_id)


@pytest.mark.parametrize("protocol", ("baseline", "hades"))
def test_run_that_raises_frees_itself(collector_off, protocol):
    try:
        run_leg(protocol, "observed", workload=_FailingWorkload(15))
    except RuntimeError as error:
        assert str(error) == "workload bug"
    else:
        pytest.fail("the run did not raise")
    assert leftovers(collector_off) == []
