"""A simulation run never mutates class state.

Hot-path counters and caches belong on instances or module-level
objects, never on classes: on CPython every store to a class attribute
invalidates that type's attribute and method caches, de-specialising
every later access to the class (see docs/PERFORMANCE.md, "Where the
time goes").  This test snapshots the namespace of every class defined
in the loaded ``repro`` modules, runs short pinned legs that together
touch every protocol, the Bloom/directory/NIC hardware, fault injection
and observability, and asserts no class namespace changed.
"""

import copy
import inspect
import sys

# The runner and the telemetry sampler import these lazily, inside the
# run.  Load them up front so their classes are in the snapshot however
# this test is run, alone or after other tests.
import repro.faults.injector  # noqa: F401
import repro.load.controller  # noqa: F401
import repro.load.driver  # noqa: F401
import repro.recovery.manager  # noqa: F401
from repro.config import ClusterConfig, FaultPlan
from repro.obs.spans import SpanRecorder
from repro.obs.telemetry import TelemetrySampler
from repro.runner import run_experiment
from repro.workloads import MicroWorkload, TpccWorkload, YcsbWorkload

#: Container types whose contents are snapshotted, so in-place mutation
#: of a class-level dict/list/set is caught as well as rebinding.
_CONTAINERS = (dict, list, set)


def _in_repro(module_name):
    return module_name == "repro" or module_name.startswith("repro.")


def _repro_classes():
    """Every class defined in a loaded ``repro`` module, nested ones too."""
    found = {}
    pending = []
    for name, module in list(sys.modules.items()):
        if module is not None and _in_repro(name):
            pending.extend(value for value in vars(module).values()
                           if inspect.isclass(value))
    while pending:
        cls = pending.pop()
        key = f"{cls.__module__}.{cls.__qualname__}"
        if not _in_repro(cls.__module__) or key in found:
            continue
        found[key] = cls
        pending.extend(value for value in vars(cls).values()
                       if inspect.isclass(value))
    return found


def _snapshot(classes):
    state = {}
    for key, cls in classes.items():
        for attr, value in vars(cls).items():
            contents = (copy.copy(value) if type(value) in _CONTAINERS
                        else None)
            state[f"{key}.{attr}"] = (value, contents)
    return state


def _changed(before, after):
    changed = sorted(set(before) ^ set(after))
    for name in set(before) & set(after):
        old_value, old_contents = before[name]
        new_value, _ = after[name]
        if new_value is not old_value:
            changed.append(name)
        elif old_contents is not None and new_value != old_contents:
            changed.append(name)
    return sorted(changed)


def _run_legs():
    micro_obs = dict(
        fault_plan=FaultPlan.parse("drop=0.01,jitter=300", seed=3),
        spans=SpanRecorder(),
        telemetry=TelemetrySampler(interval_ns=10_000.0),
        sample_interval_ns=10_000.0)
    results = [
        run_experiment("hades", TpccWorkload(warehouses=1, items=500, seed=13),
                       config=ClusterConfig(nodes=4), duration_ns=50_000.0,
                       seed=13, llc_sets=2048),
        run_experiment("hades", MicroWorkload(0.5, record_count=500, seed=3),
                       config=ClusterConfig(nodes=3), duration_ns=40_000.0,
                       seed=3, llc_sets=1024, **micro_obs),
    ]
    for protocol in ("baseline", "hades-h"):
        results.append(run_experiment(
            protocol,
            YcsbWorkload(store="ht", variant="b", record_count=2000, seed=7),
            config=ClusterConfig(nodes=4), duration_ns=60_000.0,
            seed=7, llc_sets=2048))
    return results


def test_runs_leave_every_class_namespace_unchanged():
    classes = _repro_classes()
    assert len(classes) > 50, "class discovery found too little"
    before = _snapshot(classes)
    results = _run_legs()
    assert all(result.metrics.meter.committed > 0 for result in results)
    assert _changed(before, _snapshot(classes)) == []
