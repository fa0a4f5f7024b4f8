"""The benchmark's layers: which ``repro`` modules make up each one,
and how a cProfile of a repetition is split across them.

A function's self time belongs to the layer of the module that defines
it. Code outside ``repro`` (C builtins, the standard library, numpy)
has no layer of its own: its self time is charged to the layers of its
callers, in proportion to the time each caller spent in it, following
chains of non-``repro`` callers up to the first ``repro`` frame. What
has no ``repro`` caller at all (interpreter start-up, the importer,
the benchmark's own frames) is ``other``. The layer times therefore
add up to the profile's total exactly.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

#: ``repro`` module prefix -> layer. The longest matching prefix wins.
MODULE_LAYERS: Dict[str, str] = {
    "host": "workload",
    "net.flow": "workload",
    "net.packet": "workload",
    "tc": "classify",
    "core.labeling": "classify",
    "core.labels": "classify",
    "core.flow_cache": "classify",
    "net.sink": "sink",
    "stats.sketch": "sink",
    "stats.rates": "sink",
    "stats.latency": "sink",
    "stats.timeseries": "sink",
    "nic.fluid": "fluid",
    "core": "sched",
    "sched": "sched",
    "baselines": "sched",
    "nic": "nic",
    "nic.traffic_manager": "tm",
    "net.link": "tm",
    "sim": "sim",
    "stats.metrics": "metrics",
    "sim.shard": "shard",
    "net.boundary": "shard",
    # Construction and glue: topology building, experiment builders,
    # units, reports. Mostly set-up time.
    "": "build",
}

#: Every layer a profile is split into, in report order.
LAYERS: Tuple[str, ...] = (
    "workload", "classify", "sink", "fluid", "sched", "nic", "tm",
    "sim", "metrics", "shard", "build", "other",
)


def module_layer(filename: str, package_dir: str):
    """Layer of *filename* if it is a source file under *package_dir*
    (the ``repro`` package directory), else None."""
    if not filename.startswith(package_dir) or not filename.endswith(".py"):
        return None
    module = filename[len(package_dir):-3].replace(os.sep, ".")
    if module.endswith("__init__"):
        module = module[: -len("__init__")].rstrip(".")
    parts = module.split(".") if module else []
    for cut in range(len(parts), -1, -1):
        layer = MODULE_LAYERS.get(".".join(parts[:cut]))
        if layer is not None:
            return layer
    return None


def attribute(stats, package_dir: str) -> Dict[str, float]:
    """Split a ``pstats.Stats(...).stats`` table into layer self times.

    *package_dir* is the ``repro`` package directory. Returns seconds
    per layer for every name in :data:`LAYERS`.
    """
    package_dir = os.path.join(package_dir, "")
    weights: Dict[tuple, Dict[str, float]] = {}

    def layer_weights(func, visiting) -> Dict[str, float]:
        """Share of *func*'s self time owed to each layer."""
        known = weights.get(func)
        if known is not None:
            return known
        own = module_layer(func[0], package_dir)
        if own is not None:
            result = {own: 1.0}
        else:
            callers = stats[func][4] if func in stats else {}
            total = sum(edge[2] for edge in callers.values())
            if func in visiting or total <= 0.0:
                result = {"other": 1.0}
            else:
                visiting.add(func)
                result = {}
                for caller, edge in callers.items():
                    share = edge[2] / total
                    for layer, w in layer_weights(caller, visiting).items():
                        result[layer] = result.get(layer, 0.0) + share * w
                visiting.discard(func)
        weights[func] = result
        return result

    seconds = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, w in layer_weights(func, set()).items():
            seconds[layer] += tt * w
    return seconds
