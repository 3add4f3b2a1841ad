import importlib
import importlib.util
import sys
from pathlib import Path

import l1landscape
from l1landscape.core import subdifferential_model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve_to_library_functions():
    """`perfbench/run.py --trace 1` wraps every module.function in the
    tracer's LAYERS, so each must name a callable of the library."""
    tracer = _load(TRACER)
    missing = [f"{mod}.{fn}"
               for mod, fns in tracer.LAYERS.items()
               for fn in fns
               if not callable(getattr(importlib.import_module(f"{tracer.PACKAGE}.{mod}"),
                                       fn, None))]
    assert missing == []


def test_workload_free_pair_count_is_the_lp_column_count():
    """The benchmark's free-pair report reads len(model.free_pairs), which
    must count the free pairs, one per column of the pair matrix."""
    workloads = _load(WORKLOADS)
    for u, g in (([-1.0, 1.0], [1.0, 1.0]), ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
                 ([0.5, -1.0, 0.0], [0.5, 1.0, 0.0])):
        op = workloads.Op("certify", {"u": u, "g": g}, None, "x")
        count = subdifferential_model(u, g).pair_matrix().shape[1]
        assert count > 0
        assert workloads.free_pairs(l1landscape, op) == count
