import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_layers_resolve_to_library_functions():
    """`perfbench/run.py --trace 1` wraps every module.function in the
    tracer's LAYERS, so each must name a callable of the library."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{fn}"
               for mod, fns in tracer.LAYERS.items()
               for fn in fns
               if not callable(getattr(importlib.import_module(f"{tracer.PACKAGE}.{mod}"),
                                       fn, None))]
    assert missing == []
