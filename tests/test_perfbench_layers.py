import importlib
import time

import pytest

import l1landscape
from l1landscape.core import subdifferential_model
from oracles import perfbench_module


def test_traced_layers_resolve_to_library_functions():
    """`perfbench/run.py --trace 1` wraps every module.function in the
    tracer's LAYERS, so each must name a callable of the library."""
    tracer = perfbench_module("tracer")
    missing = [f"{mod}.{fn}"
               for mod, fns in tracer.LAYERS.items()
               for fn in fns
               if not callable(getattr(importlib.import_module(f"{tracer.PACKAGE}.{mod}"),
                                       fn, None))]
    assert missing == []


def test_workload_free_pair_count_is_the_lp_column_count():
    """The benchmark's free-pair report reads len(model.free_pairs), which
    must count the free pairs, one per column of the pair matrix."""
    workloads = perfbench_module("workloads")
    for u, g in (([-1.0, 1.0], [1.0, 1.0]), ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
                 ([0.5, -1.0, 0.0], [0.5, 1.0, 0.0])):
        op = workloads.Op("certify", {"u": u, "g": g}, None, "x")
        count = subdifferential_model(u, g).pair_matrix().shape[1]
        assert count > 0
        assert workloads.free_pairs(l1landscape, op) == count


def test_certify_scale_outputs_pass_the_benchmark_oracle():
    """Rounds 0-2 of certify-scale seeds 1 and 2 (126 operations) run
    through perfbench's own execute() and oracle.check_certify with HiGHS,
    as a benchmark run would judge them: nothing raises and nothing is
    wrong."""
    pytest.importorskip("scipy")
    workloads = perfbench_module("workloads")
    oracle = perfbench_module("oracle")
    wrong, checked = [], 0
    for seed in (1, 2):
        for rnd in range(3):
            for op in workloads.CertifyScale(seed).round(rnd):
                out = workloads.execute(l1landscape, op, time.perf_counter)
                reason = out.error or oracle.check_certify(out.record, highs=True)
                if out.raised or reason:
                    wrong.append((seed, rnd, op.label, reason))
                checked += 1
    assert wrong == []
    assert checked == 126
