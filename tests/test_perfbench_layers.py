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


def oracle_failures(ops):
    """(op label, reason) for each certify op that raises or that
    oracle.check_certify with HiGHS finds wrong, each run through
    perfbench's own execute() as a benchmark run would judge it."""
    workloads = perfbench_module("workloads")
    oracle = perfbench_module("oracle")
    wrong = []
    for op in ops:
        out = workloads.execute(l1landscape, op, time.perf_counter)
        reason = out.error or oracle.check_certify(out.record, highs=True)
        if out.raised or reason:
            wrong.append((op.label, reason))
    return wrong


def test_certify_scale_outputs_pass_the_benchmark_oracle():
    """Rounds 0-2 of certify-scale seeds 1 and 2 (126 operations): nothing
    raises and nothing is wrong."""
    pytest.importorskip("scipy")
    workloads = perfbench_module("workloads")
    ops = [op for seed in (1, 2) for rnd in range(3)
           for op in workloads.CertifyScale(seed).round(rnd)]
    assert len(ops) == 126
    assert oracle_failures(ops) == []


def test_grid_n2_outputs_pass_the_benchmark_oracle():
    """Round 0 of grid-n2 (1,922 operations), the one workload whose points
    reach classify_point's descent along the min-norm duals: nothing raises
    and nothing is wrong."""
    pytest.importorskip("scipy")
    ops = perfbench_module("workloads").GridN2(1).round(0)
    assert len(ops) == 1922
    assert oracle_failures(ops) == []
