"""Unit tests for the layer fold, on synthetic pstats tables.

Run with ``pytest perfbench/test_layers.py``; nothing here imports the
simulator.
"""

import json

import pytest
from layers import (COUNTS, LAYERS, OTHER, Count, count_calls, fold_self_time,
                    func_key, layer_metrics, layer_of)

PKG = "/src/repro"
RUN = (f"{PKG}/simcore/engine.py", 148, "run")
QUEUE = (f"{PKG}/simcore/engine.py", 84, "_queue_event")
READ = (f"{PKG}/storage/nfs.py", 40, "read")
PLAN = (f"{PKG}/workflow/mapper.py", 10, "plan")
DEEPCOPY = ("/usr/lib/python3.11/copy.py", 128, "deepcopy")
HEAPPOP = ("~", 0, "<built-in method _heapq.heappop>")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
APPEND = ("~", 0, "<method 'append' of 'list' objects>")
LEN = ("~", 0, "<built-in method builtins.len>")
DISABLE = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
CYCLE_A = ("/usr/lib/python3.11/a.py", 1, "a")
CYCLE_B = ("/usr/lib/python3.11/b.py", 1, "b")


def entry(tt, nc=1, callers=None):
    """One pstats row: (cc, nc, tt, ct, callers)."""
    return (nc, nc, tt, tt, callers or {})


def edge(nc, tt):
    """One callers-table edge: (nc, cc, tt, ct)."""
    return (nc, nc, tt, tt)


def table():
    return {
        RUN: entry(1.0),
        QUEUE: entry(0.25, nc=50, callers={RUN: edge(50, 0.25)}),
        READ: entry(0.5, nc=10),
        PLAN: entry(0.125),
        HEAPPOP: entry(0.5, nc=120, callers={RUN: edge(100, 0.375),
                                             READ: edge(20, 0.125)}),
        HEAPPUSH: entry(0.0625, nc=50, callers={QUEUE: edge(50, 0.0625)}),
        APPEND: entry(0.75, nc=9, callers={RUN: edge(3, 0.25),
                                           READ: edge(6, 0.5)}),
        DEEPCOPY: entry(0.5, nc=4, callers={PLAN: edge(1, 0.5),
                                            DEEPCOPY: edge(3, 0.0)}),
        LEN: entry(0.25, nc=8, callers={DEEPCOPY: edge(8, 0.25)}),
        DISABLE: entry(0.03125),
    }


def test_layer_of_uses_longest_prefix():
    assert layer_of(f"{PKG}/simcore/engine.py", PKG) == "simcore.engine"
    assert layer_of(f"{PKG}/simcore/flownet_legacy.py", PKG) == "simcore.flownet"
    assert layer_of(f"{PKG}/simcore/tracing.py", PKG) == "telemetry"
    assert layer_of(f"{PKG}/simcore/rand.py", PKG) == "simcore.engine"
    assert layer_of(f"{PKG}/observe/monitor.py", PKG) == "experiments"
    assert layer_of(f"{PKG}/cli.py", PKG) == OTHER
    assert layer_of("/usr/lib/python3.11/copy.py", PKG) is None
    assert layer_of("/elsewhere/repro/storage/nfs.py", PKG) is None


def test_builtins_are_charged_to_their_callers():
    self_s = fold_self_time(table(), PKG)
    # run 1.0 + queue 0.25 + heappop via run 0.375 + heappush 0.0625
    # + append via run 0.25
    assert self_s["simcore.engine"] == pytest.approx(1.9375)
    # read 0.5 + heappop via read 0.125 + append via read 0.5
    assert self_s["storage"] == pytest.approx(1.125)


def test_foreign_chains_reach_the_package_caller():
    self_s = fold_self_time(table(), PKG)
    # plan 0.125 + deepcopy 0.5 (its self-recursion ignored) + len 0.25
    assert self_s["workflow"] == pytest.approx(0.875)
    assert self_s[OTHER] == pytest.approx(0.03125)


def test_layer_self_time_sums_to_total_self_time():
    tab = table()
    tab[CYCLE_A] = entry(0.5, callers={CYCLE_B: edge(1, 0.25),
                                       READ: edge(1, 0.25)})
    tab[CYCLE_B] = entry(0.25, callers={CYCLE_A: edge(1, 0.25)})
    self_s = fold_self_time(tab, PKG)
    assert set(self_s) == set(LAYERS)
    assert sum(self_s.values()) == pytest.approx(
        sum(row[2] for row in tab.values()))


def test_zero_time_edges_split_by_call_count():
    tab = {
        RUN: entry(0.0),
        READ: entry(0.0),
        LEN: entry(0.5, nc=4, callers={RUN: edge(3, 0.0), READ: edge(1, 0.0)}),
    }
    self_s = fold_self_time(tab, PKG)
    assert self_s["simcore.engine"] == pytest.approx(0.375)
    assert self_s["storage"] == pytest.approx(0.125)


def test_counts_follow_calls_and_the_via_filter():
    tab = table()
    assert count_calls(tab, Count("c", "m", "f"), PKG, key=QUEUE) == 50
    via_engine = Count("c", "heapq", "heappop", via=("simcore/engine.py",))
    assert count_calls(tab, via_engine, PKG, key=HEAPPOP) == 100
    via_both = Count("c", "heapq", "heappop",
                     via=("simcore/engine.py", "storage/nfs.py"))
    assert count_calls(tab, via_both, PKG, key=HEAPPOP) == 120
    assert count_calls(tab, Count("c", "heapq", "heappop"), PKG,
                       key=HEAPPOP) == 120


def test_missing_function_counts_null_and_uncalled_counts_zero():
    gone = Count("c", "repro_no_such_module", "Environment.step")
    assert count_calls(table(), gone, PKG) is None
    renamed = Count("c", "json", "no_such_function")
    assert count_calls(table(), renamed, PKG) is None
    uncalled = Count("c", "json", "dumps")
    assert count_calls(table(), uncalled, PKG) == 0


def test_func_key_matches_pstats_labels():
    assert func_key("heapq", "heappop") == HEAPPOP
    filename, lineno, name = func_key("json", "dumps")
    assert filename == json.dumps.__code__.co_filename
    assert (lineno, name) == (json.dumps.__code__.co_firstlineno, "dumps")


def test_layer_metrics_names_every_layer_and_count():
    metrics = layer_metrics(table(), PKG)
    for layer in LAYERS:
        assert f"{layer}.self_s" in metrics
        assert f"{layer}.share" in metrics
    assert sum(metrics[f"{layer}.share"] for layer in LAYERS) == pytest.approx(1.0)
    assert {count.name for count in COUNTS} <= set(metrics)
