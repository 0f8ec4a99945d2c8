"""Each workload's checks accept its real output and reject corrupted copies.

Runs every workload once at its small (``--quick``) size.  A check that
cannot fail would let a wrong answer through the benchmark, so every test
below corrupts one output the way a numerical bug would and expects the
check to report it.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


TWO_POINT = ["two_point_gasket", "two_point_er"]


@functools.lru_cache(maxsize=None)
def _run(name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(3, True)
    return wl, inputs, wl.run_round(inputs)


def _errors(wl, inputs, out):
    return wl.check(inputs, out)[2]


def _shift_replica_value(out, stat, replica, delta):
    """Move one per-replica value and its annealed mean consistently, so only
    the recomputation from the replica's environment can notice."""
    table = copy.deepcopy(out["table"])
    rows = table.rows
    i = next(k for k, r in enumerate(rows)
             if r.statistic == stat and r.replica == replica and r.s != r.t)
    target = rows[i]
    rows[i] = dataclasses.replace(target, value=target.value + delta)
    reps = sum(1 for r in rows if r.statistic == stat and r.n == target.n
               and r.s == target.s and r.t == target.t and r.replica >= 0)
    for k, r in enumerate(rows):
        if (r.statistic == stat + "_annealed_mean" and r.n == target.n
                and r.s == target.s and r.t == target.t):
            v = r.value + delta / reps
            rows[k] = dataclasses.replace(r, value=v, ci_low=min(r.ci_low, v),
                                          ci_high=max(r.ci_high, v))
    return dict(out, table=table)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_unaltered_outputs_pass(name):
    wl, inputs, out = _run(name)
    attempted, failed, errors = wl.check(inputs, out)
    assert errors == []
    assert attempted > failed >= 0


@pytest.mark.parametrize("stat", ["phi", "psi"])
@pytest.mark.parametrize("name", TWO_POINT)
def test_two_point_value_moved_by_1e_6(name, stat):
    wl, inputs, out = _run(name)
    moved = _shift_replica_value(out, stat, 0, 1e-6)
    assert any("expm gives" in e for e in _errors(wl, inputs, moved))


@pytest.mark.parametrize("name", TWO_POINT)
def test_two_point_aggregates(name):
    wl, inputs, out = _run(name)
    for name, edit in (
        ("phi(s, s)", lambda r: r.statistic == "phi" and r.s == r.t and r.replica == 1),
        ("annealed mean", lambda r: r.statistic == "psi_annealed_mean"),
        ("stabilization diff", lambda r: r.statistic == "psi_stabilization_diff"),
    ):
        table = copy.deepcopy(out["table"])
        k = next(i for i, r in enumerate(table.rows) if edit(r))
        r = table.rows[k]
        table.rows[k] = dataclasses.replace(r, value=r.value - 1e-9, ci_low=r.ci_low - 1e-9)
        assert _errors(wl, inputs, dict(out, table=table)), name
    table = copy.deepcopy(out["table"])
    table.failures = 1
    assert _errors(wl, inputs, dict(out, table=table))


def test_probe_failures_follow_the_oracle():
    wl, inputs, out = _run("two_point_gasket")
    exact = [float(p["value"]) for p in inputs["probes"]]
    assert wl.check(inputs, dict(out, probes=exact))[1] == 0
    off = [v - 1e-6 for v in exact]
    assert wl.check(inputs, dict(out, probes=off))[1] == len(exact)
    assert wl.check(inputs, dict(out, probes=[None] * len(exact)))[1] == len(exact)


def test_metric_values_altered():
    wl, inputs, out = _run("metric_gasket")
    for stat in ("trap_dmdis", "vertex_local_hausdorff"):
        table = copy.deepcopy(out["table"])
        k = next(i for i, r in enumerate(table.rows) if r.statistic == stat)
        r = table.rows[k]
        table.rows[k] = dataclasses.replace(r, value=r.value + 1e-6, ci_low=r.value + 1e-6,
                                            ci_high=r.value + 1e-6)
        assert any(stat in e for e in _errors(wl, inputs, dict(out, table=table))), stat


def test_trap_csv_altered():
    wl, inputs, out = _run("trap_gasket")
    for stat, value in (("pi_void_expected", lambda v: v * (1 + 1e-9)),
                        ("prm_void_expected", lambda v: v * (1 - 1e-9)),
                        ("pi_void_aggregate_pvalue", lambda v: 1e-7),
                        ("scaling_identity_residual", lambda v: 1e-12),
                        ("prm_void_empirical", lambda v: v + 0.5 / inputs["config"]["replicas"])):
        rows = copy.deepcopy(out["rows"])
        row = next(r for r in rows if r["statistic"] == stat)
        row["value"] = repr(value(float(row["value"])))
        assert _errors(wl, inputs, dict(out, rows=rows)), stat
    assert _errors(wl, inputs, dict(out, code=1))


def test_paths_altered():
    wl, inputs, out = _run("paths_gasket")
    level = min(out)
    lv = out[level]
    path = lv["paths"][0]
    bad_step = dataclasses.replace(path, states=(path.states[0], -1) + path.states[2:])
    short = dataclasses.replace(path, durations=path.durations[:-1] + (path.durations[-1] * 0.5 + 1,))
    marginal = lv["marginal"].copy()
    i, j = int(marginal.argmax()), int(marginal.argmin())
    marginal[i] -= 0.2
    marginal[j] += 0.2
    for name, change in (
        ("step", {"paths": [bad_step] + lv["paths"][1:]}),
        ("horizon", {"paths": [short] + lv["paths"][1:]}),
        ("marginal", {"marginal": marginal}),
        ("exit", {"exit": dataclasses.replace(lv["exit"], bound=lv["exit"].ci_high / 2)}),
        ("return", {"return": dataclasses.replace(lv["return"],
                                                  kernel_value=lv["return"].kernel_value + 1e-6)}),
    ):
        assert _errors(wl, inputs, {**out, level: dict(lv, **change)}), name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_keeps_outputs_and_is_removed(name):
    import spans
    import trapnets

    wl, inputs, out = _run(name)
    original = trapnets.dynamics.aging_phi
    tracer = spans.Tracer()
    tracer.install()
    try:
        sid = tracer.begin(spans.ROUND)
        traced = wl.run_round(inputs)
        tracer.end(sid)
    finally:
        tracer.uninstall()
    assert trapnets.dynamics.aging_phi is original
    assert wl.fingerprint(traced) == wl.fingerprint(out)
    (round_s, calls, self_s), = tracer.per_round()
    assert 0 < sum(self_s.values()) <= round_s
    assert all(calls[k] > 0 for k in calls)
