"""trapnets benchmark: one seeded workload per run, outputs checked.

Usage, from the root of a trapnets checkout:

    python3 perfbench/run.py --workload two_point_gasket --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --quick          # every workload at a small size

A run generates the workload's inputs from the seed (set-up), repeats
identical rounds of the workload until ``--seconds`` are used up, checks the
first round's outputs and that every later round reproduced them bit for
bit, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (set-up time, mean
round time, peak RSS); with ``--trace 1`` the public functions of every
trapnets module are wrapped in spans and the metrics are per layer.  BLAS
runs on one thread and every experiment on one worker.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 3          # extra set-up measurements, each in a fresh interpreter

# Per-layer metrics: name -> (unit, how it is read from one traced round, key).
# "calls"/"self" read a span's call count or self seconds, "count" a counter,
# "rate" the jumps over the jump-chain spans' self time, "round" the round time.
PER_LAYER = {
    "dynamics.spectral_builds": ("count", "calls", "dynamics.spectral_build"),
    "dynamics.spectral_vertices": ("count", "count", "dynamics.spectral_vertices"),
    "dynamics.spectral_build_s": ("s", "self", "dynamics.spectral_build"),
    "dynamics.kernel_row.calls": ("count", "calls", "dynamics.kernel_row"),
    "dynamics.kernel_row.self_s": ("s", "self", "dynamics.kernel_row"),
    "dynamics.kernel_diagonal.calls": ("count", "calls", "dynamics.kernel_diagonal"),
    "dynamics.kernel_diagonal.self_s": ("s", "self", "dynamics.kernel_diagonal"),
    "dynamics.aging_phi.self_s": ("s", "self", "dynamics.aging_phi"),
    "dynamics.subaging_psi.self_s": ("s", "self", "dynamics.subaging_psi"),
    "dynamics.jumps": ("count", "count", "dynamics.jumps"),
    "dynamics.jumps_per_s": ("1/s", "rate", "dynamics.jumps"),
    "dynamics.simulate_path.calls": ("count", "calls", "dynamics.simulate_path"),
    "dynamics.simulate_path.self_s": ("s", "self", "dynamics.simulate_path"),
    "dynamics.simulate_marginal.self_s": ("s", "self", "dynamics.simulate_marginal"),
    "dynamics.exit_time_bound_check.self_s": ("s", "self", "dynamics.exit_time_bound_check"),
    "dynamics.return_probability_bounds_check.self_s":
        ("s", "self", "dynamics.return_probability_bounds_check"),
    "measures.prohorov.calls": ("count", "calls", "measures.prohorov"),
    "measures.prohorov.self_s": ("s", "self", "measures.prohorov"),
    "measures.prohorov.atoms": ("count", "count", "measures.prohorov.atoms"),
    "measures.vague_distance.calls": ("count", "calls", "measures.vague_distance"),
    "measures.vague_distance.self_s": ("s", "self", "measures.vague_distance"),
    "measures.dis_measure_distance.self_s": ("s", "self", "measures.dis_measure_distance"),
    "measures.local_hausdorff.self_s": ("s", "self", "measures.local_hausdorff"),
    "ensembles.er_largest_component.calls": ("count", "calls", "ensembles.er_largest_component"),
    "ensembles.er_largest_component.self_s": ("s", "self", "ensembles.er_largest_component"),
    "ensembles.er_vertices": ("count", "count", "ensembles.er_vertices"),
    "ensembles.sierpinski.self_s": ("s", "self", "ensembles.sierpinski"),
    "networks.build_network.calls": ("count", "calls", "networks.build_network"),
    "networks.build_network.self_s": ("s", "self", "networks.build_network"),
    "networks.resistance_matrix.self_s": ("s", "self", "networks.resistance_matrix"),
    "networks.boundary_resistance.self_s": ("s", "self", "networks.boundary_resistance"),
    "traps.truncated_prm.calls": ("count", "calls", "traps.truncated_prm"),
    "traps.truncated_prm.self_s": ("s", "self", "traps.truncated_prm"),
    "traps.prm_atoms": ("count", "count", "traps.prm_atoms"),
    "traps.quantile.self_s": ("s", "self", "traps.quantile"),
    "rng.generator.calls": ("count", "calls", "rng.generator"),
    "rng.generator.self_s": ("s", "self", "rng.generator"),
    "experiments.runner.self_s": ("s", "self", "experiments.runner"),
    "experiments.bootstrap_ci.self_s": ("s", "self", "experiments.bootstrap_ci"),
    "experiments.to_csv.self_s": ("s", "self", "experiments.to_csv"),
    "bench.traced_run_s": ("s", "round", None),
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="small inputs; without --workload, self-check every workload")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Import trapnets from this checkout's src/; exit 2 when it is missing."""
    if not (SRC / "trapnets" / "__init__.py").is_file():
        print(f"error: no trapnets sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import trapnets

    if Path(trapnets.__file__).resolve().parent != SRC / "trapnets":
        print(f"error: imported trapnets from {trapnets.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    import workloads

    return workloads


def _setup_samples(args) -> list:
    """Set-up seconds measured in fresh interpreters, import included."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _per_layer(tracer) -> dict:
    from spans import JUMP_CHAIN

    rounds = tracer.per_round()
    values = {}
    for name, (unit, kind, key) in PER_LAYER.items():
        per = []
        for (round_s, calls, self_s), counts in zip(rounds, tracer.round_counts):
            if kind == "calls":
                per.append(calls.get(key, 0))
            elif kind == "self":
                per.append(self_s.get(key, 0.0))
            elif kind == "count":
                per.append(counts.get(key, 0))
            elif kind == "rate":
                busy = sum(self_s.get(s, 0.0) for s in JUMP_CHAIN)
                per.append(counts.get(key, 0) / busy if busy > 0 else 0.0)
            else:
                per.append(round_s)
        value = statistics.fmean(per) if kind == "round" else statistics.median(per)
        if unit == "count" and float(value).is_integer():
            value = int(value)
        values[name] = {"value": value, "unit": unit}
    return values


def run_workload(wl, args) -> dict:
    """Set up, time rounds for ``args.seconds``, check; return the result object."""
    inputs = wl.make_inputs(args.seed, args.quick)
    setup_s = time.perf_counter() - _T_START
    tracer = None
    if args.trace:
        from spans import ROUND, Tracer

        tracer = Tracer()
        tracer.install()
    times, errors = [], []
    first = reference = None
    began = time.perf_counter()
    while True:
        sid = tracer.begin(ROUND) if tracer else None
        t0 = time.perf_counter()
        out = wl.run_round(inputs)
        times.append(time.perf_counter() - t0)
        if tracer:
            tracer.end(sid)
        fp = wl.fingerprint(out)
        if first is None:
            first, reference = out, fp
        elif fp != reference:
            errors.append(f"round {len(times)} did not reproduce the first round's outputs")
        if time.perf_counter() - began + statistics.median(times) > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    attempted, failed, check_errors = wl.check(inputs, first)
    errors += check_errors
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    if tracer:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{wl.name}-{args.seed}.json")
        metrics = _per_layer(tracer)
    else:
        setups = [setup_s] + ([] if args.quick else _setup_samples(args))
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.fmean(times), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    return {"correct": not errors, "attempted": attempted * len(times),
            "failed": failed * len(times), "metrics": metrics}


def _self_check(workloads, args) -> int:
    """Run every workload once at its small size; nonzero exit if any check fails."""
    ok = True
    for name, wl in workloads.WORKLOADS.items():
        t0 = time.perf_counter()
        inputs = wl.make_inputs(args.seed, True)
        out = wl.run_round(inputs)
        attempted, failed, errors = wl.check(inputs, out)
        ok &= not errors
        print(f"{'PASS' if not errors else 'FAIL'} {name}: {attempted} operations, "
              f"{failed} failed, {time.perf_counter() - t0:.1f} s")
        for line in errors[:10]:
            print(f"    {line}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_program()
    if args.setup_probe:
        workloads.WORKLOADS[args.workload].make_inputs(args.seed, args.quick)
        print(time.perf_counter() - _T_START)
        return 0
    if args.workload is None:
        if args.quick:
            return _self_check(workloads, args)
        print("error: --workload is required", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    print(f"# workload={args.workload} seed={args.seed} blas_threads={BLAS_THREADS} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"python={sys.version.split()[0]}")
    result = run_workload(workloads.WORKLOADS[args.workload], args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
