"""Command-line interface.

Subcommands: generate, resistance, simulate, aging, subaging, traps,
metrics, experiment, validate.  Stochastic commands require --seed.  Exit
codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import dynamics, ensembles, experiments, serialize, validate
from .errors import TrapnetsError
from .measures import dis_measure_distance, prohorov, vague_distance
from .networks import boundary_resistance, effective_resistance
from .rng import RngStream
from .traps import TrapLaw, make_environment


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text)


def _cmd_generate(args) -> int:
    if args.ensemble == "sierpinski":
        g = ensembles.sierpinski(args.level)
        _write(args.out, serialize.network_to_json(g.network, coords=g.coords))
        return 0
    stream = RngStream(args.seed)
    # Enumeration limits tilted trees to 8 vertices.
    size = args.size if args.size is not None else 8 if args.ensemble == "tilted" else 10
    if args.ensemble == "path":
        law = ensembles.UniformConductanceLaw(args.cmin, args.cmax)
        g = ensembles.conductance_path(args.window, law, stream)
        _write(args.out, serialize.network_to_json(g.network, coords=g.coords))
    elif args.ensemble == "cayley":
        tree = ensembles.as_plane_tree(
            ensembles.uniform_cayley_tree(size, stream), size)
        _write(args.out, serialize.network_to_json(tree.network()))
    elif args.ensemble == "tilted":
        tree = ensembles.tilted_tree(size, args.p, stream.child(0))
        net = ensembles.surplus_attachment(tree, args.p, stream.child(1))
        _write(args.out, serialize.network_to_json(net))
    elif args.ensemble == "er":
        net = ensembles.er_largest_component(size, args.lam, stream)
        _write(args.out, serialize.network_to_json(net))
    else:  # pragma: no cover - argparse restricts choices
        raise TrapnetsError(f"unknown ensemble {args.ensemble!r}")
    return 0


def _load_net(path: str):
    return serialize.network_from_json(Path(path).read_text())


def _cmd_resistance(args) -> int:
    net = _load_net(args.net)
    if args.boundary is not None:
        value = boundary_resistance(net, args.source, args.boundary)
        print(serialize.format_value(value) if value != float("inf") else "inf")
        return 0
    if args.source is not None and args.target is not None:
        print(serialize.format_value(effective_resistance(net, args.source, args.target)))
        return 0
    ids = net.vertex_ids
    _write(None, serialize.csv_text([""] + [str(v) for v in ids],
                                    ([str(v)] + [serialize.format_value(x) for x in row]
                                     for v, row in zip(ids, net.resistance_matrix))))
    return 0


def _environment(args):
    net = _load_net(args.net)
    law = TrapLaw(args.alpha, args.u_min)
    return make_environment(net, law, args.a, args.b, RngStream(args.seed))


def _cmd_simulate(args) -> int:
    env = _environment(args)
    if args.kernel_at is not None:
        kernel = dynamics.transition_kernel(env.generator, args.kernel_at)
        _write(args.out, serialize.kernel_to_csv(kernel))
        return 0
    if args.horizon is None:
        print("error: simulate needs --horizon (or --kernel-at)", file=sys.stderr)
        return 2
    start = args.start if args.start is not None else env.network.root
    path = dynamics.simulate_path(env.generator, start, args.horizon,
                                  RngStream(args.seed).child(1))
    _write(args.out, serialize.path_to_csv(path))
    return 0


def _cmd_surface(args, mode: str) -> int:
    env = _environment(args)
    surface = dynamics.scaled_surface(env, env.network.root, args.s, args.t, mode)
    _write(args.out, serialize.surface_to_csv(surface))
    return 0


def _cmd_traps(args) -> int:
    env = _environment(args)
    _write(args.out, serialize.environment_to_json(env, seed=args.seed))
    return 0


def _cmd_metrics(args) -> int:
    net = _load_net(args.net)
    space = net.resistance_space
    mu = serialize.discrete_measure_from_json(Path(args.measure_a).read_text(), space)
    nu = serialize.discrete_measure_from_json(Path(args.measure_b).read_text(), space)
    print("prohorov," + serialize.format_value(prohorov(mu, nu)))
    print("vague," + serialize.format_value(vague_distance(mu, nu)))
    print("dis_measure," + serialize.format_value(dis_measure_distance(mu, nu)))
    return 0


def _cmd_experiment(args) -> int:
    config = experiments.ExperimentConfig.from_dict(
        serialize.load_json(Path(args.config).read_text(), "config"))
    runner = {
        "aging": experiments.run_aging_experiment,
        "subaging": experiments.run_subaging_experiment,
        "two_point": experiments.run_two_point_experiment,
        "traps": experiments.run_trap_convergence,
        "metrics": experiments.run_metric_convergence,
    }.get(config.experiment)
    if runner is None:
        print(f"unknown experiment type {config.experiment!r}", file=sys.stderr)
        return 2
    table = runner(config)
    _write(config.out or args.out, table.to_csv())
    if table.failures:
        print(f"warning: {table.failures} replica failures", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    results = validate.run_suite(seed=args.seed, quick=not args.full)
    ok_all = True
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        ok_all &= ok
    return 0 if ok_all else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trapnets")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an ensemble network as JSON")
    gen.add_argument("--ensemble", required=True,
                     choices=["sierpinski", "path", "cayley", "tilted", "er"])
    gen.add_argument("--level", type=int, default=2)
    gen.add_argument("--window", type=int, default=8)
    gen.add_argument("--size", type=int,
                     help="vertex count for cayley and tilted, n for er "
                          "(default 10; 8 for tilted)")
    gen.add_argument("--p", type=float, default=0.3)
    gen.add_argument("--lam", type=float, default=0.0)
    gen.add_argument("--cmin", type=float, default=0.5)
    gen.add_argument("--cmax", type=float, default=2.0)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", default="-")

    res = sub.add_parser("resistance", help="pairwise or boundary resistances")
    res.add_argument("--net", required=True)
    res.add_argument("--source", type=int)
    res.add_argument("--target", type=int)
    res.add_argument("--boundary", type=float,
                     help="radius r for R({source}, complement of B(source, r))")

    for name, help_text in (("simulate", "sample a trap-model path"),
                            ("aging", "aging two-point surface"),
                            ("subaging", "sub-aging two-point surface"),
                            ("traps", "sample and write a trap environment")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--net", required=True)
        cmd.add_argument("--alpha", type=float, required=True)
        cmd.add_argument("--u-min", type=float, default=1.0, dest="u_min")
        cmd.add_argument("--a", type=float, default=1.0)
        cmd.add_argument("--b", type=float, default=1.0)
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--out", default="-")
        if name == "simulate":
            cmd.add_argument("--start", type=int)
            cmd.add_argument("--horizon", type=float)
            cmd.add_argument("--kernel-at", type=float, dest="kernel_at",
                             help="dump the dense transition kernel at this time instead")
        if name in ("aging", "subaging"):
            cmd.add_argument("--s", type=float, nargs="+", required=True)
            cmd.add_argument("--t", type=float, nargs="+", required=True)

    met = sub.add_parser("metrics", help="distances between two measure files")
    met.add_argument("--net", required=True)
    met.add_argument("--measure-a", required=True)
    met.add_argument("--measure-b", required=True)

    exp = sub.add_parser("experiment", help="run a config-driven experiment")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", default="-")

    val = sub.add_parser("validate", help="run the invariant suite")
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--full", action="store_true")
    return parser


_STOCHASTIC = {"simulate", "aging", "subaging", "traps"}
_STOCHASTIC_ENSEMBLES = {"path", "cayley", "tilted", "er"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    needs_seed = args.command in _STOCHASTIC or (
        args.command == "generate" and args.ensemble in _STOCHASTIC_ENSEMBLES)
    if needs_seed and args.seed is None:
        parser.error(f"--seed is required for stochastic command {args.command!r}")
    handlers = {
        "generate": _cmd_generate,
        "resistance": _cmd_resistance,
        "simulate": _cmd_simulate,
        "aging": lambda a: _cmd_surface(a, "aging"),
        "subaging": lambda a: _cmd_surface(a, "subaging"),
        "traps": _cmd_traps,
        "metrics": _cmd_metrics,
        "experiment": _cmd_experiment,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except TrapnetsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
