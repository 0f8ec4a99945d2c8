"""File formats: network JSON, measure JSON, trap-environment JSON, CSV tables.

Network files round-trip bit-exactly: floats are emitted with Python's
shortest round-trip repr.  Trap weights are written as decimal strings with
17 significant digits; distances and table values use 15 significant digits.
"""

from __future__ import annotations

import csv
import io
import json

from .errors import TrapnetsError
from .measures import DiscreteMeasure
from .networks import ElectricalNetwork, build_network
from .traps import ScaleTriple, TrapEnvironment


def network_to_json(net: ElectricalNetwork, coords: dict | None = None) -> str:
    payload = {
        "vertices": list(net.vertex_ids),
        "edges": [[u, v, w] for u, v, w in sorted(net.edges())],
        "root": net.root,
    }
    if coords is not None:
        payload["coords"] = {str(v): list(c) for v, c in coords.items()}
    return json.dumps(payload, indent=None, separators=(",", ":"))


def network_from_json(text: str) -> ElectricalNetwork:
    payload = json.loads(text)
    try:
        return build_network(payload["vertices"],
                             [tuple(e) for e in payload["edges"]],
                             payload["root"])
    except KeyError as exc:
        raise TrapnetsError(f"network JSON missing field {exc}") from exc


def measure_to_json(measure: DiscreteMeasure) -> str:
    if not isinstance(measure, DiscreteMeasure):
        raise TrapnetsError("only discrete measures have a JSON format")
    rows = [{"point": p, "weight": w} for p, w in measure.atoms.items()]
    return json.dumps(rows, separators=(",", ":"))


def discrete_measure_from_json(text: str, carrier) -> DiscreteMeasure:
    rows = json.loads(text)
    atoms: dict = {}
    for row in rows:
        atoms[row["point"]] = atoms.get(row["point"], 0.0) + float(row["weight"])
    return DiscreteMeasure(carrier, atoms)


def environment_to_json(env: TrapEnvironment, seed: int | None = None) -> str:
    payload = {
        "network": json.loads(network_to_json(env.network)),
        "weights": {str(v): format(env.nu.atoms[v], ".17g") for v in env.network.vertex_ids},
        "scale": [env.scale.a, env.scale.b, env.scale.c],
        "seed": seed,
    }
    return json.dumps(payload, separators=(",", ":"))


def environment_from_json(text: str, carrier=None) -> TrapEnvironment:
    payload = json.loads(text)
    net = network_from_json(json.dumps(payload["network"]))
    atoms = {int(v): float(w) for v, w in payload["weights"].items()}
    nu = DiscreteMeasure(carrier, atoms)
    a, b, c = payload["scale"]
    return TrapEnvironment(net, nu, ScaleTriple(a, b, c))


def format_value(x: float) -> str:
    return format(x, ".15g")


def csv_text(header, rows) -> str:
    """RFC-4180 text of a header and rows of cells, each line ended by "\\n"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def surface_to_csv(surface) -> str:
    return csv_text(["s", "t", "value"],
                    ([format_value(s), format_value(t), format_value(v)]
                     for s, t, v in surface.rows()))


def kernel_to_csv(kernel) -> str:
    matrix = kernel.matrix
    if matrix.shape[0] > 100:
        raise TrapnetsError("kernel dumps are limited to 100 states")
    ids = kernel.generator.net.vertex_ids
    return csv_text(["state"] + [str(v) for v in ids],
                    ([str(v)] + [format_value(x) for x in row] for v, row in zip(ids, matrix)))


def path_to_csv(path) -> str:
    return csv_text(["state", "duration"],
                    ([str(s), format_value(d)] for s, d in zip(path.states, path.durations)))
