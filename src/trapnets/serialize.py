"""File formats that the command line reads or writes.

- Network JSON, written by ``generate`` and read by every command that takes
  ``--net``.  It round-trips bit-exactly: floats are emitted with Python's
  shortest round-trip repr.
- Measure JSON, read by ``metrics``: a list of ``{"point": p, "weight": w}``
  rows.
- Trap-environment JSON, written by ``traps``: the network, the trap weights
  as decimal strings with 17 significant digits (enough to come back
  exactly), the scaling triple and the seed.
- CSV tables (kernels, paths, two-point surfaces, experiment results), with
  15 significant digits.
"""

from __future__ import annotations

import csv
import io
import json

from .errors import TrapnetsError
from .measures import DiscreteMeasure
from .networks import ElectricalNetwork, build_network
from .traps import TrapEnvironment


def network_to_json(net: ElectricalNetwork, coords: dict | None = None) -> str:
    payload = {
        "vertices": list(net.vertex_ids),
        "edges": [[u, v, w] for u, v, w in sorted(net.edges())],
        "root": net.root,
    }
    if coords is not None:
        payload["coords"] = {str(v): list(c) for v, c in coords.items()}
    return json.dumps(payload, indent=None, separators=(",", ":"))


def load_json(text: str, what: str):
    """Parse JSON text, raising TrapnetsError (not JSONDecodeError) when malformed."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise TrapnetsError(f"malformed {what} JSON: {exc}") from exc


def network_from_json(text: str) -> ElectricalNetwork:
    payload = load_json(text, "network")
    if not isinstance(payload, dict):
        raise TrapnetsError("network JSON must be an object")
    try:
        return build_network(payload["vertices"],
                             [tuple(e) for e in payload["edges"]],
                             payload["root"])
    except KeyError as exc:
        raise TrapnetsError(f"network JSON missing field {exc}") from exc


def discrete_measure_from_json(text: str, carrier) -> DiscreteMeasure:
    """Measure from a list of {"point": p, "weight": w} rows; repeated points add up.

    Raises TrapnetsError when the JSON is malformed or not of that shape.
    """
    rows = load_json(text, "measure")
    if not isinstance(rows, list):
        raise TrapnetsError("measure JSON must be a list of {point, weight} objects")
    atoms: dict = {}
    for row in rows:
        if not (isinstance(row, dict) and "point" in row and "weight" in row):
            raise TrapnetsError(f"measure JSON row {row!r} is not an object with point and weight")
        point, weight = row["point"], row["weight"]
        if isinstance(point, (list, dict)):
            raise TrapnetsError(f"measure JSON point {point!r} is not a number or string")
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise TrapnetsError(f"measure JSON weight {weight!r} is not a number")
        atoms[point] = atoms.get(point, 0.0) + float(weight)
    return DiscreteMeasure(carrier, atoms)


def environment_to_json(env: TrapEnvironment, seed: int | None = None) -> str:
    payload = {
        "network": json.loads(network_to_json(env.network)),
        "weights": {str(v): format(env.nu.atoms[v], ".17g") for v in env.network.vertex_ids},
        "scale": [env.scale.a, env.scale.b, env.scale.c],
        "seed": seed,
    }
    return json.dumps(payload, separators=(",", ":"))


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
