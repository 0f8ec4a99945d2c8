"""Recompute the small-alpha probe oracle with an mpmath eigendecomposition.

The probes evaluate aging_phi(1, 2) and subaging_psi(1, 1) on pinned gasket
environments (levels 3 and 4, alpha 0.1 and 0.05, traps from
RngStream(11).child(1)).  Their trap measures span tens of orders of
magnitude, which is where double-precision spectral kernels lose the slow
modes.  This script rebuilds each environment, eigendecomposes the
sqrt(nu)-symmetrized generator in mpmath at two working precisions, checks
that both agree, and writes the values to small_alpha_oracle.json next to
this file.

Run from the repository root:

    python3 perfbench/small_alpha_oracle.py

It takes a few minutes with mpmath's pure-Python backend.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ORACLE_PATH = HERE / "small_alpha_oracle.json"
COMMAND = "python3 perfbench/small_alpha_oracle.py"

LEVELS = (3, 4)
ALPHAS = (0.1, 0.05)
TRAP_SEED, TRAP_CHILD = 11, 1
# (function, s, t) evaluated on every probe environment.
PROBES = (("aging_phi", 1.0, 2.0), ("subaging_psi", 1.0, 1.0))
DIGITS = (100, 140)
AGREE_TOL = 1e-30


def probe_environment(level: int, alpha: float):
    """The pinned environment of one probe: (network, trap values, a, c)."""
    from trapnets import TrapLaw, make_environment, sierpinski
    from trapnets.rng import RngStream

    net = sierpinski(level).network
    a, b = (5.0 / 3.0) ** level, 3.0 ** level
    env = make_environment(net, TrapLaw(alpha), a, b, RngStream(TRAP_SEED).child(TRAP_CHILD))
    nu = [env.nu.atoms[v] for v in net.vertex_ids]
    return net, nu, env.scale.a, env.scale.c


def nu_digest(nu) -> str:
    """Fingerprint of the trap values, so a run can tell that its inputs match."""
    return hashlib.sha256(",".join(float(x).hex() for x in nu).encode()).hexdigest()


def _two_point_values(net, nu, a, c, dps: int) -> dict:
    import mpmath as mp

    mp.mp.dps = dps
    n = net.n_vertices
    index = {v: i for i, v in enumerate(net.vertex_ids)}
    nu_mp = [mp.mpf(x) for x in nu]
    mu = [mp.mpf(0)] * n
    sym = mp.zeros(n, n)
    for u, v, w in net.edges():
        i, j = index[u], index[v]
        w = mp.mpf(w)
        mu[i] += w
        mu[j] += w
        sym[i, j] = sym[j, i] = w / mp.sqrt(nu_mp[i] * nu_mp[j])
    for i in range(n):
        sym[i, i] = -mu[i] / nu_mp[i]
    lam, vec = mp.eigsy(sym)
    root = index[net.root]
    unit = mp.mpf(a) * mp.mpf(c)

    def row(t):
        ex = [mp.exp(lam[k] * t) for k in range(n)]
        return [mp.sqrt(nu_mp[y] / nu_mp[root])
                * mp.fsum(vec[root, k] * vec[y, k] * ex[k] for k in range(n))
                for y in range(n)]

    def diagonal(t):
        ex = [mp.exp(lam[k] * t) for k in range(n)]
        return [mp.fsum(vec[x, k] ** 2 * ex[k] for k in range(n)) for x in range(n)]

    out = {}
    for name, s, t in PROBES:
        if name == "aging_phi":
            lo, hi = min(s, t), max(s, t)
            r, d = row(unit * lo), diagonal(unit * (hi - lo))
            out[name] = mp.fsum(r[x] * d[x] for x in range(n))
        else:
            r = row(unit * t)
            out[name] = mp.fsum(r[x] * mp.exp(-mu[x] * mp.mpf(c) * s / nu_mp[x])
                                for x in range(n))
    return out


def compute() -> list:
    import mpmath as mp

    records = []
    for level in LEVELS:
        for alpha in ALPHAS:
            net, nu, a, c = probe_environment(level, alpha)
            runs = [_two_point_values(net, nu, a, c, dps) for dps in DIGITS]
            for name, s, t in PROBES:
                lo_prec, hi_prec = runs[0][name], runs[-1][name]
                if abs(lo_prec - hi_prec) > AGREE_TOL:
                    raise SystemExit(f"{name} at level {level}, alpha {alpha}: {DIGITS[0]} and "
                                     f"{DIGITS[-1]} digits differ by {mp.nstr(lo_prec - hi_prec, 3)}")
                records.append({
                    "level": level, "alpha": alpha, "function": name, "s": s, "t": t,
                    "value": mp.nstr(hi_prec, 40),
                    "nu_sha256": nu_digest(nu),
                    "nu_span": [min(nu), max(nu)],
                })
                print(f"level {level} alpha {alpha} {name}({s}, {t}) = {mp.nstr(hi_prec, 20)}",
                      flush=True)
    return records


def main() -> int:
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    records = compute()
    payload = {
        "command": COMMAND,
        "method": (f"mpmath eigsy of the sqrt(nu)-symmetrized generator at {DIGITS} "
                   f"decimal digits; both precisions agree to {AGREE_TOL:g}"),
        "trap_stream": [TRAP_SEED, TRAP_CHILD],
        "probes": records,
    }
    ORACLE_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
