"""Seeded scan of MPC solves under current-rate limits.

Draws random control problems (horizon 2-30, SOC 0.12-0.88, energy target
within +-2 kWh * h/30, voltage-model state within +-1, rate limit +-2..40
A/step), solves each with ``mpc.solve`` and prints the decision-status counts,
the solve-path counts (closed form, barrier, ...) and the draws that did not
return ``solved``.

Run from the repository root:

    PYTHONPATH=src python scripts/mpc_rate_scan.py [--seed 0] [--count 600]
"""

from __future__ import annotations

import argparse
from collections import Counter

import numpy as np

from feederdispatch.battery import ModelBank
from feederdispatch.mpc import MpcLimits, MpcProblem, solve


def draw(bank: ModelBank, rng: np.random.Generator) -> MpcProblem:
    h = int(rng.integers(2, 31))
    soc = float(rng.uniform(0.12, 0.88))
    e_k = float(rng.uniform(-2, 2)) * h / 30.0
    x = rng.uniform(-1, 1, 2)
    di = float(rng.uniform(2, 40))
    tv = bank.transitions(bank.voltage_model(soc), h)
    ts = bank.transitions(bank.soc_model, h)
    return MpcProblem(horizon=h, e_k=e_k, phi_v=tv.phi, psi_v_i=tv.psi_i,
                      psi_v_1=tv.psi_1, phi_soc=ts.phi, psi_soc_i=ts.psi_i,
                      x_k=x, soc_k=soc, v_k=652.0,
                      limits=MpcLimits(di_min=-di, di_max=di))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=600)
    args = ap.parse_args()
    bank = ModelBank()
    rng = np.random.default_rng(args.seed)
    statuses = Counter()
    paths = Counter()
    iterations = []
    for j in range(args.count):
        p = draw(bank, rng)
        dec = solve(p)
        statuses[dec.status] += 1
        paths[dec.path] += 1
        iterations.append(dec.iterations)
        if dec.status != "solved":
            print(f"draw {j}: h={p.horizon} soc={p.soc_k:.3f} e_k={p.e_k:.4f} "
                  f"di={p.limits.di_max:.2f} -> {dec.status} ({dec.iterations} iterations)")
    print("status counts:", dict(statuses))
    print("path counts:", dict(paths))
    print("Newton iterations p50/p99/max:",
          "/".join(f"{v:.0f}" for v in np.percentile(iterations, [50, 99, 100])))


if __name__ == "__main__":
    main()
