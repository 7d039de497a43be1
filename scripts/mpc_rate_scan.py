"""Seeded scan of MPC solves under current-rate limits.

Draws random control problems (horizon 2-30, SOC 0.12-0.88, energy target
within +-2 kWh * h/30, voltage-model state within +-1, rate limit +-2..40
A/step), solves each with ``mpc.solve`` and prints the decision-status counts,
the solve-path counts (closed form, parametric, least distance), the NNLS
solves per draw, how many least-distance points were certified on fewer rows
(those the closed form breaks, or those the unconstrained minimum breaks) and
how many needed the NNLS on all rows, the draws that did not return ``solved``
and, last, two SHA-256 digests in draw order: one of every actuated trajectory
and one of the bits of every certificate's KKT residual, so that two versions
of the solver can be compared for identical decisions and certificates by two
lines.

``--low-soc`` draws the SOC at or just below ``soc_min`` instead (a third of
the draws exactly at it, the rest up to 0.002 below, which one step of
charging can make up) and a discharge target of 0.2-2 kWh * h/30, which the
SOC floor puts beyond reach: every draw should come back
``infeasible-clipped`` through the least-distance path.

Run from the repository root:

    PYTHONPATH=src python scripts/mpc_rate_scan.py [--seed 0] [--count 600] [--low-soc]
"""

from __future__ import annotations

import argparse
import hashlib
from collections import Counter

import numpy as np

from feederdispatch import solver
from feederdispatch.battery import ModelBank
from feederdispatch.mpc import MpcLimits, MpcProblem, solve


def draw(bank: ModelBank, rng: np.random.Generator, low_soc: bool) -> MpcProblem:
    h = int(rng.integers(2, 31))
    if low_soc:
        soc = MpcLimits().soc_min - max(0.0, float(rng.uniform(-1e-3, 2e-3)))
        e_k = -float(rng.uniform(0.2, 2)) * h / 30.0
    else:
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


def _relaxations(q: solver.QcqpProblem) -> int:
    """How many least-distance programs on fewer rows a solve of q tries: one on
    the rows its closed form breaks, one on those its unconstrained minimum
    breaks, unless they are the same rows."""
    cf = solver._closed_form(q)
    unconstrained = solver._whitened_rhs(q)[1] < 0.0
    broken = q.b_ineq - q.a_ineq @ cf.x < 0.0 if cf is not None else unconstrained
    if np.array_equal(broken, unconstrained):
        return int(broken.any())
    return int(broken.any()) + int(unconstrained.any())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=600)
    ap.add_argument("--low-soc", action="store_true",
                    help="SOC at or just below soc_min with unreachable discharge targets")
    args = ap.parse_args()
    bank = ModelBank()
    rng = np.random.default_rng(args.seed)
    statuses = Counter()
    paths = Counter()
    least_distance = Counter()
    iterations = []
    residuals = []
    digest = hashlib.sha256()
    residual_digest = hashlib.sha256()
    for j in range(args.count):
        p = draw(bank, rng, args.low_soc)
        dec = solve(p)
        statuses[dec.status] += 1
        paths[dec.path] += 1
        if dec.path != "closed-form":           # the solve needed a least-distance point
            ld = solver.least_distance(p._qcqp)
            least_distance["fewer rows" if ld[1].iterations <= _relaxations(p._qcqp)
                           else "all rows"] += 1
        iterations.append(dec.iterations)
        residuals.append(dec.kkt_residual)
        digest.update(dec.i_traj.tobytes())
        residual_digest.update(np.float64(dec.kkt_residual).tobytes())
        if dec.status != ("infeasible-clipped" if args.low_soc else "solved"):
            print(f"draw {j}: h={p.horizon} soc={p.soc_k:.5f} e_k={p.e_k:.4f} "
                  f"di={p.limits.di_max:.2f} -> {dec.status} ({dec.iterations} NNLS solves)")
    print("status counts:", dict(statuses))
    print("path counts:", dict(paths))
    print("NNLS solves p50/p99/max:",
          "/".join(f"{v:.0f}" for v in np.percentile(iterations, [50, 99, 100])))
    print("least-distance points:", dict(least_distance))
    print(f"largest KKT residual: {np.nanmax(residuals):.2e}")
    print("trajectory digest:", digest.hexdigest())
    print("residual digest:", residual_digest.hexdigest())


if __name__ == "__main__":
    main()
