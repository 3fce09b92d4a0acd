"""Command-line harness: identity suite, estimate probes, bridge check.

Exit code 0 means every asserted invariant passed, 1 that a check
failed and 2 that the arguments were rejected or an output file could not
be written.  Reports are JSON documents (one per run) with deterministic
bytes for a fixed parameter set and seed; an optional CSV carries the
per-sample ratios.
"""

from __future__ import annotations

import argparse
import sys

from . import bridge as bridge_mod
from .fields import GridSpec
from .probes import (IDENTITIES, ProbeReport, bridge_sample,
                     estimate_probe_interior, estimate_probe_weighted,
                     halfspace_probe, run_identity_suite, worst_of)


def _print_identity_lines(report: ProbeReport):
    for check in report.samples:
        rel = ">=" if check["mode"] == "ge" else "<="
        # a failing line states the bound that the residual needed
        status, sep = ("PASS", " ") if check["pass"] else ("FAIL", ", needs ")
        print(f"{status} {check['name']}: residual {check['residual']:.3e}"
              f"{sep}{rel} {check['tolerance']:.1e}")
    agg = report.aggregates
    print(f"{agg['n_pass']}/{agg['n_total']} identities pass")


def _cmd_identities(args) -> int:
    report = run_identity_suite(args.dim, args.grid, args.seed)
    _print_identity_lines(report)
    if args.out:
        report.write_json(args.out)
        print(f"report written to {args.out}")
    return 0 if report.passed else 1


# the estimate options a variant does not read
_UNREAD = {"interior": ("tau",), "weighted": (), "halfspace": ("weight", "tau")}


def _cmd_estimate(args) -> int:
    for name in _UNREAD[args.variant]:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name} is not read by the {args.variant} variant")
    args.weight = 0.0 if args.weight is None else args.weight
    args.tau = 1.0 if args.tau is None else args.tau
    if args.grid is None:
        # the half-space reconstruction with scalar media (N = 3, rank 1,
        # seed 1, two members) reads 1.8e-7 at 32 points, past its 1e-8
        # bound, and 1.1e-12 at 48
        args.grid = 48 if args.variant == "halfspace" else 32
    if args.variant == "interior":
        report = estimate_probe_interior(args.dim, args.rank, args.order,
                                         args.weight, args.media,
                                         args.ensemble, args.grid, args.seed)
    elif args.variant == "weighted":
        report = estimate_probe_weighted(args.dim, args.rank, args.order,
                                         args.weight, args.tau, args.media,
                                         args.ensemble, args.grid, args.seed)
    else:
        report = halfspace_probe(args.dim, args.rank, args.order, args.media,
                                 args.ensemble, args.grid, args.seed)
    agg = report.aggregates
    print(f"{report.probe}: sup ratio {agg['sup_ratio']:.6g}, "
          f"mean {agg['mean_ratio']:.6g}")
    for name, ok in report.flags.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    if args.out:
        report.write_json(args.out)
        print(f"report written to {args.out}")
    if args.csv:
        report.write_csv(args.csv)
        print(f"samples written to {args.csv}")
    return 0 if report.passed else 1


def _cmd_bridge(args) -> int:
    grid = GridSpec(3, 3.0, args.grid)
    bound = IDENTITIES["bridge-dictionary"][0]
    worst = 0.0
    ok = True
    for i in range(5):
        v = bridge_sample(grid, args.seed, i)
        residuals = bridge_mod.bridge_residuals(v)
        worst = worst_of([worst, *residuals.values()])
        ok = ok and bridge_mod.roundtrip_exact(v)
        for name, value in sorted(residuals.items()):
            print(f"sample {i} {name}: {value:.3e}")
    rows = "PASS" if worst <= bound else "FAIL"
    print(f"{rows} dictionary rows (worst {worst:.3e} <= {bound:.0e})")
    print(f"{'PASS' if ok else 'FAIL'} bridge-inverse roundtrip exact")
    return 0 if (ok and worst <= bound) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formprobe",
        description="numerical verification harness for the operator "
                    "algebra of alternating forms on periodic grids")
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identities", help="run the aggregated identity suite")
    p_id.add_argument("--dim", type=int, default=3)
    p_id.add_argument("--grid", type=int, default=32)
    p_id.add_argument("--seed", type=int, default=0)
    p_id.add_argument("--out", type=str, default=None)
    p_id.set_defaults(func=_cmd_identities)

    p_est = sub.add_parser("estimate", help="run a regularity-estimate probe")
    p_est.add_argument("--variant", choices=("interior", "weighted", "halfspace"),
                       required=True)
    p_est.add_argument("--dim", type=int, default=3)
    p_est.add_argument("--rank", type=int, default=1)
    p_est.add_argument("--order", type=int, default=0)
    p_est.add_argument("--weight", type=float, default=None,
                       help="interior and weighted only (default 0)")
    p_est.add_argument("--tau", type=float, default=None,
                       help="weighted only (default 1)")
    p_est.add_argument("--media", type=str, default="id",
                       help="id | scalar | NAME[:KEY=VALUE,...] with NAME (KEYs) "
                            "gauss_well (amplitude, width) or radial_power "
                            "(amplitude, tau)")
    p_est.add_argument("--ensemble", type=int, default=50)
    p_est.add_argument("--grid", type=int, default=None,
                       help="points per axis (default 32; 48 for halfspace)")
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--out", type=str, default=None)
    p_est.add_argument("--csv", type=str, default=None)
    p_est.set_defaults(func=_cmd_estimate)

    p_br = sub.add_parser("bridge", help="check the classical N=3 dictionary")
    p_br.add_argument("--grid", type=int, default=32)
    p_br.add_argument("--seed", type=int, default=0)
    p_br.set_defaults(func=_cmd_bridge)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # rejected arguments: argparse's status 2
        parser.exit(2, f"{parser.prog}: error: {err}\n")


if __name__ == "__main__":
    sys.exit(main())
