"""Command-line front end. All numeric output is in bits.

Results go to stdout as JSON or CSV; the resolved configuration and any
diagnostics go to stderr. Exit codes: 0 success, 1 computation failure,
2 usage or input error. Output is deterministic given the flags, byte for
byte, with floats printed to 10 significant digits. The environment
variable QCAP_THREADS caps the linear-algebra thread pools.
"""

from __future__ import annotations

import argparse
import json
import sys


def _round10(obj):
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {k: _round10(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round10(v) for v in obj]
    return obj


def _emit_json(payload):
    print(json.dumps(_round10(payload), indent=2))


def _echo_config(args, **extra):
    cfg = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    cfg.update(extra)
    print("config: " + json.dumps(_round10(cfg), sort_keys=True, default=str),
          file=sys.stderr)


class UsageError(Exception):
    pass


def _parse_preset(text):
    from . import channels

    name, _, rest = text.partition(":")
    parts = rest.split(":") if rest else []
    try:
        if name == "noiseless":
            return channels.noiseless(int(parts[0]) if parts else 2)
        if name == "amplitude-damping":
            return channels.amplitude_damping(float(parts[0]))
        if name == "erasure":
            d = int(parts[1]) if len(parts) > 1 else 2
            return channels.erasure(d, float(parts[0]))
        if name == "depolarizing":
            d = int(parts[1]) if len(parts) > 1 else 2
            return channels.depolarizing(d, float(parts[0]))
        if name == "dephasing":
            return channels.dephasing(int(parts[0]) if parts else 2)
        if name == "switched-3to2":
            return channels.switched_3to2()
    except (IndexError, ValueError) as exc:
        raise UsageError(f"bad preset parameters in {text!r}: {exc}") from exc
    raise UsageError(f"unknown preset {name!r}")


def _load_channel(args):
    if args.preset:
        return _parse_preset(args.preset)
    from .channels import ChannelSpec

    try:
        with open(args.spec, encoding="utf-8") as fh:
            return ChannelSpec.from_json(json.load(fh)).resolve()
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot load channel spec {args.spec}: {exc}") from exc


def cmd_table1(args) -> int:
    _echo_config(args)
    from . import channels
    from .capacity import ce_maximize, holevo_chi
    from .channels import Ensemble
    from .qmath import DensityOperator, apply_channel
    import numpy as np

    cases = [
        ("noiseless qubit", channels.noiseless(2), 2.0),
        ("50% erasure", channels.erasure(2, 0.5), 1.0),
        ("2/3 depolarizing", channels.depolarizing(2, 2.0 / 3.0), 0.2075),
        ("100% dephasing", channels.dephasing(2), 1.0),
    ]
    rows = []
    for label, ch, ref in cases:
        res = ce_maximize(ch, tol=args.tol)
        row = {"channel": label, "ce": res.value, "reference": ref,
               "delta": res.value - ref, "iterations": res.iterations}
        if label == "2/3 depolarizing":
            dep = channels.depolarizing(2, 2.0 / 3.0)
            outs = tuple(apply_channel(dep, DensityOperator(np.diag(v)))
                         for v in ([1.0, 0.0], [0.0, 1.0]))
            chi = holevo_chi(Ensemble(probs=(0.5, 0.5), states=outs))
            row["chi_orthogonal"] = chi
            row["chi_reference"] = 0.0817
            row["chi_delta"] = chi - 0.0817
        rows.append(row)
    _emit_json({"units": "bits", "rows": rows})
    return 0


def cmd_capacity(args) -> int:
    _echo_config(args)
    channel = _load_channel(args)
    from .capacity import EnergyConstraint, ce_maximize, ce_maximize_constrained
    from .qmath import matrix_from_json

    if args.constraint:
        try:
            with open(args.constraint, encoding="utf-8") as fh:
                spec = json.load(fh)
            cons = EnergyConstraint(matrix_from_json(spec["observable"]),
                                    float(spec["bound"]))
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise UsageError(f"cannot load constraint: {exc}") from exc
        res = ce_maximize_constrained(channel, cons, tol=args.tol)
    else:
        res = ce_maximize(channel, tol=args.tol)
    _emit_json({"units": "bits", **res.to_json()})
    return 0


def cmd_sweep(args) -> int:
    _echo_config(args)
    if not (0.0 <= args.pmin <= args.pmax < 1.0) or args.count < 2:
        raise UsageError("need 0 <= pmin <= pmax < 1 and count >= 2")
    from .capacity import ad_ce, ad_ch
    import numpy as np

    print("p,ce,ch,ratio")
    for p in np.linspace(args.pmin, args.pmax, args.count):
        ce, _ = ad_ce(float(p))
        ch, _ = ad_ch(float(p))
        ratio = ce / ch if ch > 0.0 else float("inf")
        print(",".join(f"{v:.10g}" for v in (p, ce, ch, ratio)))
    return 0


def _floats(text):
    return [float(s) for s in text.split(",") if s]


def cmd_gaussian(args) -> int:
    _echo_config(args)
    from . import gaussian

    try:
        # every row before any output, so a bad value prints nothing
        s_vals = _floats(args.photons)
        if args.limit:
            text = "S,ce_over_cshan_limit\n" + "".join(
                f"{s:.10g},{gaussian.ce_over_cshan_limit(s):.10g}\n" for s in s_vals)
        elif args.noise is None or args.gain is None:
            raise UsageError("need --N and --k unless --limit is given")
        else:
            text = gaussian.sweep_csv(gaussian.sweep(
                s_vals, _floats(args.noise), _floats(args.gain)))
    except ValueError as exc:  # a non-numeric entry or an out-of-range value
        raise UsageError(str(exc)) from exc
    sys.stdout.write(text)
    return 0


def _parse_source(text, n):
    kind, _, rest = text.partition(":")
    if kind == "fixed":
        block = rest if rest else "0" * n
        return ("fixed", [int(c) for c in block])
    if kind == "iid":
        return ("iid", _floats(rest))
    if kind == "itc-uniform":
        if not rest:
            raise UsageError("itc-uniform needs letter counts, e.g. itc-uniform:12,4")
        return ("itc-uniform", tuple(int(c) for c in rest.split(",")))
    raise UsageError(f"unknown source {text!r}")


def _rst_channel(args):
    if args.bsc is not None:
        return args.bsc
    if not args.dmc:
        raise UsageError("need --bsc or --dmc")
    from .reverse_shannon import DMC

    try:
        with open(args.dmc, encoding="utf-8") as fh:
            return DMC.from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot load channel {args.dmc}: {exc}") from exc


def cmd_rst_simulate(args) -> int:
    _echo_config(args)
    channel = _rst_channel(args)
    from .reverse_shannon import DMC, ProtocolConfig, cost_statistics

    variant = "general" if isinstance(channel, DMC) else "bsc"
    try:
        cfg = ProtocolConfig(n=args.n, eps=args.eps, variant=variant)
        source = _parse_source(args.source, args.n)
        stats = cost_statistics(channel, cfg, args.trials, source, args.seed)
    except ValueError as exc:
        # every ValueError here stems from a flag value: a malformed
        # --source, or a value the library rejects
        raise UsageError(str(exc)) from exc
    _emit_json({"units": "bits", "variant": variant, **stats})
    return 0


def cmd_rst_verify(args) -> int:
    _echo_config(args)
    channel = _rst_channel(args)
    from .reverse_shannon import exact_faithfulness_oracle

    try:
        dev = exact_faithfulness_oracle(channel, args.n, eps=args.eps,
                                        zsize=args.zsize)
    except ValueError as exc:
        # a missing --eps/--zsize, a bad --bsc, or a set past the guards
        raise UsageError(str(exc)) from exc
    _emit_json({"max_deviation": dev, "tolerance": 1e-12,
                "exact": bool(dev <= 1e-12)})
    return 0


def cmd_typical(args) -> int:
    _echo_config(args)
    from fractions import Fraction

    from .qmath import DensityOperator
    from .typeclasses import typical_subspace_report
    import numpy as np

    try:
        probs = _floats(args.probs)
        if abs(sum(probs) - 1.0) > 1e-9:
            raise UsageError("--probs must sum to 1")
        delta = Fraction(args.delta) if "/" in args.delta else float(args.delta)
        rho = DensityOperator(np.diag(probs))
        report = typical_subspace_report(rho, args.n, delta, eps=args.eps)
    except (ValueError, ZeroDivisionError) as exc:  # e.g. --delta abc, --n 0
        raise UsageError(str(exc)) from exc
    _emit_json(report.to_json())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qcap",
        description="Channel capacity calculations and channel simulation "
                    "protocols; all rates in bits.")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("table1", help="benchmark capacities with references")
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("capacity", help="entanglement-assisted capacity")
    psub = p.add_subparsers(dest="mode", required=True)
    pce = psub.add_parser("ce", help="maximize the capacity objective")
    g = pce.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset", help="e.g. amplitude-damping:0.5, noiseless:2")
    g.add_argument("--spec", help="channel description JSON file")
    pce.add_argument("--constraint", help="JSON file with observable and bound")
    pce.add_argument("--tol", type=float, default=1e-7)
    pce.set_defaults(func=cmd_capacity)

    p = sub.add_parser("sweep", help="damping-channel capacity grid CSV")
    p.add_argument("--pmin", type=float, default=0.0)
    p.add_argument("--pmax", type=float, default=0.9999)
    p.add_argument("--count", type=int, default=21)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gaussian", help="bosonic-channel capacity CSV")
    p.add_argument("--S", dest="photons", required=True,
                   help="comma list of mean photon numbers")
    p.add_argument("--N", dest="noise", help="comma list of added noise")
    p.add_argument("--k", dest="gain", help="comma list of gains")
    p.add_argument("--limit", action="store_true",
                   help="emit the high-noise capacity ratio limit instead")
    p.set_defaults(func=cmd_gaussian)

    p = sub.add_parser("rst", help="classical channel simulation protocol")
    rsub = p.add_subparsers(dest="mode", required=True)
    ps = rsub.add_parser("simulate", help="Monte-Carlo cost statistics")
    ps.add_argument("--bsc", type=float, help="flip probability")
    ps.add_argument("--dmc", help="transition-matrix JSON file")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--eps", type=float, required=True)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--trials", type=int, default=1000)
    ps.add_argument("--source", default="fixed:")
    ps.set_defaults(func=cmd_rst_simulate)
    pv = rsub.add_parser("verify-exact", help="enumerate the protocol exactly")
    pv.add_argument("--bsc", type=float)
    pv.add_argument("--dmc")
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--eps", type=float)
    pv.add_argument("--zsize", type=int)
    pv.set_defaults(func=cmd_rst_verify)

    p = sub.add_parser("typical", help="typical-subspace diagnostics")
    tsub = p.add_subparsers(dest="mode", required=True)
    pt = tsub.add_parser("check", help="report the three subspace properties")
    pt.add_argument("--probs", required=True, help="comma list of eigenvalues")
    pt.add_argument("--n", type=int, required=True)
    pt.add_argument("--delta", required=True,
                    help="width parameter; fractions like 1/10 stay exact")
    pt.add_argument("--eps", type=float, default=0.1)
    pt.set_defaults(func=cmd_typical)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
