"""Command-line front end. All numeric output is in bits.

Results go to stdout as JSON or CSV; the resolved configuration and any
diagnostics go to stderr. Exit codes: 0 success; 1 a computation failure
(a RuntimeError, such as a solve that does not converge); 2 a usage
error, which includes any ValueError raised from an argument's value.
An input error prints nothing on stdout. Output is deterministic given
the flags, byte for byte, with floats printed to 10 significant digits.
The environment variable QCAP_THREADS caps the linear-algebra thread
pools.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

# the solver, sweep, protocol and report entry points are called through
# their modules, so a wrapper installed on the module attribute sees them
from . import capacity, channels, gaussian, reverse_shannon, typeclasses
from .channels import ChannelSpec, Ensemble
from .qmath import DensityOperator, _check_distribution, apply_channel, matrix_from_json


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


def _echo_config(args):
    cfg = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    print("config: " + json.dumps(_round10(cfg), sort_keys=True, default=str),
          file=sys.stderr)


class UsageError(Exception):
    pass


def _load_json(path, what, build):
    """build(parsed file); a file that cannot be read or built is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return build(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"cannot load {what} {path}: {exc}") from exc


# preset name -> names of its positional parameters; the ChannelSpec kind
# is the name with "-" read as "_"
_PRESETS = {
    "noiseless": ("d",),
    "amplitude-damping": ("p",),
    "erasure": ("p", "d"),
    "depolarizing": ("q", "d"),
    "dephasing": ("d",),
    "switched-3to2": (),
}


def _parse_preset(text):
    name, _, rest = text.partition(":")
    if name not in _PRESETS:
        raise UsageError(f"unknown preset {name!r}")
    names = _PRESETS[name]
    fields = rest.split(":") if rest else []
    if len(fields) > len(names):
        raise UsageError(f"preset {name!r} takes at most {len(names)} parameters, "
                         f"got {len(fields)}")
    try:
        params = {"d": 2} if "d" in names else {}
        params.update(zip(names, map(float, fields)))
        return ChannelSpec(name.replace("-", "_"), params).resolve()
    except ValueError as exc:
        raise UsageError(f"bad preset parameters in {text!r}: {exc}") from exc


def _load_channel(args):
    if args.preset:
        return _parse_preset(args.preset)
    return _load_json(args.spec, "channel spec",
                      lambda data: ChannelSpec.from_json(data).resolve())


def _constraint(spec):
    return capacity.EnergyConstraint(matrix_from_json(spec["observable"]),
                                     float(spec["bound"]))


def cmd_table1(args) -> int:
    cases = [
        ("noiseless qubit", channels.noiseless(2), 2.0),
        ("50% erasure", channels.erasure(2, 0.5), 1.0),
        ("2/3 depolarizing", channels.depolarizing(2, 2.0 / 3.0), 0.2075),
        ("100% dephasing", channels.dephasing(2), 1.0),
    ]
    rows = []
    for label, ch, ref in cases:
        res = capacity.ce_maximize(ch, tol=args.tol)
        row = {"channel": label, "ce": res.value, "reference": ref,
               "delta": res.value - ref, "iterations": res.iterations}
        if label == "2/3 depolarizing":
            outs = tuple(apply_channel(ch, DensityOperator(np.diag(v)))
                         for v in ([1.0, 0.0], [0.0, 1.0]))
            chi = capacity.holevo_chi(Ensemble(probs=(0.5, 0.5), states=outs))
            row["chi_orthogonal"] = chi
            row["chi_reference"] = 0.0817
            row["chi_delta"] = chi - 0.0817
        rows.append(row)
    _emit_json({"units": "bits", "rows": rows})
    return 0


def cmd_capacity(args) -> int:
    channel = _load_channel(args)
    if args.constraint:
        cons = _load_json(args.constraint, "constraint", _constraint)
        res = capacity.ce_maximize_constrained(channel, cons, tol=args.tol)
    else:
        res = capacity.ce_maximize(channel, tol=args.tol)
    _emit_json({"units": "bits", **res.to_json()})
    return 0


def cmd_sweep(args) -> int:
    if not (0.0 <= args.pmin <= args.pmax < 1.0) or args.count < 2:
        raise UsageError("need 0 <= pmin <= pmax < 1 and count >= 2")
    print("p,ce,ch,ratio")
    for p in np.linspace(args.pmin, args.pmax, args.count):
        ce, _ = capacity.ad_ce(float(p))
        ch, _ = capacity.ad_ch(float(p))
        ratio = ce / ch if ch > 0.0 else float("inf")
        print(",".join(f"{v:.10g}" for v in (p, ce, ch, ratio)))
    return 0


def _floats(text):
    vals = [float(s) for s in text.split(",") if s]
    if not vals:
        raise UsageError(f"need a comma list of numbers, got {text!r}")
    return vals


def cmd_gaussian(args) -> int:
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
    sys.stdout.write(text)
    return 0


def _parse_source(text, n):
    kind, _, rest = text.partition(":")
    if kind == "fixed":
        return ("fixed", rest if rest else "0" * n)
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
    return _load_json(args.dmc, "channel", reverse_shannon.DMC.from_json)


def cmd_rst_simulate(args) -> int:
    channel = _rst_channel(args)
    variant = "bsc" if args.bsc is not None else "general"
    cfg = reverse_shannon.ProtocolConfig(n=args.n, eps=args.eps, variant=variant)
    source = _parse_source(args.source, args.n)
    stats = reverse_shannon.cost_statistics(channel, cfg, args.trials, source, args.seed)
    _emit_json({"units": "bits", "variant": variant, **stats})
    return 0


def cmd_rst_verify(args) -> int:
    channel = _rst_channel(args)
    dev = reverse_shannon.exact_faithfulness_oracle(channel, args.n, eps=args.eps,
                                                    zsize=args.zsize)
    _emit_json({"max_deviation": dev, "tolerance": 1e-12,
                "exact": bool(dev <= 1e-12)})
    return 0


def cmd_typical(args) -> int:
    probs = _check_distribution(_floats(args.probs), "--probs")
    try:
        delta = Fraction(args.delta) if "/" in args.delta else float(args.delta)
    except ZeroDivisionError as exc:  # --delta 1/0
        raise UsageError(f"bad --delta {args.delta!r}: {exc}") from exc
    report = typeclasses.typical_subspace_report(
        DensityOperator(np.diag(probs)), args.n, delta, eps=args.eps)
    _emit_json(report.to_json())
    return 0


def _rst_channel_flags(parser):
    g = parser.add_mutually_exclusive_group(required=True)
    g.add_argument("--bsc", type=float, help="flip probability")
    g.add_argument("--dmc", help="transition-matrix JSON file")


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
    _rst_channel_flags(ps)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--eps", type=float, required=True)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--trials", type=int, default=1000)
    ps.add_argument("--source", default="fixed:")
    ps.set_defaults(func=cmd_rst_simulate)
    pv = rsub.add_parser("verify-exact", help="enumerate the protocol exactly")
    _rst_channel_flags(pv)
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
    _echo_config(args)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # ConvergenceError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
