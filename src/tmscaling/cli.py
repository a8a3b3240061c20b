"""Command-line front end.

Every subcommand prints its own invocation line first (as a '#' comment
in csv/plain output, as an "invocation" field in json).  The line is
built from the parsed arguments and names every option of the verb, so
any output file can be regenerated from its header alone.  Data goes to
stdout, diagnostics to stderr.  Exit codes: 0 success, 2 usage/validation
error, 3 numeric identity check outside tolerance.  Table and figure
output is deterministic: the same arguments always print the same bytes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import shlex
import sys

from . import exponents, expansions, riesz
from .serialize import format_float, json_number
from .streams import DigitStream, PowersOfTwo, flipped, random_bits
from .wavenumber import WaveNumber

PROG = "tmscaling"
#: residues joined per slice of the printed orbit line (and JSON chunks per
#: write), so the whole orbit never exists as str objects at once
_ORBIT_SLICE = 65536


def _invocation(args: argparse.Namespace) -> str:
    """The command line that reruns ``args``: every option of the verb, in parser order.

    A value that starts with '-' is attached with '=' so that it is not
    read back as a flag.
    """
    parts = [PROG, args.verb]
    for dest, value in vars(args).items():
        if dest in ("verb", "func"):
            continue
        flag = "--" + dest.replace("_", "-")
        text = shlex.quote(str(value))
        parts += [f"{flag}={text}"] if text.startswith("-") else [flag, text]
    return " ".join(parts)


def _print_lines(lines):
    sys.stdout.write("\n".join(lines) + "\n")


def _print_json(obj):
    """``json.dumps(obj, indent=2)`` and a newline, written a batch of chunks at a time."""
    chunks = json.JSONEncoder(indent=2).iterencode(obj)
    while batch := "".join(itertools.islice(chunks, _ORBIT_SLICE)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _spec_int(spec: str, text: str, form: str) -> int:
    """A seed or START field: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"invalid stream spec {spec!r}: {text!r} is not a "
                         f"non-negative integer; expected {form}")
    return value


def parse_stream_spec(spec: str) -> DigitStream:
    """Build a digit stream from 'random:SEED', 'rational:M/Q' or 'flipped:M/Q[:START]'."""
    kind, _, rest = spec.partition(":")
    if kind == "random":
        if not rest:
            raise ValueError("random stream needs a seed: random:SEED")
        return random_bits(_spec_int(spec, rest, "random:SEED"))
    if kind == "rational":
        return expansions.rational_stream(WaveNumber.parse(rest))
    if kind == "flipped":
        frac, _, start = rest.partition(":")
        wn = WaveNumber.parse(frac)
        positions = PowersOfTwo(
            _spec_int(spec, start, "flipped:M/Q[:START]") if start else 1)
        return flipped(expansions.rational_stream(wn), positions)
    raise ValueError(
        f"unknown stream spec {spec!r}; use random:SEED, rational:M/Q "
        f"or flipped:M/Q[:START]")


def _parse_trace_target(text: str):
    """A rational 'M/Q', a float literal, or a stream spec."""
    if ":" in text:
        return parse_stream_spec(text)
    if "/" in text:
        return WaveNumber.parse(text)
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"cannot interpret {text!r} as a wave number or stream")


def _cmd_exponent(args, inv: str) -> int:
    wn = WaveNumber.parse(args.k)
    if args.r:
        wn = wn.with_extra_dyadic_power(args.r)
    try:
        result = exponents.beta_rational(wn)
    except ValueError as exc:   # the orbit is longer than the budget
        raise ValueError(f"--k {args.k}: {exc}") from None
    canonical = f"{wn} = {wn.m}/(2^{wn.r} * {wn.q})"
    if args.format == "json":
        payload = {"invocation": inv, "k": str(wn), "m": wn.m, "r": wn.r, "q": wn.q}
        payload.update(result.to_json_dict(args.digits))
        _print_json(payload)
        return 0
    if args.format == "csv":
        lines = [f"# {inv}", "k,kind,beta,method,orbit_size,representative"]
        if result.is_extinct:
            lines.append(f"{wn},extinct,extinct,coset-formula,,")
        else:
            d = result.diagnostics
            lines.append(f"{wn},value,{format_float(result.value, args.digits)},"
                         f"{result.method},{d['orbit_size']},{d['representative']}")
        _print_lines(lines)
        return 0
    lines = [f"# {inv}", f"k = {canonical}"]
    if result.is_extinct:
        lines.append("beta = extinct")
        lines.append(f"detail = dyadic wave number: every factor from level "
                     f"{wn.r} on vanishes")
    else:
        d = result.diagnostics
        lines.append(f"beta = {format_float(result.value, args.digits)}")
        lines.append(f"method = {result.method}")
        lines.append(f"orbit_size = {d['orbit_size']}")
        lines.append(f"representative = {d['representative']}")
        orbit = d["orbit"]
        lines.append("orbit = " + " ".join(
            " ".join(map(str, orbit[i:i + _ORBIT_SLICE]))
            for i in range(0, len(orbit), _ORBIT_SLICE)))
        if wn.r:
            lines.append(f"note = dyadic prefactor 2^{wn.r} ignored in the limit")
    _print_lines(lines)
    return 0


def _cmd_gfun(args, inv: str) -> int:
    value = exponents.g_closed_form(args.q)
    if args.format == "json":
        _print_json({"invocation": inv, "q": args.q,
                     "g_q": json_number(value, args.digits)})
    elif args.format == "csv":
        _print_lines([f"# {inv}", "q,g_q",
                      f"{args.q},{format_float(value, args.digits)}"])
    else:
        _print_lines([f"# {inv}",
                      f"g({args.q}) = {format_float(value, args.digits)}"])
    return 0


def _cmd_table(args, inv: str) -> int:
    rows = exponents.enumerate_positive_exponents(args.qmax)
    if args.format == "json":
        _print_json({"invocation": inv,
                     "rows": exponents.table_json_rows(rows, args.digits)})
    elif args.format == "plain":
        lines = [f"# {inv}"]
        lines.extend(f"{p}/{q} {format_float(beta, args.digits)}"
                     for q, p, beta in rows)
        _print_lines(lines)
    else:
        _print_lines([f"# {inv}"] + exponents.table_csv_lines(rows, args.digits))
    return 0


def _cmd_figure(args, inv: str) -> int:
    rows = exponents.figure_data(args.qmax)
    if args.format == "json":
        _print_json({"invocation": inv,
                     "rows": exponents.figure_json_rows(rows, args.digits)})
    elif args.format == "plain":
        lines = [f"# {inv}"]
        lines.extend(f"q={q} beta={format_float(b, args.digits)} "
                     f"g={format_float(g, args.digits)}" for q, b, g in rows)
        _print_lines(lines)
    else:
        _print_lines([f"# {inv}"] + exponents.figure_csv_lines(rows, args.digits))
    return 0


def _cmd_riesz_trace(args, inv: str) -> int:
    if args.every > args.nmax:
        raise ValueError(f"--every {args.every} is larger than --nmax {args.nmax}, "
                         f"so no level would be recorded")
    target = _parse_trace_target(args.k)
    levels = range(args.every, args.nmax + 1, args.every)
    try:
        tr = riesz.trace(target, args.nmax, sample_levels=levels)
    except ValueError as exc:   # a rational's levels need more than the orbit budget
        raise ValueError(f"--k {args.k} --nmax {args.nmax}: {exc}") from None
    if args.format == "json":
        payload = {"invocation": inv}
        payload.update(tr.to_json_dict(args.digits))
        _print_json(payload)
    else:
        lines = [f"# {inv}", f"# wave_number = {tr.wave_number}"]
        if tr.extinct_at is not None:
            lines.append(f"# extinct_at = {tr.extinct_at}")
        lines.extend(tr.to_csv_lines(args.digits))
        _print_lines(lines)
    return 0


def _cmd_weyl(args, inv: str) -> int:
    stream = parse_stream_spec(args.stream)
    report = expansions.weyl_diagnostics(stream, args.samples, args.harmonics)
    if args.format == "json":
        payload = {"invocation": inv}
        payload.update(report.to_json_dict(args.digits))
        _print_json(payload)
    elif args.format == "csv":
        lines = [f"# {inv}", f"# stream = {stream.label()}",
                 f"# mean_log_factor = {format_float(report.mean_log_factor, args.digits)}",
                 "harmonic,weyl_modulus"]
        lines.extend(f"{h},{format_float(w, args.digits)}"
                     for h, w in enumerate(report.weyl_moduli, start=1))
        _print_lines(lines)
    else:
        lines = [f"# {inv}", f"stream = {stream.label()}",
                 f"samples = {report.samples}"]
        for h, w in enumerate(report.weyl_moduli, start=1):
            lines.append(f"weyl_modulus[{h}] = {format_float(w, args.digits)}")
        lines.append(f"mean_log_factor = {format_float(report.mean_log_factor, args.digits)}")
        _print_lines(lines)
    return 0


def _cmd_perturb(args, inv: str) -> int:
    wn = WaveNumber.parse(args.k)
    positions = PowersOfTwo(args.flip_start)
    tr = expansions.perturbed_exponent_trace(wn, positions, n_max=args.nmax)
    final = tr.final_running_exponent
    if args.format == "json":
        payload = {"invocation": inv,
                   "final_running_exponent": json_number(final, args.digits)}
        payload.update(tr.to_json_dict(args.digits))
        _print_json(payload)
    elif args.format == "plain":
        _print_lines([f"# {inv}", f"stream = {tr.wave_number}",
                      f"final_running_exponent = {format_float(final, args.digits)}"])
    else:
        lines = [f"# {inv}", f"# stream = {tr.wave_number}",
                 f"# final_running_exponent = {format_float(final, args.digits)}"]
        lines.extend(tr.to_csv_lines(args.digits))
        _print_lines(lines)
    return 0


def _cmd_mix(args, inv: str) -> int:
    stream_a = parse_stream_spec(args.a)
    stream_b = parse_stream_spec(args.b)
    tr, lo, hi = expansions.mixed_exponent_trace(stream_a, stream_b, args.nmax,
                                                 growth=args.growth)
    if args.format == "json":
        payload = {"invocation": inv,
                   "liminf": json_number(lo, args.digits),
                   "limsup": json_number(hi, args.digits)}
        payload.update(tr.to_json_dict(args.digits))
        _print_json(payload)
    elif args.format == "plain":
        _print_lines([f"# {inv}",
                      f"checkpoints = {len(tr.samples)}",
                      f"liminf = {format_float(lo, args.digits)}",
                      f"limsup = {format_float(hi, args.digits)}"])
    else:
        lines = [f"# {inv}",
                 f"# liminf = {format_float(lo, args.digits)}",
                 f"# limsup = {format_float(hi, args.digits)}"]
        lines.extend(tr.to_csv_lines(args.digits))
        _print_lines(lines)
    return 0


def _cmd_identities(args, inv: str) -> int:
    worst_qsum = (0.0, None)
    for n in range(2, args.qsum_max + 1):
        lhs, rhs = riesz.check_qsum(n)
        dev = abs(lhs - rhs) / abs(rhs) if rhs != 0 else abs(lhs)
        if dev > worst_qsum[0]:
            worst_qsum = (dev, n)
    worst_coset = (0.0, None)
    worst_moebius = (0.0, None)
    for q in range(3, args.qmax + 1, 2):
        lhs, rhs = exponents.check_coset_sum_identity(q)
        if abs(lhs - rhs) > worst_coset[0]:
            worst_coset = (abs(lhs - rhs), q)
        lhs, rhs = exponents.moebius_inverted_coset_sum(q)
        if abs(lhs - rhs) > worst_moebius[0]:
            worst_moebius = (abs(lhs - rhs), q)

    failed = (worst_qsum[0] > args.tol or worst_coset[0] > args.tol
              or worst_moebius[0] > args.tol)
    status = "FAIL" if failed else "ok"
    if args.format == "json":
        _print_json({
            "invocation": inv,
            "qsum": {"range": [2, args.qsum_max],
                     "worst_relative_deviation": worst_qsum[0], "at_n": worst_qsum[1]},
            "coset_sum": {"range": [3, args.qmax],
                          "worst_deviation": worst_coset[0], "at_q": worst_coset[1]},
            "moebius_inversion": {"range": [3, args.qmax],
                                  "worst_deviation": worst_moebius[0],
                                  "at_q": worst_moebius[1]},
            "tolerance": args.tol,
            "status": status,
        })
    elif args.format == "csv":
        _print_lines([
            f"# {inv}",
            "check,lo,hi,worst_deviation,at,status",
            f"qsum,2,{args.qsum_max},{worst_qsum[0]:.3e},{worst_qsum[1]},{status}",
            f"coset-sum,3,{args.qmax},{worst_coset[0]:.3e},{worst_coset[1]},{status}",
            f"moebius-inversion,3,{args.qmax},{worst_moebius[0]:.3e},"
            f"{worst_moebius[1]},{status}",
        ])
    else:
        _print_lines([
            f"# {inv}",
            f"qsum: n in [2,{args.qsum_max}], worst relative deviation = "
            f"{worst_qsum[0]:.3e} (n={worst_qsum[1]})",
            f"coset-sum: odd q in [3,{args.qmax}], worst |lhs-rhs| = "
            f"{worst_coset[0]:.3e} (q={worst_coset[1]})",
            f"moebius-inversion: odd q in [3,{args.qmax}], worst |lhs-rhs| = "
            f"{worst_moebius[0]:.3e} (q={worst_moebius[1]})",
            f"status = {status} (tolerance {args.tol:g})",
        ])
    return 3 if failed else 0


def _bounded_int(low: int | None = None, high: int | None = None):
    """argparse type: an integer in [low, high] (a violation exits 2, naming the flag)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    return parse


def _odd_modulus(text: str) -> int:
    """argparse type: an odd integer >= 3."""
    value = _bounded_int()(text)
    if value < 3 or value % 2 == 0:
        raise argparse.ArgumentTypeError(f"must be >= 3 and odd, got {value}")
    return value


_NON_NEGATIVE = _bounded_int(0)
_POSITIVE = _bounded_int(1)
#: table, figure and the identity checks run over every q up to the bound,
#: so it sets their run time
_ENUMERATION = _bounded_int(1, exponents.MAX_ENUMERATION_BOUND)


def _tolerance(text: str) -> float:
    """argparse type: a finite float >= 0 (NaN would make every check pass)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _add_output_options(sub, default_format="plain", digits=True):
    sub.add_argument("--format", choices=["csv", "json", "plain"],
                     default=default_format, help="output format")
    if digits:
        sub.add_argument("--digits", type=_POSITIVE, default=6,
                         help="significant digits for printed numbers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Scaling exponents of the singular peaks of the binary "
                    "Thue-Morse diffraction measure")
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("exponent", help="exponent of a rational wave number")
    p.add_argument("--k", required=True, help="rational wave number, e.g. 3/17")
    p.add_argument("--r", type=_NON_NEGATIVE, default=0,
                   help="extra dyadic power: evaluate k / 2**r")
    _add_output_options(p)
    p.set_defaults(func=_cmd_exponent)

    p = subs.add_parser("gfun", help="closed-form exponent g(q)")
    p.add_argument("--q", type=_odd_modulus, required=True, help="odd integer >= 3")
    _add_output_options(p)
    p.set_defaults(func=_cmd_gfun)

    p = subs.add_parser("table", help="all positive exponents for odd 5 < q < qmax")
    p.add_argument("--qmax", type=_ENUMERATION, default=1000)
    _add_output_options(p, default_format="csv")
    p.set_defaults(func=_cmd_table)

    p = subs.add_parser("figure", help="exponent of 1/q and g(q) for odd q < qmax")
    p.add_argument("--qmax", type=_ENUMERATION, default=1050)
    _add_output_options(p, default_format="csv")
    p.set_defaults(func=_cmd_figure)

    p = subs.add_parser("riesz-trace",
                        help="log2 partial products and running exponents")
    p.add_argument("--k", required=True,
                   help="rational M/Q, float, or stream spec (random:SEED, ...)")
    p.add_argument("--nmax", type=_POSITIVE, default=60)
    p.add_argument("--every", type=_POSITIVE, default=1, help="record every i-th level")
    _add_output_options(p, default_format="csv")
    p.set_defaults(func=_cmd_riesz_trace)

    p = subs.add_parser("weyl", help="equidistribution diagnostics for a stream")
    p.add_argument("--stream", required=True,
                   help="random:SEED | rational:M/Q | flipped:M/Q[:START]")
    p.add_argument("--samples", type=_POSITIVE, default=16384)
    p.add_argument("--harmonics", type=_POSITIVE, default=5)
    _add_output_options(p)
    p.set_defaults(func=_cmd_weyl)

    p = subs.add_parser("perturb",
                        help="trace a rational expansion with digit flips at 2^r")
    p.add_argument("--k", required=True, help="rational base, e.g. 1/3")
    p.add_argument("--nmax", type=_POSITIVE, default=4096)
    p.add_argument("--flip-start", type=_NON_NEGATIVE, default=1,
                   help="flip positions 2^r for r >= this exponent")
    _add_output_options(p, default_format="csv")
    p.set_defaults(func=_cmd_perturb)

    p = subs.add_parser("mix", help="trace a block mixture of two streams")
    p.add_argument("--a", required=True, help="stream spec for odd blocks")
    p.add_argument("--b", required=True, help="stream spec for even blocks")
    p.add_argument("--nmax", type=_POSITIVE, default=65536)
    p.add_argument("--growth", type=_bounded_int(2), default=4,
                   help="block j has length growth^j")
    _add_output_options(p, default_format="csv")
    p.set_defaults(func=_cmd_mix)

    p = subs.add_parser("identities", help="run the analytic identity checks")
    p.add_argument("--qsum-max", dest="qsum_max", type=_ENUMERATION, default=200)
    p.add_argument("--qmax", type=_ENUMERATION, default=105)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    _add_output_options(p, digits=False)
    p.set_defaults(func=_cmd_identities)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _invocation(args))
    except ValueError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
