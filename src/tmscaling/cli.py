"""Command-line front end.

Each verb computes its result and returns its output for ``--format``: a
list of lines for csv and plain, a dict for json (``identities`` also
returns its exit code).  A line that is not a str is a long text given as
an iterable of pieces (the ``exponent`` orbit line, the trace rows).
``main`` is the only writer.  It puts the invocation first, as a '#'
comment line or as the "invocation" field of the json, and writes in
batches: ``_ORBIT_SLICE`` lines at a time, and a text in pieces one piece
at a time (the json is one such text, in pieces of ``_ORBIT_SLICE``
encoder chunks).  The invocation is built from the
parsed arguments and names every option of the verb, so any output file
can be regenerated from its header alone.  Data goes to stdout,
diagnostics to stderr.  Exit codes: 0 success, 1 stdout closed before
the output was written (e.g. piped into ``head``), 2
usage/validation error, 3 numeric identity check outside tolerance.  A
value argparse accepts but a verb refuses prints "tmscaling: error: <the
verb's options>: <reason>"; ``main`` is the only place that writes it.
Table and figure output is deterministic: the same arguments always
print the same bytes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shlex
import sys
from decimal import Decimal

from . import exponents, expansions, riesz
from .serialize import csv_lines, format_float, json_number, json_rows, text_rows
from .streams import DigitStream, PowersOfTwo, flipped, random_bits
from .wavenumber import MAX_STREAM_LEVELS, WINDOW, WaveNumber

PROG = "tmscaling"
#: residues per piece of the printed orbit line, trace rows rendered at a time,
#: and lines or JSON chunks per write, so no whole output exists as str objects
_ORBIT_SLICE = 65536


def _options(args: argparse.Namespace, *omit: str) -> str:
    """The verb's options as '--flag value' pairs, in parser order, less ``omit``.

    A value that starts with '-' is attached with '=' so that it is not
    read back as a flag.
    """
    parts = []
    for dest, value in vars(args).items():
        if dest in ("verb", "func", *omit):
            continue
        flag = "--" + dest.replace("_", "-")
        text = shlex.quote(str(value))
        parts += [f"{flag}={text}"] if text.startswith("-") else [flag, text]
    return " ".join(parts)


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
        k = float(text)
    except ValueError:
        raise ValueError(f"cannot interpret {text!r} as a wave number or stream")
    if k == 0.0 and Decimal(text) != 0:    # Decimal reads the literal exactly, without a power of 10
        raise ValueError(f"{text!r} is not zero but rounds to the float 0.0")
    return k


def _exponent(args):
    wn = WaveNumber.parse(args.k).with_extra_dyadic_power(args.r)
    try:
        canonical = f"{wn} = {wn.m}/(2^{wn.r} * {wn.q})"
    except ValueError:      # an integer longer than sys.get_int_max_str_digits()
        raise ValueError("k has too many digits to print") from None
    result = exponents.beta_rational(wn)
    d = result.diagnostics
    if args.format == "json":
        value = {} if result.is_extinct else {"value": json_number(result.value, args.digits)}
        return {"k": str(wn), "m": wn.m, "r": wn.r, "q": wn.q, "kind": result.kind,
                "method": result.method, **value,
                "diagnostics": {key: v.tolist() if key == "orbit" else v for key, v in d.items()}}
    if args.format == "csv":
        return ["k,kind,beta,method,orbit_size,representative",
                f"{wn},extinct,extinct,coset-formula,," if result.is_extinct else
                f"{wn},value,{format_float(result.value, args.digits)},"
                f"{result.method},{d['orbit_size']},{d['representative']}"]
    if result.is_extinct:
        return [f"k = {canonical}", "beta = extinct",
                f"detail = dyadic wave number: every factor from level {wn.r} on vanishes"]
    orbit = d["orbit"]
    lines = [f"k = {canonical}",
             f"beta = {format_float(result.value, args.digits)}",
             f"method = {result.method}",
             f"orbit_size = {d['orbit_size']}",
             f"representative = {d['representative']}",
             ((" " if i else "orbit = ") + text_rows([orbit[i:i + _ORBIT_SLICE]], sep=" ")
              for i in range(0, len(orbit), _ORBIT_SLICE))]
    if wn.r:
        lines.append(f"note = dyadic prefactor 2^{wn.r} ignored in the limit")
    return lines


def _gfun(args):
    row = [(args.q, exponents.g_closed_form(args.q))]
    if args.format == "json":
        return json_rows("q,g_q", row, args.digits)[0]
    if args.format == "csv":
        return csv_lines("q,g_q", row, args.digits)
    return [f"g({args.q}) = {format_float(row[0][1], args.digits)}"]


def _table(args):
    rows = exponents.enumerate_positive_exponents(args.qmax)
    if args.format == "json":
        return {"rows": json_rows(exponents.TABLE_CSV_HEADER, rows, args.digits, keys=2)}
    if args.format == "csv":
        return csv_lines(exponents.TABLE_CSV_HEADER, rows, args.digits, keys=2)
    return [f"{p}/{q} {format_float(beta, args.digits)}" for q, p, beta in rows]


def _figure(args):
    rows = exponents.figure_data(args.qmax)
    if args.format == "json":
        return {"rows": json_rows(exponents.FIGURE_CSV_HEADER, rows, args.digits)}
    if args.format == "csv":
        return csv_lines(exponents.FIGURE_CSV_HEADER, rows, args.digits)
    return [f"q={q} beta={format_float(b, args.digits)} g={format_float(g, args.digits)}"
            for q, b, g in rows]


def _trace_output(fmt: str, digits: int, tr: riesz.RieszTrace, text: list[str], **numbers):
    """A trace with named numbers, in ``fmt``.

    json puts the numbers (through ``json_number``) ahead of the trace's
    fields; plain is the ``text`` lines, then 'name = value' per number;
    csv is those lines as '# ' comments, then the trace rows as one text in
    pieces: the rows of one ``_ORBIT_SLICE`` of samples each, led by a
    newline ("" joined in front) after the first.
    """
    if fmt == "json":
        return {**{name: json_number(x, digits) for name, x in numbers.items()},
                "wave_number": tr.wave_number, "extinct_at": tr.extinct_at,
                "quality": tr.quality,
                "samples": json_rows(riesz.TRACE_CSV_HEADER, tr.rows(), digits)}
    lines = [*text, *(f"{name} = {format_float(x, digits)}" for name, x in numbers.items())]
    if fmt == "plain":
        return lines
    columns = [tr.samples[name] for name in tr.samples.dtype.names]
    rows = ("\n" * bool(i) + text_rows([c[i:i + _ORBIT_SLICE] for c in columns], digits)
            for i in range(0, len(tr.samples), _ORBIT_SLICE))
    return [*(f"# {line}" for line in lines), riesz.TRACE_CSV_HEADER, rows]


def _riesz_trace(args):
    if args.every > args.nmax:
        raise ValueError("--every is larger than --nmax, so no level would be recorded")
    levels = range(args.every, args.nmax + 1, args.every)
    tr = riesz.trace(_parse_trace_target(args.k), args.nmax, sample_levels=levels)
    text = [f"wave_number = {tr.wave_number}"]
    if tr.extinct_at is not None:
        text.append(f"extinct_at = {tr.extinct_at}")
    # the trace rows are the output, so plain prints the csv
    return _trace_output("csv" if args.format == "plain" else args.format, args.digits, tr, text)


def _weyl(args):
    stream = parse_stream_spec(args.stream)
    report = expansions.weyl_diagnostics(stream, args.samples, args.harmonics)
    if args.format == "json":
        return {"stream": report.stream, "samples": report.samples,
                "harmonics": report.harmonics,
                "weyl_moduli": [json_number(w, args.digits) for w in report.weyl_moduli],
                "mean_log_factor": json_number(report.mean_log_factor, args.digits),
                "window": WINDOW, "near_singular_refined": report.near_singular_refined}
    mean = format_float(report.mean_log_factor, args.digits)
    if args.format == "csv":
        return [f"# stream = {stream.label()}", f"# mean_log_factor = {mean}",
                *csv_lines("harmonic,weyl_modulus", enumerate(report.weyl_moduli, 1),
                           args.digits)]
    return [f"stream = {stream.label()}", f"samples = {report.samples}",
            *(f"weyl_modulus[{h}] = {format_float(w, args.digits)}"
              for h, w in enumerate(report.weyl_moduli, 1)), f"mean_log_factor = {mean}"]


def _perturb(args):
    tr = expansions.perturbed_exponent_trace(WaveNumber.parse(args.k),
                                             PowersOfTwo(args.flip_start), n_max=args.nmax)
    return _trace_output(args.format, args.digits, tr, [f"stream = {tr.wave_number}"],
                         final_running_exponent=tr.final_running_exponent)


def _mix(args):
    tr, lo, hi = expansions.mixed_exponent_trace(parse_stream_spec(args.a),
                                                 parse_stream_spec(args.b), args.nmax,
                                                 growth=args.growth)
    text = [f"checkpoints = {len(tr.samples)}"] if args.format == "plain" else []
    return _trace_output(args.format, args.digits, tr, text, liminf=lo, limsup=hi)


def _identities(args):
    """The checks' output and exit code: 3 if a worst deviation is above ``--tol``."""
    worst_qsum = (0.0, None)
    qsum_range = range(2, args.qsum_max + 1)
    for n, (lhs, rhs) in zip(qsum_range, exponents._fan_out(riesz.check_qsum, qsum_range)):
        dev = abs(lhs - rhs) / abs(rhs) if rhs != 0 else abs(lhs)
        if dev > worst_qsum[0]:
            worst_qsum = (dev, n)
    worst_coset = worst_moebius = (0.0, None)
    for q, (lhs, rhs), (m_lhs, m_rhs) in exponents.coset_identities(args.qmax):
        if abs(lhs - rhs) > worst_coset[0]:
            worst_coset = (abs(lhs - rhs), q)
        if abs(m_lhs - m_rhs) > worst_moebius[0]:
            worst_moebius = (abs(m_lhs - m_rhs), q)
    # qsum is a relative deviation over n; the coset checks are absolute, over odd q
    checks = [("qsum", 2, args.qsum_max, worst_qsum),
              ("coset-sum", 3, args.qmax, worst_coset),
              ("moebius-inversion", 3, args.qmax, worst_moebius)]
    failed = any(worst > args.tol for *_, (worst, _) in checks)
    status = "FAIL" if failed else "ok"
    if args.format == "json":
        out = {name.replace("-", "_"): {
                   "range": [lo, hi],
                   ("worst_relative_deviation" if name == "qsum" else "worst_deviation"): worst,
                   ("at_n" if name == "qsum" else "at_q"): at}
               for name, lo, hi, (worst, at) in checks}
        out.update(tolerance=args.tol, status=status)
    elif args.format == "csv":
        out = ["check,lo,hi,worst_deviation,at,status",
               *(f"{name},{lo},{hi},{worst:.3e},{at},{status}"
                 for name, lo, hi, (worst, at) in checks)]
    else:
        out = [f"{name}: n in [{lo},{hi}], worst relative deviation = {worst:.3e} (n={at})"
               if name == "qsum" else
               f"{name}: odd q in [{lo},{hi}], worst |lhs-rhs| = {worst:.3e} (q={at})"
               for name, lo, hi, (worst, at) in checks]
        out.append(f"status = {status} (tolerance {args.tol:g})")
    return out, 3 if failed else 0


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
_STREAM_LEVELS = _bounded_int(1, MAX_STREAM_LEVELS)
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


def _finish_verb(sub, func, default_format="plain", digits=True):
    """Set the verb function ``main`` calls, and add the output options."""
    sub.set_defaults(func=func)
    sub.add_argument("--format", choices=["csv", "json", "plain"],
                     default=default_format, help="output format")
    if digits:
        sub.add_argument("--digits", type=_bounded_int(1, 17), default=6,
                         help="significant digits for printed numbers (17 print any double)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Scaling exponents of the singular peaks of the binary "
                    "Thue-Morse diffraction measure")
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("exponent", help="exponent of a rational wave number")
    p.add_argument("--k", required=True, help="rational wave number, e.g. 3/17")
    p.add_argument("--r", type=_bounded_int(0, 10_000), default=0,
                   help="extra dyadic power: evaluate k / 2**r")
    _finish_verb(p, _exponent)

    p = subs.add_parser("gfun", help="closed-form exponent g(q)")
    p.add_argument("--q", type=_odd_modulus, required=True, help="odd integer >= 3")
    _finish_verb(p, _gfun)

    p = subs.add_parser("table", help="all positive exponents for odd 5 < q < qmax")
    p.add_argument("--qmax", type=_ENUMERATION, default=1000)
    _finish_verb(p, _table, default_format="csv")

    p = subs.add_parser("figure", help="exponent of 1/q and g(q) for odd q < qmax")
    p.add_argument("--qmax", type=_ENUMERATION, default=1050)
    _finish_verb(p, _figure, default_format="csv")

    p = subs.add_parser("riesz-trace",
                        help="log2 partial products and running exponents")
    p.add_argument("--k", required=True,
                   help="rational M/Q, float, or stream spec (random:SEED, ...)")
    p.add_argument("--nmax", type=_POSITIVE, default=60)
    p.add_argument("--every", type=_POSITIVE, default=1, help="record every i-th level")
    _finish_verb(p, _riesz_trace, default_format="csv")

    p = subs.add_parser("weyl", help="equidistribution diagnostics for a stream")
    p.add_argument("--stream", required=True,
                   help="random:SEED | rational:M/Q | flipped:M/Q[:START]")
    p.add_argument("--samples", type=_STREAM_LEVELS, default=16384)
    p.add_argument("--harmonics", type=_bounded_int(1, 64), default=5)
    _finish_verb(p, _weyl)

    p = subs.add_parser("perturb",
                        help="trace a rational expansion with digit flips at 2^r")
    p.add_argument("--k", required=True, help="rational base, e.g. 1/3")
    p.add_argument("--nmax", type=_STREAM_LEVELS, default=4096)
    p.add_argument("--flip-start", type=_NON_NEGATIVE, default=1,
                   help="flip positions 2^r for r >= this exponent")
    _finish_verb(p, _perturb, default_format="csv")

    p = subs.add_parser("mix", help="trace a block mixture of two streams")
    p.add_argument("--a", required=True, help="stream spec for odd blocks")
    p.add_argument("--b", required=True, help="stream spec for even blocks")
    p.add_argument("--nmax", type=_STREAM_LEVELS, default=65536)
    p.add_argument("--growth", type=_bounded_int(2), default=4,
                   help="block j has length growth^j")
    _finish_verb(p, _mix, default_format="csv")

    p = subs.add_parser("identities", help="run the analytic identity checks")
    p.add_argument("--qsum-max", dest="qsum_max", type=_ENUMERATION, default=200)
    p.add_argument("--qmax", type=_ENUMERATION, default=105)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    _finish_verb(p, _identities, digits=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # before Python 3.12, argparse parses "--flag=--" to [] without calling its type
    empty = next((dest for dest, value in vars(args).items() if value == []), None)
    if empty:
        parser.error(f"argument --{empty.replace('_', '-')}: expected one argument")
    try:
        out = args.func(args)
    except ValueError as exc:   # the one refusal after argparse: name the verb's options
        print(f"{PROG}: error: {_options(args, 'format', 'digits')}: {exc}", file=sys.stderr)
        return 2
    out, code = out if isinstance(out, tuple) else (out, 0)
    invocation = f"{PROG} {args.verb} {_options(args)}"
    if isinstance(out, dict):
        chunks = json.JSONEncoder(indent=2).iterencode({"invocation": invocation, **out})
        lines = [iter(lambda: "".join(itertools.islice(chunks, _ORBIT_SLICE)), "")]
    else:
        lines = itertools.chain([f"# {invocation}"], out)
    # runs of str lines go out _ORBIT_SLICE to a write, a text in pieces piece by piece
    try:
        for whole, run in itertools.groupby(lines, str.__instancecheck__):
            while batch := list(itertools.islice(run, _ORBIT_SLICE if whole else 1)):
                sys.stdout.writelines(["\n".join(batch)] if whole else batch[0])
                sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:     # the reader closed stdout; quiet the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code
