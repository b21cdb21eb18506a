"""Command-line interface.

Commands: analyze, singular-scan, fit-exponent, counterexample,
diophantine, pell, torus-gain, subelliptic.  Reports are JSON on stdout
(or --out FILE, with gain samples / coefficient dumps as CSV sidecars).

Exit codes: 0 ok, 2 schema violation, 3 precondition violation,
4 search exhausted, 5 precision (widen the enclosure).

Reports are deterministic: identical spec, arguments, and seed reproduce
byte-identical output on one platform.  Each command returns its report;
``main`` adds ``tool_version`` and ``seed`` and writes it.  A spec command's
report also carries ``spec_echo`` and ``cutoff``.

Each command imports the modules it runs when it needs them, so a process
compiles and executes only those: torus-gain, pell and diophantine never
load the symbol layers, and a spec command parses and checks its spec
before it loads numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__
from .errors import HyposymError, PreconditionError, SpecFileError, WindowTooSmallError
from .exact import Fraction, Surd, format_real, parse_real


def _emit(doc: dict, out_path: str | None) -> None:
    path = (bound := _int_text_bound()) and _long_int(doc, "report", bound)
    if path:  # an int longer than Python writes as text, found before encoding
        raise PreconditionError(f"{path} {_too_long()}")
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        _write(out_path, text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _write(path: str, head: bytes, chunks=()) -> None:
    """Write ``head`` and then each of ``chunks`` to ``path``; an OSError
    is a PreconditionError that names the path."""
    try:
        with open(path, "wb") as fh:
            fh.write(head)
            # writelines drops each chunk before it asks for the next, so the
            # writer reuses that memory; a for loop would hold it a chunk longer
            fh.writelines(chunks)
    except OSError as exc:
        raise PreconditionError(f"output file {path!r}: cannot write ({exc})") from None


def _too_long() -> str:
    return f"has more than {sys.get_int_max_str_digits()} digits, Python's limit for int text"


def _int_text_bound() -> int | None:
    """The least magnitude of an int with no JSON text (None: no limit)."""
    digits = sys.get_int_max_str_digits()
    return 10**digits if digits else None


def _long_int(doc, path: str, bound: int) -> str | None:
    """The path of the first int in ``doc``, in json.dumps order, of at least
    ``bound`` in magnitude."""
    if isinstance(doc, dict):
        found = (_long_int(v, f"{path}.{k}", bound) for k, v in sorted(doc.items()))
    elif isinstance(doc, (list, tuple)):
        found = (_long_int(v, f"{path}[{i}]", bound) for i, v in enumerate(doc))
    else:
        return path if isinstance(doc, int) and abs(doc) >= bound else None
    return next(filter(None, found), None)


# rows per chunk of a CSV sidecar
CSV_CHUNK_ROWS = 4096


def _texts(fmt: str, values) -> np.ndarray:
    import numpy as np

    return np.array(list(map(fmt.format, values)), dtype=object)


def _float_texts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(texts, inverse)``: ``texts[inverse]`` is the repr of each float of
    ``values``, as an object array.  Each distinct bit pattern is formatted
    once, so -0.0 keeps its sign."""
    import numpy as np

    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object), inverse


@functools.cache
def _three_digits() -> np.ndarray:
    """The texts "000" to "999", formatted once per process."""
    return _texts("{:03d}", range(1000))


def _int_texts(lo: int, hi: int) -> np.ndarray:
    """``str(j)`` for j in range(lo, hi), lo >= 0, as an object array: past
    999, the texts of j // 1000 (one per thousand) and of the last three
    digits are looked up."""
    import numpy as np

    mid = min(max(lo, 1000), hi)
    q, r = np.divmod(np.arange(mid, hi), 1000)
    thousands = _texts("{}", range(mid // 1000, -(-hi // 1000)))
    return np.concatenate([_texts("{}", range(lo, mid)),
                           thousands[q - mid // 1000] + _three_digits()[r]])


def _csv_text(chunk) -> bytes:
    """The row kernel of both CSV sidecars: the bytes of a chunk ``(n,
    pieces)`` of rows.  Each of the n rows is its pieces concatenated in
    order, a piece being an object array of n texts or one text shared by
    every row."""
    n, pieces = chunk
    k = len(pieces)
    parts = [""] * (n * k)  # row r's pieces at r*k .. r*k + k-1
    for c, piece in enumerate(pieces):
        parts[c::k] = [piece] * n if isinstance(piece, str) else piece.tolist()
    return "".join(parts).encode("utf-8")


def _csv_label(label) -> str:
    # csv.writer quotes a field holding the delimiter; torus labels "(xi,eta)"
    # are the only label text that does
    text = str(label)
    return f'"{text}"' if "," in text else text


def _write_gains_csv(path: str, table) -> None:
    """Write the gain table as ``ordinal,label,lambda,dim,gain,opnorm`` rows.

    The bytes equal a ``csv.writer`` row loop over ``table.window.freq(i)``: repr
    floats, quoted torus labels, CRLF line ends.
    """
    _write(path, b"ordinal,label,lambda,dim,gain,opnorm\r\n", map(_csv_text, _gain_rows(table)))


def _gain_rows(table):
    """The rows of the gains CSV as ``_csv_text`` chunks of CSV_CHUNK_ROWS."""
    torus = table.window.model == "torus2"
    labels = table.window.labels
    # label texts looked up by value: ',"(xi,' and 'eta)",' on the torus,
    # ',l=..,' and the dim (t+1)^2 by twice_ell t on SU(2)
    top = max([max(int(a.max()), -int(a.min())) for a in labels if len(a)], default=0)
    if torus:
        xis, etas = _texts(',"({},', range(-top, top + 1)), _texts('{})",', range(-top, top + 1))
    else:
        levels = _texts(",l={},", (t >> 1 if t % 2 == 0 else f"{t}/2" for t in range(top + 1)))
        dims = _texts("{}", ((t + 1) ** 2 for t in range(top + 1)))
    for lo in range(0, len(table), CSV_CHUNK_ROWS):
        hi = min(lo + CSV_CHUNK_ROWS, len(table))
        if torus:
            label, dim = (xis[labels[0][lo:hi] + top], etas[labels[1][lo:hi] + top]), "1"
        else:
            t = labels[0][lo:hi]
            label, dim = (levels[t],), dims[t]
        lams, li = _float_texts(table.lam[lo:hi])
        gain, norm = table.gain[lo:hi], table.opnorm[lo:hi]
        gains, gi = _float_texts(gain)
        # 1x1 blocks have gain == norm: one text per row when the bits agree
        if gain.tobytes() == norm.tobytes():
            tail = (_texts(",{0},{0}\r\n", gains.tolist())[gi],)
        else:
            norms, ni = _float_texts(norm)
            tail = (("," + gains)[gi], ("," + norms + "\r\n")[ni])
        # GainTable ordinals are 0, 1, ..: row i has ordinal i
        yield hi - lo, (_int_texts(lo, hi), *label, (lams + ",")[li], dim, *tail)


def _write_coeffs_csv(path: str, field, cutoff: float) -> None:
    """Write the field as ``ordinal,label,component_index,re,im`` rows.

    The bytes equal a ``csv.writer`` row loop; long vectors are written in
    chunks of CSV_CHUNK_ROWS components.
    """
    _write(path, b"ordinal,label,component_index,re,im\r\n",
           map(_csv_text, _coeff_rows(field, cutoff)))


def _coeff_rows(field, cutoff: float):
    """The rows of the coefficients CSV as ``_csv_text`` chunks: each vector
    in chunks of CSV_CHUNK_ROWS components, each row led by the
    ``ordinal,label,`` of its frequency."""
    for freq, vec in field.window(cutoff):
        head = f"{freq.j},{_csv_label(freq.label)},"
        for lo in range(0, len(vec), CSV_CHUNK_ROWS):
            part = vec[lo:lo + CSV_CHUNK_ROWS]
            res, ri = _float_texts(part.real)
            ims, ii = _float_texts(part.imag)
            yield len(part), (head, _int_texts(lo, lo + len(part)), ("," + res + ",")[ri],
                              (ims + "\r\n")[ii])


def _require_cutoff(args, parsed) -> float:
    cutoff = args.cutoff if args.cutoff is not None else parsed.options.get("cutoff")
    if cutoff is None:
        raise PreconditionError("no cutoff given (flag --cutoff or spec options.cutoff)")
    try:
        cutoff = float(cutoff)
    except OverflowError:  # an integer option beyond float range
        cutoff = math.inf
    if not math.isfinite(cutoff):
        raise PreconditionError(f"cutoff must be finite, got {cutoff!r}")
    if cutoff <= 0:
        raise PreconditionError("cutoff must be positive")
    return cutoff


def _finite_float(text: str) -> float:
    """argparse type of --tol/--s/--m: a non-finite value is a schema violation."""
    value = float(text)
    if not math.isfinite(value):
        raise SpecFileError([f"flag value must be finite, got {text!r}"])
    return value


def _option(args, parsed, name: str, default: float) -> float:
    value = getattr(args, name)
    return value if value is not None else parsed.options.get(name, default)


def _real_spec_doc(value, text: str) -> dict:
    """The report's echo of the literal ``text`` of ``value``, with floats."""
    try:
        if isinstance(value, (Fraction, Surd)):
            return {"exact": format_real(value), "float": float(value)}
        return {"lo": float(value.lo), "hi": float(value.hi)}
    except OverflowError:
        raise PreconditionError(f"real literal {text!r} is beyond float range") from None


def _bounds_doc(what: str, lo, hi, exact) -> dict:
    """The report's enclosure and exact text of a certified quantity."""
    try:
        return {"lo": float(lo), "hi": float(hi),
                "exact": format_real(exact) if exact is not None else None}
    except OverflowError:
        raise PreconditionError(f"the {what} is beyond float range") from None
    except ValueError:  # format_real of an int longer than Python writes as text
        raise PreconditionError(f"the exact {what} {_too_long()}") from None


def _spec_input(args):
    """``(parsed, cutoff, tol, symbol)`` of a spec command: the spec parsed, its
    cutoff required and its tol checked (a negative one hides exact zeros)."""
    from .specfile import parse_spec

    parsed = parse_spec(args.spec)
    cutoff = _require_cutoff(args, parsed)
    tol = _option(args, parsed, "tol", 1e-12)
    if tol < 0:
        raise SpecFileError([f"tol must be nonnegative, got {tol!r}"])
    from .symbols import build_symbol

    return parsed, cutoff, tol, build_symbol(parsed.operator)


def _spec_report(parsed, cutoff: float, **fields) -> dict:
    """A spec command's report: its fields, the spec's canonical echo and
    the cutoff."""
    from .specfile import emit_spec

    return {"spec_echo": emit_spec(parsed), "cutoff": cutoff, **fields}


def _cmd_analyze(args) -> dict:
    parsed, cutoff, tol, symbol = _spec_input(args)
    from .hypo import verdict
    from .symbols import estimate_order, gain_table

    table = gain_table(symbol, cutoff)
    v = verdict(table, tol)
    try:
        order = estimate_order(table)
        order_doc = {"order_hat": order.order_hat, "c_hat": order.c_hat}
        if order.order_hat == -math.inf:  # JSON has no -Infinity
            order_doc = {"error": "the symbol vanishes on the window: its norm has no order"}
    except HyposymError as exc:
        order_doc = {"error": str(exc)}
    gains_path = None
    if args.out:
        gains_path = args.out + ".gains.csv"
        _write_gains_csv(gains_path, table)
    return _spec_report(parsed, cutoff, tol=tol, verdict=v.as_dict(), order=order_doc,
                        gain_samples_path=gains_path)


def _cmd_singular_scan(args) -> dict:
    parsed, cutoff, tol, symbol = _spec_input(args)
    from .hypo import singular_scan
    from .symbols import gain_table

    hits = singular_scan(gain_table(symbol, cutoff), tol)
    return _spec_report(parsed, cutoff, tol=tol, singular=[
        {"ordinal": f.j, "label": str(f.label), "lambda": f.lam, "dim": f.dim} for f in hits])


def _cmd_fit_exponent(args) -> dict:
    parsed, cutoff, tol, symbol = _spec_input(args)
    from .hypo import certify, fit_growth
    from .symbols import gain_table

    if certify(parsed.operator) is not None:
        # a certified family has no empirical fit; its exponent is -inf
        return _spec_report(parsed, cutoff, fit=None, h_hat="-inf")
    fit = fit_growth(gain_table(symbol, cutoff), tol)
    return _spec_report(parsed, cutoff, fit=fit.as_dict(), h_hat=fit.m)


def _cmd_counterexample(args) -> dict:
    parsed, cutoff, tol, symbol = _spec_input(args)
    from .coefficients import build_counterexample, classify_regularity

    k_steps = args.k if args.k is not None else parsed.options.get("k", 5)
    result = build_counterexample(symbol, k_steps, cutoff, tol)
    # regularity evidence is judged on the construction's own span: past the
    # support every finite field looks smooth, which says nothing here
    span = max(f.lam for f in result.frequencies)

    def classify(field):
        try:
            return classify_regularity(field, span).as_dict()
        except WindowTooSmallError as exc:
            return {"error": str(exc)}

    f_report = classify(result.field)
    image_report = classify(result.image)
    coeffs_path = None
    if args.out:
        coeffs_path = args.out + ".coeffs.csv"
        _write_coeffs_csv(coeffs_path, result.field, cutoff)
    certificates = [
        {"k": c.k, "ordinal": c.ordinal, "label": str(c.label), "lambda": c.lam,
         "image_norm": c.image_norm, "bound": c.bound, "exact": c.exact}
        for c in result.certificates
    ]
    return _spec_report(parsed, cutoff, k=k_steps, certificates=certificates,
                        field_regularity=f_report, image_regularity=image_report,
                        coefficients_path=coeffs_path)


def _cmd_diophantine(args) -> dict:
    from .diophantine import classify_coefficient, continued_fraction, liouville_witnesses

    c = parse_real(args.c)
    c_doc = _real_spec_doc(c, args.c)
    # the expansion stops at the first convergent too long for text, which
    # _emit then names
    cf = continued_fraction(c, args.cf_terms, _int_text_bound())
    doc = {
        "c": c_doc,
        "continued_fraction": {
            "quotients": list(cf.quotients),
            "convergents": [[p, q] for p, q in cf.convergents],
            "period": list(cf.period) if cf.period else None,
            "complete": cf.complete,
            "limited_by_precision": cf.limited_by_precision,
        },
        "classification": classify_coefficient(c).as_dict(),
    }
    if args.liouville_nmax is not None:
        if isinstance(c, Fraction):
            doc["liouville_witnesses"] = {"error": "rational coefficient"}
        else:
            doc["liouville_witnesses"] = liouville_witnesses(
                c, args.liouville_nmax, args.q_bound
            )
    return doc


def _cmd_pell(args) -> dict:
    from .diophantine import pell_solutions

    # the solutions stop at the first one too long for text, which _emit
    # then names
    sols = pell_solutions(args.d, args.count, _int_text_bound())
    return {
        "d": args.d,
        "solutions": [
            {
                "u": s.u,
                "m": s.m,
                "singular_level_twice_ell": s.singular_twice_ell() if args.d == 8 else None,
            }
            for s in sols
        ],
    }


def _cmd_torus_gain(args) -> dict:
    from .diophantine import objective_scale, torus_min_gain

    c = parse_real(args.c)
    c_doc = _real_spec_doc(c, args.c)
    # an objective the report cannot hold is refused before the weights,
    # (1+|xi|+|eta|)^-N of up to |N| log2(radius + 1) bits, are built
    scale = objective_scale(c, args.radius) if isinstance(c, (Fraction, Surd)) else None
    if scale is not None and args.radius >= 1:
        bound = _int_text_bound()
        if bound is not None and args.exp >= (scale * bound).bit_length():
            raise PreconditionError(f"--exp {args.exp}: the exact objective {_too_long()}")
        if -args.exp >= (scale << 1025).bit_length():  # at least 2^1025
            raise PreconditionError("the objective is beyond float range")
    result = torus_min_gain(c, args.radius, args.exp)
    return {
        "c": c_doc,
        "radius": args.radius,
        "exponent": args.exp,
        "argmin": list(result.argmin),
        "objective": _bounds_doc("objective", result.objective_lo, result.objective_hi,
                                 result.exact_objective),
        "gain": _bounds_doc("gain", result.gain_lo, result.gain_hi, result.exact_gain),
        "is_exact_zero": result.is_zero(),
    }


def _cmd_subelliptic(args) -> dict:
    if args.probes < 0:
        raise PreconditionError(f"--probes must be nonnegative, got {args.probes}")
    if args.seed < 0:
        raise PreconditionError(f"--seed must be nonnegative, got {args.seed}")
    parsed, cutoff, tol, symbol = _spec_input(args)
    import numpy as np

    from .coefficients import random_field
    from .subelliptic import best_alpha_constant, check_alpha, check_probe, extremal_field

    s = _option(args, parsed, "s", 0.0)
    m = _option(args, parsed, "m", 1.0)
    report = best_alpha_constant(symbol, s, m, cutoff, tol)
    witness = extremal_field(report, symbol)
    witness_check = check_alpha(symbol, witness, s, m, report.c_star, report.kernel)
    rng = np.random.default_rng(args.seed)
    alpha_failures = beta_failures = 0
    min_alpha_margin = min_beta_margin = float("inf")
    for _ in range(args.probes):
        a, b = check_probe(symbol, random_field(report.kernel.window, rng), report)
        if not a.passed:
            alpha_failures += 1
        elif not a.vacuous:
            min_alpha_margin = min(min_alpha_margin, a.margin)
        if not b.passed:
            beta_failures += 1
        elif b.margin is not None:
            min_beta_margin = min(min_beta_margin, b.margin)
    probes = {
        "count": args.probes,
        "alpha_failures": alpha_failures,
        "beta_failures": beta_failures,
        "min_alpha_margin": None if min_alpha_margin == float("inf") else min_alpha_margin,
        "min_beta_margin": None if min_beta_margin == float("inf") else min_beta_margin,
    }
    return _spec_report(parsed, cutoff, report=report.as_dict(),
                        witness_check=witness_check.as_dict(), probes=probes)


def _add_common(p: argparse.ArgumentParser, spec: bool = True) -> None:
    if spec:
        p.add_argument("--spec", required=True, help="operator spec file (JSON)")
        p.add_argument("--cutoff", type=float, help="eigenvalue cutoff of the window")
        p.add_argument("--tol", type=_finite_float, help="relative singular threshold")
    p.add_argument("--out", help="write the JSON report here (CSV sidecars next to it)")
    p.add_argument("--seed", type=int, default=0, help="probe RNG seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyposym",
        description="Matrix-symbol hypoellipticity analysis on the 2-torus and SU(2)",
    )
    parser.add_argument("--version", action="version", version=f"hyposym {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full verdict + order report")
    _add_common(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("singular-scan", help="list in-window singular frequencies")
    _add_common(p)
    p.set_defaults(fn=_cmd_singular_scan)

    p = sub.add_parser("fit-exponent", help="growth fit of the gain envelope")
    _add_common(p)
    p.set_defaults(fn=_cmd_fit_exponent)

    p = sub.add_parser("counterexample", help="construct the slow-decay witness field")
    _add_common(p)
    p.add_argument("--k", type=int, help="number of construction steps")
    p.set_defaults(fn=_cmd_counterexample)

    p = sub.add_parser("diophantine", help="continued fraction and classification")
    p.add_argument("--c", required=True, help="real spec literal")
    p.add_argument("--cf-terms", type=int, default=24, dest="cf_terms")
    p.add_argument("--liouville-nmax", type=int, dest="liouville_nmax")
    p.add_argument("--q-bound", type=int, default=10**6, dest="q_bound")
    _add_common(p, spec=False)
    p.set_defaults(fn=_cmd_diophantine)

    p = sub.add_parser("pell", help="solutions of u^2 - D m^2 = 1")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--count", type=int, default=4)
    _add_common(p, spec=False)
    p.set_defaults(fn=_cmd_pell)

    p = sub.add_parser("torus-gain", help="certified lattice minimum of |xi + c eta|")
    p.add_argument("--c", required=True, help="real spec literal")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--exp", type=int, default=0)
    _add_common(p, spec=False)
    p.set_defaults(fn=_cmd_torus_gain)

    p = sub.add_parser("subelliptic", help="exact truncation constants and probes")
    _add_common(p)
    p.add_argument("--s", type=_finite_float, help="Sobolev base index")
    p.add_argument("--m", type=_finite_float, help="estimate exponent")
    p.add_argument("--probes", type=int, default=100)
    p.set_defaults(fn=_cmd_subelliptic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)  # a non-finite flag raises SpecFileError
        _emit({**args.fn(args), "tool_version": __version__, "seed": args.seed}, args.out)
    except HyposymError as exc:
        payload = {"error": str(exc), "kind": type(exc).__name__}
        violations = getattr(exc, "violations", None)
        if violations:
            payload["violations"] = violations
        sys.stderr.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
