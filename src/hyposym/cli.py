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

Each command imports the modules it runs when it starts, so a process
compiles and executes only those: torus-gain, pell and diophantine never
load the symbol layers.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__
from .errors import HyposymError, PreconditionError, SpecFileError, WindowTooSmallError
from .exact import Fraction, Surd, format_real, parse_real


def _emit(doc: dict, out_path: str | None) -> None:
    path = (bound := _int_text_bound()) and _long_int(doc, "report", bound)
    if path:  # an int longer than Python writes as text, found before encoding
        raise PreconditionError(f"{path} {_too_long()}")
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
# most processes that format one sidecar, the writer included
CSV_MAX_PROCESSES = 8


def _texts(fmt: str, values) -> np.ndarray:
    return np.array(list(map(fmt.format, values)), dtype=object)


def _float_texts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(texts, inverse)``: ``texts[inverse]`` is the repr of each float of
    ``values``, as an object array.  Each distinct bit pattern is formatted
    once, so -0.0 keeps its sign."""
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
    mid = min(max(lo, 1000), hi)
    q, r = np.divmod(np.arange(mid, hi), 1000)
    thousands = _texts("{}", range(mid // 1000, -(-hi // 1000)))
    return np.concatenate([_texts("{}", range(lo, mid)),
                           thousands[q - mid // 1000] + _three_digits()[r]])


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _write_csv(path: str, header: str, chunks, pieces) -> None:
    """The row kernel of both CSV sidecars.  ``chunks`` is a sequence of
    cheap chunk descriptions, and ``pieces(chunk)`` gives ``(n, pieces)``:
    each of the n rows is its pieces concatenated in order, a piece being an
    object array of n texts or one text shared by every row.

    Chunk i is formatted by process i mod W: the writer for 0, and for the
    others a worker forked after the tables are built, which sends its
    chunks' bytes through its own pipe.  W is the CPU count, capped by the
    chunk count and CSV_MAX_PROCESSES, and 1 where ``os.fork`` is missing.
    The writer writes every chunk in order, and formats itself the chunks of
    a worker whose pipe ends early, so the bytes never depend on W."""

    def text(i: int) -> bytes:
        n, row_pieces = pieces(chunks[i])
        k = len(row_pieces)
        parts = [""] * (n * k)  # row r's pieces at r*k .. r*k + k-1
        for c, piece in enumerate(row_pieces):
            parts[c::k] = [piece] * n if isinstance(piece, str) else piece.tolist()
        return "".join(parts).encode("utf-8")

    count = 1 if not hasattr(os, "fork") else min(_cpu_count(), len(chunks), CSV_MAX_PROCESSES)
    _three_digits()  # built once, before the fork
    workers = {}  # process index -> (pid, read end of its pipe)
    try:
        with open(path, "wb") as fh:
            for w in range(1, count):
                workers[w] = _fork_formatter(text, range(w, len(chunks), count), workers)
            fh.write(header.encode("utf-8"))
            live = set(workers)  # the workers whose pipes have not ended
            for i in range(len(chunks)):
                data = _receive(workers[i % count][1]) if i % count in live else None
                if data is None:  # the writer's own chunk, or one a worker did not send
                    live.discard(i % count)
                    data = text(i)
                fh.write(data)
    finally:
        for pid, pipe in workers.values():
            pipe.close()
            os.waitpid(pid, 0)


def _fork_formatter(text, indices, workers: dict) -> tuple:
    """Fork a worker that sends ``text(i)`` for each i of ``indices``,
    length-prefixed, through a new pipe, then exits: ``(pid, read end)``.
    A full pipe blocks the worker, so it runs at most a chunk ahead."""
    read, write = os.pipe()
    with warnings.catch_warnings():  # Python 3.12 warns when a threaded process forks
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    status = 1
    try:  # the worker: str and numpy code only, and always os._exit
        os.close(read)
        for _, pipe in workers.values():  # so only the writer reads each pipe
            pipe.close()
        with open(write, "wb") as pipe:
            for i in indices:
                data = text(i)
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _receive(pipe) -> bytes | None:
    """The next chunk from a worker's pipe, or None if the pipe ends first."""
    head = pipe.read(8)
    if len(head) < 8:
        return None
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    return data if len(data) == size else None


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
    _write_csv(path, "ordinal,label,lambda,dim,gain,opnorm\r\n", *_gain_rows(table))


def _gain_rows(table):
    """``(chunks, pieces)`` of the gains CSV: a chunk is its first row."""
    torus = table.window.model.kind == "torus2"
    labels = table.window.labels
    # label texts looked up by value: ',"(xi,' and 'eta)",' on the torus,
    # ',l=..,' and the dim (t+1)^2 by twice_ell t on SU(2)
    top = max([max(int(a.max()), -int(a.min())) for a in labels if len(a)], default=0)
    if torus:
        xis, etas = _texts(',"({},', range(-top, top + 1)), _texts('{})",', range(-top, top + 1))
    else:
        levels = _texts(",l={},", (t >> 1 if t % 2 == 0 else f"{t}/2" for t in range(top + 1)))
        dims = _texts("{}", ((t + 1) ** 2 for t in range(top + 1)))

    def pieces(lo: int):
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
        if np.array_equal(gain.view(np.int64), norm.view(np.int64)):
            tail = (np.array([f",{g},{g}\r\n" for g in gains.tolist()], dtype=object)[gi],)
        else:
            norms, ni = _float_texts(norm)
            tail = (("," + gains)[gi], ("," + norms + "\r\n")[ni])
        # GainTable ordinals are 0, 1, ..: row i has ordinal i
        return hi - lo, (_int_texts(lo, hi), *label, (lams + ",")[li], dim, *tail)

    return range(0, len(table), CSV_CHUNK_ROWS), pieces


def _write_coeffs_csv(path: str, field, cutoff: float) -> None:
    """Write the field as ``ordinal,label,component_index,re,im`` rows.

    The bytes equal a ``csv.writer`` row loop; long vectors are written in
    chunks of CSV_CHUNK_ROWS components.
    """
    _write_csv(path, "ordinal,label,component_index,re,im\r\n", *_coeff_rows(field, cutoff))


def _coeff_rows(field, cutoff: float):
    """``(chunks, pieces)`` of the coefficients CSV: a chunk is ``(head,
    vector, first component)``, the head ``ordinal,label,`` of its frequency."""
    chunks = [(f"{freq.j},{_csv_label(freq.label)},", vec, lo)
              for freq, vec in field.window(cutoff) for lo in range(0, len(vec), CSV_CHUNK_ROWS)]

    def pieces(chunk):
        head, vec, lo = chunk
        part = vec[lo:lo + CSV_CHUNK_ROWS]
        res, ri = _float_texts(part.real)
        ims, ii = _float_texts(part.imag)
        return len(part), (head, _int_texts(lo, lo + len(part)), ("," + res + ",")[ri],
                           (ims + "\r\n")[ii])

    return chunks, pieces


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
    """``(parsed, cutoff, symbol)`` of a spec command: the spec parsed, its
    cutoff required, then its symbol built."""
    from .specfile import parse_spec
    from .symbols import build_symbol

    parsed = parse_spec(args.spec)
    cutoff = _require_cutoff(args, parsed)
    return parsed, cutoff, build_symbol(parsed.operator)


def _spec_report(parsed, cutoff: float, **fields) -> dict:
    """A spec command's report: its fields, the spec's canonical echo and
    the cutoff."""
    from .specfile import emit_spec

    return {"spec_echo": emit_spec(parsed), "cutoff": cutoff, **fields}


def _cmd_analyze(args) -> dict:
    from .hypo import verdict
    from .symbols import estimate_order, gain_table

    parsed, cutoff, symbol = _spec_input(args)
    tol = _option(args, parsed, "tol", 1e-12)
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
    from .hypo import singular_scan
    from .symbols import gain_table

    parsed, cutoff, symbol = _spec_input(args)
    tol = _option(args, parsed, "tol", 1e-12)
    hits = singular_scan(gain_table(symbol, cutoff), tol)
    return _spec_report(parsed, cutoff, tol=tol, singular=[
        {"ordinal": f.j, "label": str(f.label), "lambda": f.lam, "dim": f.dim} for f in hits])


def _cmd_fit_exponent(args) -> dict:
    from .hypo import certify, fit_growth
    from .symbols import gain_table

    parsed, cutoff, symbol = _spec_input(args)
    if certify(parsed.operator) is not None:
        # a certified family has no empirical fit; its exponent is -inf
        return _spec_report(parsed, cutoff, fit=None, h_hat="-inf")
    fit = fit_growth(gain_table(symbol, cutoff), _option(args, parsed, "tol", 1e-12))
    return _spec_report(parsed, cutoff, fit=fit.as_dict(), h_hat=fit.m)


def _cmd_counterexample(args) -> dict:
    from .coefficients import build_counterexample, classify_regularity

    parsed, cutoff, symbol = _spec_input(args)
    k_steps = args.k if args.k is not None else parsed.options.get("k", 5)
    tol = _option(args, parsed, "tol", 1e-12)
    if tol < 0:
        raise SpecFileError([f"the guard band tol must be nonnegative, got {tol!r}"])
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
    from .coefficients import random_field
    from .subelliptic import best_alpha_constant, check_alpha, check_probe, extremal_field

    if args.probes < 0:
        raise PreconditionError(f"--probes must be nonnegative, got {args.probes}")
    if args.seed < 0:
        raise PreconditionError(f"--seed must be nonnegative, got {args.seed}")
    parsed, cutoff, symbol = _spec_input(args)
    s = _option(args, parsed, "s", 0.0)
    m = _option(args, parsed, "m", 1.0)
    report = best_alpha_constant(symbol, s, m, cutoff, _option(args, parsed, "tol", 1e-12))
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
