"""Operator spec files: parsing, validation, canonical emission.

A spec is a JSON object::

    {"model":    {"kind": "torus2" | "su2"},
     "operator": {"kind": "torus_poly",   "terms": [TERM, ...]}
               | {"kind": "su2_diag",     "poly":  [TERM, ...]}
               | {"kind": "matrix_table", "path":  "blocks.json"},
     "options":  {...}}                                  # optional

Each TERM carries degrees (``deg_t``/``deg_x`` on the torus, ``deg_d0``/
``deg_neglap`` on SU(2)) plus one coefficient form:

* ``"coeff": [re, im]`` -- JSON integers are exact, JSON floats are
  inexact (floats never feed certification paths);
* ``"coeff_real"`` / ``"coeff_imag"`` -- exact literals in the real-spec
  grammar, e.g. ``"3/7"`` or ``"(1+1*sqrt(5))/2"``.

A matrix table is a file of its own, read by ``tables.load_table``, which
is imported only for a spec that names one.  No spec loads numpy or
``symbols`` to be parsed.

Validation collects every violation before failing; a key given twice in
one object, whose last value ``json`` would keep, is one.  ``emit_spec``
writes the canonical form; parse(emit(parse(x))) == parse(x).
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import SpecFileError
from .exact import Enclosure, format_real, parse_real
from .operators import Coefficient, MatrixTable, Su2DiagPoly, TorusPoly

MAX_DEGREE = 8

_KNOWN_OPTIONS = {
    "cutoff": (int, float),
    "tol": (int, float),
    "s": (int, float),
    "m": (int, float),
    "k": (int,),
}
# options that must be finite numbers; a non-finite cutoff is a precondition
# violation of the command instead (exit 3)
_FINITE_OPTIONS = ("tol", "s", "m")

# polynomial operator kind -> (model kind, key of its term list, degree keys,
# operator class)
_POLY_KINDS = {
    "torus_poly": ("torus2", "terms", ("deg_t", "deg_x"), TorusPoly),
    "su2_diag": ("su2", "poly", ("deg_d0", "deg_neglap"), Su2DiagPoly),
}

__all__ = ["ParsedSpec", "parse_spec", "emit_spec", "MAX_DEGREE"]


@dataclass(frozen=True)
class ParsedSpec:
    """A spec's operator, which fixes its model, and its options."""

    operator: TorusPoly | Su2DiagPoly | MatrixTable
    options: dict


def _parse_coefficient(term: dict, where: str, problems: list[str]) -> Coefficient:
    has_pair = "coeff" in term
    has_exact = "coeff_real" in term or "coeff_imag" in term
    if has_pair and has_exact:
        problems.append(f"{where}: give either 'coeff' or 'coeff_real'/'coeff_imag', not both")
        return Coefficient.make(0)
    if not has_pair and not has_exact:
        problems.append(f"{where}: missing coefficient")
        return Coefficient.make(0)

    if has_pair:
        pair = term["coeff"]
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            problems.append(f"{where}: 'coeff' must be a [re, im] number pair")
            return Coefficient.make(0)
        parts = pair
    else:
        parts = [_parse_exact_part(term, key, where, problems)
                 for key in ("coeff_real", "coeff_imag")]
    # an exact part beyond float range would overflow the float evaluation
    if not all(_is_finite(v) for v in parts):
        problems.append(f"{where}: coefficient parts must be finite (within float range)")
        return Coefficient.make(0)
    return Coefficient.make(parts[0], parts[1])


def _parse_exact_part(term: dict, key: str, where: str, problems: list[str]):
    raw = term.get(key)
    if raw is None:
        return Fraction(0)
    if not isinstance(raw, str):
        problems.append(f"{where}: {key} must be a real-spec string")
        return Fraction(0)
    try:
        value = parse_real(raw)
    except Exception as exc:
        problems.append(f"{where}: malformed {key} literal {raw!r} ({exc})")
        return Fraction(0)
    if isinstance(value, Enclosure):
        problems.append(f"{where}: enclosure coefficients are not supported in operators")
        return Fraction(0)
    return value


def _parse_degree(term: dict, key: str, where: str, problems: list[str]) -> int:
    value = term.get(key)
    if value is None:
        return 0
    if not isinstance(value, int) or isinstance(value, bool) or not (0 <= value <= MAX_DEGREE):
        problems.append(f"{where}: {key} must be an integer in 0..{MAX_DEGREE}")
        return 0
    return value


def _parse_terms(raw, keys: tuple[str, str], where: str, problems: list[str]):
    if not isinstance(raw, list) or not raw:
        problems.append(f"{where}: must be a nonempty list of terms")
        return []
    allowed = {"coeff", "coeff_real", "coeff_imag", *keys}
    out = []
    for i, term in enumerate(raw):
        spot = f"{where}[{i}]"
        if not isinstance(term, dict):
            problems.append(f"{spot}: term must be an object")
            continue
        for k in term:
            if k not in allowed:
                problems.append(f"{spot}: unknown key {k!r}")
        coeff = _parse_coefficient(term, spot, problems)
        a = _parse_degree(term, keys[0], spot, problems)
        b = _parse_degree(term, keys[1], spot, problems)
        out.append((coeff, a, b))
    return out


def _make_operator(make, terms, where: str, problems: list[str]):
    """``make(terms)``, whose terms of equal degrees add exactly; a merged
    coefficient beyond float range would overflow the float evaluation, and
    one longer than Python writes as text could not be echoed."""
    operator = make(terms)
    for coeff, a, b in operator.terms:
        if not (_is_finite(coeff.re) and _is_finite(coeff.im)):
            problems.append(f"{where}: the merged coefficient of degrees ({a}, {b}) "
                            "leaves float range")
        elif not _has_text(coeff):
            problems.append(f"{where}: the merged coefficient of degrees ({a}, {b}) has more "
                            f"than {sys.get_int_max_str_digits()} digits, Python's limit for "
                            "int text")
    return None if problems else operator


def _has_text(coeff: Coefficient) -> bool:
    try:
        json.dumps(_emit_coefficient(coeff))
    except ValueError:  # an int longer than Python writes as text
        return False
    return True


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


def _reject_constant(name: str):
    # Python's json accepts NaN and Infinity, which are not JSON numbers
    raise ValueError(f"non-finite number {name} is not allowed")


class _RepeatedKey(ValueError):
    """A key given twice in one JSON object; its one argument is the key."""


def _unique_keys(pairs) -> dict:
    """The object of ``pairs``, whose keys must differ (``json`` would keep
    the last value of a repeated key)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        raise _RepeatedKey(next(k for k, _ in pairs if k in seen or seen.add(k)))
    return obj


def parse_spec(source, base_dir: str | None = None) -> ParsedSpec:
    """Parse and validate a spec from a path, JSON text, or dict.

    Raises SpecFileError carrying *all* schema violations found.
    """
    problems: list[str] = []
    if isinstance(source, dict):
        doc = source
    else:
        text = None
        if isinstance(source, (str, os.PathLike)) and os.path.exists(str(source)):
            base_dir = base_dir or os.path.dirname(os.path.abspath(str(source)))
            try:
                with open(source, encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise SpecFileError([f"spec file {str(source)!r}: cannot read ({exc})"]) from None
        elif isinstance(source, str):
            if not source.lstrip().startswith(("{", "[")):
                raise SpecFileError([f"spec file not found: {source!r}"])
            text = source
        else:
            raise SpecFileError([f"cannot read spec from {source!r}"])
        try:
            doc = json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
        except _RepeatedKey as exc:
            raise SpecFileError([f"repeated key {exc.args[0]!r}"]) from None
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise SpecFileError([f"invalid JSON: {exc}"])
    if not isinstance(doc, dict):
        raise SpecFileError(["spec must be a JSON object"])

    for key in doc:
        if key not in ("model", "operator", "options"):
            problems.append(f"unknown top-level key {key!r}")

    model_kind = None
    model_raw = doc.get("model")
    if model_raw is None:
        problems.append("missing required field 'model'")
    elif not isinstance(model_raw, dict) or "kind" not in model_raw:
        problems.append("'model' must be an object with a 'kind'")
    elif model_raw["kind"] not in ("torus2", "su2"):
        problems.append(f"unknown model kind {model_raw['kind']!r}")
    else:
        model_kind = model_raw["kind"]
        for key in model_raw:
            if key != "kind":
                problems.append(f"model: unknown key {key!r}")

    operator = None
    op_raw = doc.get("operator")
    if op_raw is None:
        problems.append("missing required field 'operator'")
    elif not isinstance(op_raw, dict) or "kind" not in op_raw:
        problems.append("'operator' must be an object with a 'kind'")
    else:
        kind = op_raw["kind"]
        # a JSON list or object is no dict key: test for a string first
        if isinstance(kind, str) and kind in _POLY_KINDS:
            model, list_key, degrees, poly = _POLY_KINDS[kind]
            if model_kind not in (None, model):
                problems.append(f"{kind} operator requires the {model} model")
            for key in op_raw:
                if key not in ("kind", list_key):
                    hint = f" ({kind} takes its terms under 'poly')" if key == "terms" else ""
                    problems.append(f"operator: unknown key {key!r}{hint}")
            where = f"operator.{list_key}"
            terms = _parse_terms(op_raw.get(list_key), degrees, where, problems)
            if terms and not problems:
                operator = _make_operator(poly.make, terms, where, problems)
        elif kind == "matrix_table":
            for key in op_raw:
                if key not in ("kind", "path"):
                    problems.append(f"operator: unknown key {key!r}")
            path = op_raw.get("path")
            if not isinstance(path, str):
                problems.append("matrix_table needs a 'path' string")
            elif model_kind is not None:
                full = path if os.path.isabs(path) else os.path.join(base_dir or ".", path)
                from .tables import load_table

                table = load_table(full, model_kind, problems)
                if table and not problems:
                    operator = MatrixTable.packed(model_kind, *table, path=path)
        else:
            problems.append(f"unknown operator kind {kind!r}")

    options = doc.get("options", {})
    if not isinstance(options, dict):
        problems.append("'options' must be an object")
        options = {}
    else:
        for key, value in options.items():
            expected = _KNOWN_OPTIONS.get(key)
            if expected is None:
                problems.append(f"options: unknown key {key!r}")
            elif not isinstance(value, expected) or isinstance(value, bool):
                problems.append(f"options.{key}: expected {expected[0].__name__}")
            elif key in _FINITE_OPTIONS and not _is_finite(value):
                problems.append(f"options.{key}: must be finite, got {value!r}")

    if problems:
        raise SpecFileError(problems)
    return ParsedSpec(operator=operator, options=dict(options))


def _emit_coefficient(c: Coefficient) -> dict:
    if c.is_exact:
        if (
            isinstance(c.re, Fraction)
            and isinstance(c.im, Fraction)
            and c.re.denominator == 1
            and c.im.denominator == 1
        ):
            return {"coeff": [int(c.re), int(c.im)]}
        out = {}
        if c.re != 0 or c.im == 0:
            out["coeff_real"] = format_real(c.re)
        if c.im != 0:
            out["coeff_imag"] = format_real(c.im)
        return out

    def part(x):
        if isinstance(x, Fraction) and x.denominator == 1:
            return int(x)
        return float(x)  # degrades non-integral exact parts mixed with floats

    return {"coeff": [part(c.re), part(c.im)]}


def emit_spec(parsed: ParsedSpec) -> dict:
    """Canonical JSON-able form of a parsed spec."""
    op = parsed.operator
    for kind, (_, list_key, (da, db), poly) in _POLY_KINDS.items():
        if isinstance(op, poly):
            op_doc = {"kind": kind, list_key: [{**_emit_coefficient(c), da: a, db: b}
                                               for c, a, b in op.terms]}
            break
    else:
        op_doc = {"kind": "matrix_table", "path": op.path}
    doc = {"model": {"kind": op.model_kind}, "operator": op_doc}
    if parsed.options:
        doc["options"] = dict(sorted(parsed.options.items()))
    return doc
