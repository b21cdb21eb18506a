"""Matrix-table files: the blocks of a ``matrix_table`` spec.

A matrix-table file holds ``{"entries": [{"label": ..., "matrix":
[[[re,im], ...], ...]}, ...]}`` with row-major complex entries; labels are
``[xi, eta]`` on the torus and ``twice_ell`` integers on SU(2), given
alone or as ``{"twice_ell": t}``, where each matrix is the (2l+1) x (2l+1)
representation block.  Other keys, in the table, an entry or a label
object, and a label given twice, are violations.

A table is parsed by one ``json.loads`` (``_parse``), whose object hook
turns each object's well-formed ``"matrix"`` value into its block as the
object closes, so only one block's lists are alive at a time; the entry
loop names the first bad cell of any other value.  ``specfile`` imports
this module only for a spec that names a table, so no other spec compiles
it.

A table that parses with no violation is cached, so that a later process
reading the same bytes skips the parse.  Its cache file is
``<$XDG_CACHE_HOME or ~/.cache>/hyposym/tables/<key>.npy``, where the key
is the sha256 of a format tag, the model kind, the source of every
``hyposym`` module and the table's bytes: an edit to the parser, or to the
table, reaches another file.  The file holds one int64 array: the entry
count, the labels in entry order (2 ints on the torus, 1 on SU(2)), then
the complex128 values of the blocks in that order.  A file that does not
hold exactly that layout is a miss, and a miss parses the text as above.
The cache never changes what is reported: a table with violations is
never stored, and every OSError on the cache only means no cache.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
from dataclasses import astuple
from itertools import chain

import numpy as np

from .spectral import Su2Label, Torus2Label
from .specfile import _reject_constant

__all__ = ["load_table"]

# the first bytes hashed into a cache key: a new file layout takes a new tag
CACHE_FORMAT = b"hyposym matrix table cache 1"


def load_table(path: str, model_kind: str, problems: list[str]):
    """The blocks of the table file at ``path`` by label, or None; every
    violation found goes to ``problems``."""
    given = len(problems)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        cache = _cache_file(model_kind, data)
        cached = _read_cache(cache, model_kind) if cache else None
        if cached is not None:
            return cached
        # the text ``open(path, encoding="utf-8")`` reads, universal newlines included
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        del data  # the parse holds its text and blocks, not the bytes too
        doc = _parse(text)
    except OSError as exc:
        problems.append(f"matrix table {path!r}: cannot read ({exc})")
        return None
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        problems.append(f"matrix table {path!r}: invalid JSON ({exc})")
        return None
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not entries:
        problems.append(f"matrix table {path!r}: needs a nonempty 'entries' list")
        return None
    problems.extend(f"matrix table {path!r}: unknown key {k!r}" for k in doc if k != "entries")
    table, seen = {}, {}
    for i, entry in enumerate(entries):
        where = f"table entry {i}"
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be an object")
            continue
        problems.extend(f"{where}: unknown key {k!r}"
                        for k in entry if k not in ("label", "matrix"))
        label = _parse_table_label(entry.get("label"), model_kind, where, problems)
        if label in seen:
            problems.append(f"{where}: label {label} repeats table entry {seen[label]}")
        elif label is not None:
            seen[label] = i
        mat = _parse_matrix(entry.get("matrix"), where, problems)
        if label is None or mat is None:
            continue
        expected = label.rep_dim()
        if len(mat) != expected:
            problems.append(
                f"{where}: block size {len(mat)} does not match dimension {expected}"
            )
            continue
        table[label] = mat
    if cache and len(problems) == given:
        _write_cache(cache, table)
    return table


def _cache_file(model_kind: str, data: bytes) -> str | None:
    """The cache file of a table of bytes ``data`` (see the module
    docstring), or None where the sources or the cache directory are not
    known."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):  # no home directory
        return None
    key = hashlib.sha256(CACHE_FORMAT + b"\0" + model_kind.encode() + b"\0")
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        for name in sorted(n for n in os.listdir(here) if n.endswith(".py")):
            with open(os.path.join(here, name), "rb") as fh:
                source = fh.read()
            key.update(b"%s\0%d\0" % (name.encode(), len(source)) + source)
    except OSError:
        return None
    key.update(data)
    return os.path.join(base, "hyposym", "tables", key.hexdigest() + ".npy")


def _read_cache(cache: str, model_kind: str):
    """The table stored at ``cache``, its blocks owned and read-only, or
    None where it is missing or not exactly the layout ``_write_cache``
    writes."""
    make, width = (Torus2Label, 2) if model_kind == "torus2" else (Su2Label, 1)
    try:
        # mapped, so a header's shape is checked against the file's size
        # before anything is read; a plain array, so blocks copied from it are
        stored = np.asarray(np.load(cache, mmap_mode="r", allow_pickle=False))
        if stored.dtype != np.int64 or stored.ndim != 1 or len(stored) < 1:
            return None
        count = int(stored[0])
        if count < 1:
            return None
        head = 1 + width * count
        labels = [make(*ints) for ints in stored[1:head].reshape(count, width).tolist()]
        sizes = [label.rep_dim() for label in labels]
        values = stored[head:].view(np.complex128)
        if sum(n * n for n in sizes) != len(values) or not np.isfinite(values).all():
            return None
        table, at = {}, 0
        for label, n in zip(labels, sizes):
            block = values[at:at + n * n].reshape(n, n).copy()
            block.setflags(write=False)  # an owned read-only block, which MatrixTable adopts
            table[label] = block
            at += n * n
    except (OSError, ValueError, EOFError):  # no cache file, or one of another layout or size
        return None
    return table if len(table) == count else None


def _write_cache(cache: str, table: dict) -> None:
    """Store ``table`` at ``cache``, through a temporary file in its
    directory; where that fails, store nothing."""
    try:
        labels = np.array([len(table), *chain.from_iterable(map(astuple, table))],
                          dtype=np.int64)
    except OverflowError:  # a torus label beyond int64
        return
    blocks = np.concatenate([block.ravel() for block in table.values()])
    temp = f"{cache}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        with open(temp, "wb") as fh:
            np.save(fh, np.concatenate([labels, blocks.view(np.int64)]), allow_pickle=False)
        os.replace(temp, cache)
    except OSError:
        try:
            os.unlink(temp)
        except OSError:
            pass


def _parse(text: str):
    """The document of a table's ``text``, with the blocks of ``_with_block``."""
    enabled = gc.isenabled()
    gc.disable()  # the parse makes no cycle to collect, only many lists
    try:
        return json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_with_block)
    finally:
        if enabled:
            gc.enable()


def _with_block(pairs) -> dict:
    """The object of ``pairs``, a ``"matrix"`` value ``_matrix_array`` takes
    replaced by its block: owned and read-only, which MatrixTable adopts."""
    obj = dict(pairs)
    arr = _matrix_array(obj.get("matrix"))
    if arr is not None:
        obj["matrix"] = arr = arr.copy()
        arr.setflags(write=False)
    return obj


def _parse_table_label(raw, model_kind: str, where: str, problems: list[str]):
    if model_kind == "torus2":
        if (
            isinstance(raw, list)
            and len(raw) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in raw)
        ):
            return Torus2Label(raw[0], raw[1])
        problems.append(f"{where}: torus label must be [xi, eta] integers")
        return None
    if isinstance(raw, dict):  # the form {"twice_ell": t}
        problems.extend(f"{where}: unknown label key {k!r}" for k in raw if k != "twice_ell")
        raw = raw.get("twice_ell")
    if isinstance(raw, int) and not isinstance(raw, bool) and raw >= 0:
        return Su2Label(raw)
    problems.append(f"{where}: su2 label must be a nonnegative twice_ell integer")
    return None


def _matrix_array(raw):
    """The complex block of a well-formed n x n table of [re, im] cells, or
    None.  It is checked in one flattened pass: rows and cells are lists of
    n and 2 parts, every part is an int or a float (numpy alone would take
    True and "1.5"), and every part is finite.  The complex view of the
    float array is bit-for-bit ``complex(re, im)``, negative zeros
    included."""
    if type(raw) is not list or not raw or set(map(type, raw)) != {list}:
        return None
    n = len(raw)
    if set(map(len, raw)) != {n}:
        return None
    cells = list(chain.from_iterable(raw))
    if set(map(type, cells)) != {list} or set(map(len, cells)) != {2}:
        return None
    flat = list(chain.from_iterable(cells))
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        arr = np.array(flat, dtype=float)
    except OverflowError:  # an integer beyond float range
        return None
    if not np.isfinite(arr).all():
        return None
    return arr.reshape(n, n, 2).view(np.complex128)[..., 0]


def _parse_matrix(raw, where: str, problems: list[str]):
    """The block of a table entry: the array ``_parse`` made, or that of a
    nested list; a list the array check declines is walked cell by cell, to
    name its first bad cell."""
    arr = raw if isinstance(raw, np.ndarray) else _matrix_array(raw)
    if arr is None:
        problems.append(f"{where}: {_first_bad_cell(raw)}")
    return arr


def _first_bad_cell(raw) -> str:
    """What ``_matrix_array`` declined in a table, at its first bad cell."""
    if not isinstance(raw, list) or not raw:
        return "matrix must be a nonempty row list"
    for r, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != len(raw):
            return f"matrix must be square (row {r})"
        for c, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in cell)
            ):
                return f"entry ({r},{c}) must be [re, im]"
            try:
                complex(cell[0], cell[1])
            except OverflowError:  # an integer beyond float range
                return f"entry ({r},{c}) must be finite"
    return "matrix entries must be finite"
