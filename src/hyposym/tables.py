"""Matrix-table files: the blocks of a ``matrix_table`` spec.

A matrix-table file holds ``{"entries": [{"label": ..., "matrix":
[[[re,im], ...], ...]}, ...]}`` with row-major complex entries; labels are
``[xi, eta]`` on the torus and ``twice_ell`` integers on SU(2), given
alone or as ``{"twice_ell": t}``, where each matrix is the (2l+1) x (2l+1)
representation block.  Other keys, in the table, an entry or a label
object, a key given twice in one object, and a label given twice, are
violations.

A table is parsed by one ``json.loads`` (``_parse``), whose object hook
turns each object's well-formed ``"matrix"`` value into the bytes of its
block as the object closes, so only one block's lists are alive at a time;
the entry loop names the first bad cell of any other value.  ``load_table``
hands back the labels and one read-only buffer of every block's values in
their order, which ``MatrixTable.packed`` views.  This module imports no
numpy, and ``specfile`` imports it only for a spec that names a table.

A table that parses with no violation is cached, so that a later process
reading the same bytes skips the parse.  Its cache file is
``<$XDG_CACHE_HOME or ~/.cache>/hyposym/tables/<sources>/<key>.npy``,
where ``sources`` is the sha256 of the source of every ``hyposym`` module
and the key that of a format tag, the model kind and the table's bytes: an
edit to the parser, or to the table, reaches another file.  A write removes
the directories of other sources and the ``tables/*.npy`` files of the
earlier flat layout, so the cache holds one version's tables, and another
version that shares it only misses.  The file is the ``.npy`` file that
``np.save`` writes of one int64 array: the entry count, the labels in entry
order (2 ints on the torus, 1 on SU(2)), then the complex128 values of the
blocks in that order.  It is written and read with the standard library
alone; a file that does not hold exactly that layout, or holds a value that
is not finite, is a miss, and a miss parses the text as above.  The cache
never changes what is reported: a table with violations is never stored,
and every OSError on the cache only means no cache.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import struct
import sys
from array import array
from dataclasses import astuple
from itertools import chain

from .operators import Su2Label, Torus2Label
from .specfile import _RepeatedKey, _reject_constant, _unique_keys

__all__ = ["load_table"]

# the first bytes hashed into a cache key: a new file layout takes a new tag
CACHE_FORMAT = b"hyposym matrix table cache 1"

# the length of the header np.save writes for a 1-D int64 array
_NPY_HEADER = 128

# the top byte of a little-endian double, mapped to 1 where the seven high
# bits of its exponent are all ones: every inf and NaN, and the finite values
# from 2^1009 up, which math.isfinite then tells apart
_TOP_BYTE = bytes(b & 0x7F == 0x7F for b in range(256))


def load_table(path: str, model_kind: str, problems: list[str]):
    """``(labels, values)`` of the table file at ``path``, ``values`` a
    read-only buffer of the blocks' complex128 values in label order, each
    block row-major; or None, with every violation found in ``problems``."""
    given = len(problems)
    try:
        with open(path, "rb") as fh:
            cache = _cache_file(model_kind, fh)  # hashed as read: a hit never holds the bytes
            cached = _read_cache(cache, model_kind) if cache else None
            if cached is not None:
                return cached
            fh.seek(0)
            data = fh.read()
        # the key of the bytes parsed, which the file may no longer hold
        cache = _cache_file(model_kind, io.BytesIO(data))
        # the text ``open(path, encoding="utf-8")`` reads, universal newlines included
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        del data  # the parse holds its text and blocks, not the bytes too
        doc = _parse(text)
    except OSError as exc:
        problems.append(f"matrix table {path!r}: cannot read ({exc})")
        return None
    except _RepeatedKey as exc:
        problems.append(f"matrix table {path!r}: repeated key {exc.args[0]!r}")
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
        expected, size = label.rep_dim(), math.isqrt(len(mat) // 16)
        if size != expected:
            problems.append(f"{where}: block size {size} does not match dimension {expected}")
            continue
        table[label] = mat
    if len(problems) > given:
        return None
    labels, values = list(table), b"".join(table.values())
    if cache:
        _write_cache(cache, labels, values)
    return labels, memoryview(values)


def _cache_file(model_kind: str, table) -> str | None:
    """The cache file of the table read from the binary file ``table`` (see
    the module docstring), or None where the sources or the cache directory
    are not known."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):  # no home directory
        return None
    sources = hashlib.sha256()
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        for name in sorted(n for n in os.listdir(here) if n.endswith(".py")):
            with open(os.path.join(here, name), "rb") as fh:
                source = fh.read()
            sources.update(b"%s\0%d\0" % (name.encode(), len(source)) + source)
    except OSError:
        return None
    key = hashlib.sha256(CACHE_FORMAT + b"\0" + model_kind.encode() + b"\0")
    hashlib.file_digest(table, lambda: key)
    return os.path.join(base, "hyposym", "tables", sources.hexdigest(), key.hexdigest() + ".npy")


def _read_cache(cache: str, model_kind: str):
    """``(labels, values)`` as ``load_table`` gives them, from the file at
    ``cache``, ``values`` a view of the one ``bytes`` read; or None where the
    file is missing or not exactly what ``_write_cache`` writes."""
    make, width = (Torus2Label, 2) if model_kind == "torus2" else (Su2Label, 1)
    try:
        with open(cache, "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    length, odd = divmod(len(raw) - _NPY_HEADER, 8)
    if length < 1 or odd or raw[:_NPY_HEADER] != _npy_header(length):
        return None
    (count,) = struct.unpack_from("<q", raw, _NPY_HEADER)
    head = 1 + width * count
    if count < 1 or head > length:
        return None
    ints = struct.unpack_from(f"<{head - 1}q", raw, _NPY_HEADER + 8)
    try:
        labels = [make(*label) for label in zip(*[iter(ints)] * width)]
    except ValueError:  # a negative twice_ell
        return None
    start = _NPY_HEADER + 8 * head
    if (len(set(labels)) != count
            or 16 * sum(label.rep_dim() ** 2 for label in labels) != len(raw) - start
            or not _all_finite(raw, start)):
        return None
    return labels, memoryview(raw)[start:]


def _write_cache(cache: str, labels: list, values: bytes) -> None:
    """Store the table of ``labels`` and ``values`` at ``cache``, in the
    bytes ``np.save`` writes, through a temporary file in its directory;
    where that fails, store nothing."""
    ints = [len(labels), *chain.from_iterable(map(astuple, labels))]
    try:
        head = struct.pack(f"<{len(ints)}q", *ints)
    except struct.error:  # a torus label beyond int64
        return
    temp = f"{cache}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        with open(temp, "wb") as fh:
            fh.write(_npy_header((len(head) + len(values)) // 8))
            fh.write(head)
            fh.write(values)
        os.replace(temp, cache)
    except OSError:
        try:
            os.unlink(temp)
        except OSError:
            pass
        return
    _evict_others(cache)


def _npy_header(length: int) -> bytes:
    """The header ``np.save`` writes for a 1-D int64 array of ``length``
    values: format 1.0, the shape padded with room for 21 digits, and the
    whole padded to 64-byte alignment."""
    text = f"{{'descr': '<i8', 'fortran_order': False, 'shape': ({length},), }}"
    text = text.ljust(len(text) + 21 - len(str(length))).ljust(_NPY_HEADER - 11) + "\n"
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text)) + text.encode("latin1")


def _all_finite(data: bytes, start: int = 0) -> bool:
    """Whether every little-endian double of ``data`` from ``start`` on is
    finite: only those whose top byte ``_TOP_BYTE`` marks are unpacked."""
    tops = data[start + 7::8].translate(_TOP_BYTE)
    at = tops.find(1)
    while at >= 0:
        if not math.isfinite(struct.unpack_from("<d", data, start + 8 * at)[0]):
            return False
        at = tops.find(1, at + 1)
    return True


def _evict_others(cache: str) -> None:
    """Remove the cache directories of other sources beside that of
    ``cache``, and the files of the flat layout before them; an OSError
    leaves what it meets."""
    root, own = os.path.split(os.path.dirname(cache))
    try:
        names = os.listdir(root)
    except OSError:
        return
    for name in names:
        if name == own or not re.fullmatch(r"[0-9a-f]{64}(\.npy)?", name):
            continue
        path = os.path.join(root, name)
        try:
            os.unlink(path) if name.endswith(".npy") else shutil.rmtree(path)
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
    """The object of ``pairs`` (``_unique_keys``), a ``"matrix"`` value that
    ``_matrix_array`` takes replaced by its block's bytes."""
    obj = _unique_keys(pairs)
    block = _matrix_array(obj.get("matrix"))
    if block is not None:
        obj["matrix"] = block
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
    """The bytes of the complex block of a well-formed n x n table of [re, im]
    cells, row-major little-endian complex128, or None.  It is checked in
    one flattened pass: rows and cells are lists of n and 2 parts, every part
    is an int or a float (``array`` alone would take True), and every part is
    finite.  Each value is bit-for-bit ``complex(re, im)``, negative zeros
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
        parts = array("d", flat)
    except OverflowError:  # an integer beyond float range
        return None
    if sys.byteorder == "big":
        parts.byteswap()
    block = parts.tobytes()
    return block if _all_finite(block) else None


def _parse_matrix(raw, where: str, problems: list[str]):
    """The block of a table entry: the bytes ``_parse`` made; any other
    value, which ``_matrix_array`` declined, is walked cell by cell, to name
    its first bad cell."""
    if not isinstance(raw, bytes):
        problems.append(f"{where}: {_first_bad_cell(raw)}")
        return None
    return raw


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
