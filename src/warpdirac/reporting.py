"""Bit-exact artifact emission.

JSON is rendered by a canonical writer (sorted keys, floats at 17
significant digits in lowercase scientific notation, non-finite values as
strings) so identical inputs produce byte-identical files; a CSV float is
its shortest round-trip repr.  Every write goes through temp-and-rename,
so a failed write leaves no partial file, and a file gets the mode that
open() would give it (0666 less the umask).  The command line writes each
artifact this way to a hidden name as soon as it is produced, and renames
the staged files into place together once the command has returned.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = ["canonical_json", "write_text_atomic", "write_json_atomic",
           "write_csv_atomic", "format_float"]

_CSV_BLOCK = 4096  # rows rendered into one string at a time


def format_float(x: float) -> str:
    """17 significant digits, lowercase scientific; non-finite as strings."""
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.16e}"


def canonical_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj,):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {type(key)}")
            items.append(f"{inner}{canonical_json(key)}: {canonical_json(obj[key], indent + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{canonical_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)} canonically")


def write_text_atomic(path: Path, text: str | Iterable[str]):
    """Write one string, or the strings of an iterable in turn, as UTF-8."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    # created 0666 like open() would, so the kernel applies the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: Path, obj):
    write_text_atomic(path, canonical_json(obj) + "\n")


def _float_columns(block: np.ndarray) -> list[list[str]]:
    """str of each cell of a float64 block, column by column.

    Each distinct bit pattern of a column is rendered once (a time or a
    radius repeats on every row of the evolve table); the bits, not the
    values, tell cells apart, so -0.0 keeps its sign.
    """
    columns = []
    for column in block.T:
        bits, where = np.unique(column.view(np.int64), return_inverse=True)
        text = np.array([str(x) for x in bits.view(np.float64).tolist()], dtype=object)
        columns.append(text[where].tolist())
    return columns


def write_csv_atomic(path: Path, header: Sequence[str], rows: Sequence[Sequence] | np.ndarray):
    """Header line, then one line per row, every cell rendered by str.

    ``rows`` is a sequence of rows or a 2-D array of floats (float64 cells
    here), rendered _CSV_BLOCK rows at a time, each block written before
    the next.  str renders a float as its shortest round-trip repr (nan,
    inf and -inf bare), an int as its digits and a str as itself.
    """
    def blocks():
        yield ",".join(header) + "\n"
        for lo in range(0, len(rows), _CSV_BLOCK):
            block = rows[lo:lo + _CSV_BLOCK]
            if isinstance(block, np.ndarray):
                block = zip(*_float_columns(block.astype(np.float64, copy=False)))
            else:
                block = (map(str, row) for row in block)
            yield "".join(",".join(row) + "\n" for row in block)

    write_text_atomic(path, blocks())
