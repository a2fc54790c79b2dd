"""Bit-exact artifact emission.

JSON is rendered by a canonical writer (sorted keys, floats at 17
significant digits in lowercase scientific notation, non-finite values as
strings) so identical inputs produce byte-identical files; a CSV float is
its shortest round-trip repr.  All writes go through temp-and-rename so
failed runs never leave partial artifacts.
"""

from __future__ import annotations

import math
import os
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = ["canonical_json", "write_text_atomic", "write_json_atomic",
           "write_csv_atomic", "format_float"]


def format_float(x: float) -> str:
    """17 significant digits, lowercase scientific; non-finite as strings."""
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.16e}"


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


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
        return f'"{_escape(obj)}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj,):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {type(key)}")
            items.append(f'{inner}"{_escape(key)}": {canonical_json(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{canonical_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)} canonically")


def write_text_atomic(path: Path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: Path, obj):
    write_text_atomic(path, canonical_json(obj) + "\n")


def write_csv_atomic(path: Path, header: Sequence[str], rows: Sequence[Sequence] | np.ndarray):
    """Header line, then one line per row, every cell rendered by str.

    ``rows`` is a sequence of rows or a 2-D float array, which becomes
    Python floats here, one file at a time.  str renders a float as its
    shortest round-trip repr (nan, inf and -inf bare), an int as its
    digits and a str as itself.
    """
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    write_text_atomic(path, "\n".join(lines) + "\n")
