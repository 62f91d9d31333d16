"""The one writer of hpqkit's output files: UTF-8 with LF line ends, numbers
with 12 significant digits (``nan``/``inf`` when not finite), so identical
runs write byte-identical files.
"""

from __future__ import annotations

import numbers
from itertools import chain, islice
from typing import Any, Iterable, Mapping, Sequence

__all__ = ["fmt", "write_csv", "write_ini", "write_lines"]

#: rows :func:`write_csv` formats with one ``%`` operation
CSV_BLOCK_ROWS = 1024


def fmt(value: float) -> str:
    """Locale-independent float form with 12 significant digits."""
    return f"{value:.12g}"


def _open(path: str):
    return open(path, "w", encoding="utf-8", newline="\n")


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each line followed by a newline."""
    with _open(path) as fh:
        fh.writelines(line + "\n" for line in lines)


def write_csv(path: str, header: Sequence[str], rows: Iterable[tuple]) -> None:
    """Write a header line, then one comma-separated line per row tuple, streamed.

    The first row fixes the cell formats for all rows: ``str`` cells are
    written as given, any other cell as a 12-digit number. After it, rows
    are formatted :data:`CSV_BLOCK_ROWS` at a time by one ``%`` operation
    on their flattened cells; a row whose width differs from the first
    row's raises ``TypeError``, as formatting it alone would.
    """
    rows = iter(rows)
    first = next(rows, None)
    with _open(path) as fh:
        fh.write(",".join(header) + "\n")
        if first is None:
            return
        template = ",".join("%s" if isinstance(c, str) else "%.12g" for c in first) + "\n"
        fh.write(template % first)
        while block := list(islice(rows, CSV_BLOCK_ROWS)):
            if set(map(len, block)) != {len(first)}:
                raise TypeError(f"every row needs {len(first)} cells, as the first row has")
            fh.write((template * len(block)) % tuple(chain.from_iterable(block)))


def _ini_value(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(value)
    if isinstance(value, numbers.Real):
        return fmt(value)
    return ", ".join(fmt(v) for v in value)


def write_ini(path: str, sections: Mapping[str, Mapping[str, Any]]) -> None:
    """Write ``[name]`` blocks of ``key = value`` lines with a blank line between blocks.

    ``str`` values are written as given, ``bool`` as ``true``/``false``,
    integers in decimal, other numbers by :func:`fmt`, and a sequence of
    numbers as their :func:`fmt` forms joined by ``", "``.
    """
    lines: list[str] = []
    for name, entries in sections.items():
        if lines:
            lines.append("")
        lines.append(f"[{name}]")
        lines += [f"{key} = {_ini_value(value)}" for key, value in entries.items()]
    write_lines(path, lines)
