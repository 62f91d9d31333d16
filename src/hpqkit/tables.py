"""The one writer of hpqkit's output files: UTF-8 with LF line ends, numbers
with 12 significant digits (``nan``/``inf`` when not finite), so identical
runs write byte-identical files.
"""

from __future__ import annotations

import numbers
from typing import Any, Iterable, Mapping, Sequence

__all__ = ["fmt", "write_csv", "write_ini", "write_lines"]


def fmt(value: float) -> str:
    """Locale-independent float form with 12 significant digits."""
    return f"{value:.12g}"


def _open(path: str):
    return open(path, "w", encoding="utf-8", newline="\n")


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each line followed by a newline."""
    with _open(path) as fh:
        fh.writelines(line + "\n" for line in lines)


def write_csv(path: str, header: Sequence[str], blocks: Iterable[Sequence[Sequence]]) -> None:
    """Write a header line, then the rows of each block of columns, streamed block by block.

    A block holds one column per header name, all of one length; its rows
    are cell ``i`` of every column. The first row written fixes the cell
    formats for all blocks: ``str`` cells are written as given, any other
    cell as a 12-digit number. A block is written by one ``%`` operation on
    its cells, interleaved row by row into one list by strided assignment,
    so that no row is built on its own. Columns of
    unequal length raise ``TypeError``, and so does the ``%`` operation for
    a block with another number of columns.
    """
    template = None
    with _open(path) as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            n_rows = len(block[0])
            if any(len(column) != n_rows for column in block):
                raise TypeError(f"columns of one block need one length, got {[len(c) for c in block]}")
            if n_rows == 0:
                continue
            if template is None:
                template = ",".join("%s" if isinstance(c[0], str) else "%.12g" for c in block) + "\n"
            cells = [None] * (n_rows * len(block))
            for j, column in enumerate(block):
                cells[j :: len(block)] = column
            fh.write((template * n_rows) % tuple(cells))


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
