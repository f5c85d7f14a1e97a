"""The text format of every file zrlab writes: ``# key = value`` lines,
then, in a table, a column line and one line per row, a tuple of Python
scalars (``tolist()``) written by ``str``: a float reads back bit for bit.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path


def header_lines(header: dict) -> list[str]:
    return [f"# {key} = {value}" for key, value in header.items()]


def write_lines(path, lines) -> None:
    """Streamed, never held as one string; the directory is created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.writelines(f"{line}\n" for line in lines)


def write_table(path, header: list[str], columns, rows) -> None:
    """``header_lines``, the column line, then one line per row."""
    line = ",".join(["%s"] * len(columns))
    write_lines(path, chain(header, [",".join(columns)],
                            (line % row for row in rows)))


def read_table(path) -> tuple[dict, list[str], list[list[str]]]:
    """The header, column names and rows' cells of a ``write_table`` file."""
    header, columns, rows = {}, [], []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
        elif not columns:
            columns = line.split(",")
        elif line:
            rows.append(line.split(","))
    return header, columns, rows
