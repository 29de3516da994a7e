"""Machine-readable result tables with lossless CSV/JSON round-tripping.

Numbers are written in full round-trip precision (`repr`); infeasible
cells are the literal token ``NA`` in CSV and ``null`` in JSON.  The CSV
flavor carries the schema version, the command echo and any warnings as
leading ``#`` comment lines so both formats hold the same information.

The writers take a table a *block* of rows at a time.  A block holds one
column per dataset column, each either a list of the block's cells or a
single cell that stands for every row of the block; a block with no list
column is one row.  A single cell is formatted once per block, and a list
that recurs as the same object (an x grid shared by several curves) once
per call.  A dataset built from rows is cut into blocks of at most
BLOCK_ROWS rows.  ``csv_chunks`` and ``json_chunks`` give the text a block
at a time, so that it can be written without being held whole.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

Cell = float | int | str | None
#: A column of a block: a list of the block's cells, or one cell for every row.
Column = list[Cell] | Cell
#: One column per dataset column; a block with no list column is one row.
Block = tuple[Column, ...]

#: Most rows in a block: the batch of a row-built dataset, and the longest
#: list the command-line front end puts in a block.
BLOCK_ROWS = 4096
#: Cells of the list columns one writer call memoises: the first lists seen
#: that fit are held, with their texts, for the rest of the call.
_MEMO_CELLS = BLOCK_ROWS


@dataclass
class Dataset:
    """A table of cells, given as ``rows`` or as ``blocks``.  Either is a
    list, or an iterator that a writer consumes once.  A list column of a
    block must not change once the block is given to a writer."""

    command: str
    columns: list[str]
    rows: Iterable[list[Cell]] = ()
    warnings: list[str] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION
    blocks: Iterable[Block] | None = None

    def __post_init__(self) -> None:
        if self.blocks is not None and self.rows != ():
            raise ValueError("a dataset takes rows or blocks, not both")
        if isinstance(self.rows, list):
            _check_widths(self.rows, len(self.columns), 0)


def _check_widths(rows: list, width: int, first: int) -> None:
    for i, row in enumerate(rows, first):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} cells, expected {width}")


def _gathered(rows: list, width: int, first: int) -> tuple[int, Block]:
    """Rows, their widths checked, as one block of list columns."""
    _check_widths(rows, width, first)
    return len(rows), tuple(map(list, zip(*rows)))


def _sized_blocks(ds: Dataset) -> Iterator[tuple[int, Block]]:
    """(row count, block) for each block of ds, its shape checked.  The rows
    of a row-built dataset, and runs of one-row blocks, are gathered into
    blocks of up to BLOCK_ROWS rows."""
    width, done, rows = len(ds.columns), 0, []
    row_built = ds.blocks is None
    for block in ds.rows if row_built else ds.blocks:
        if row_built or list not in map(type, block):
            rows.append(block)
            if len(rows) == BLOCK_ROWS:
                yield _gathered(rows, width, done)
                done, rows = done + len(rows), []
            continue
        if rows:
            yield _gathered(rows, width, done)
            done, rows = done + len(rows), []
        if len(block) != width:
            raise ValueError(f"block at row {done} has {len(block)} columns, expected {width}")
        lengths = {len(column) for column in block if type(column) is list}
        if len(lengths) > 1:
            raise ValueError(f"block at row {done} has list columns of lengths {sorted(lengths)}")
        n = lengths.pop()
        yield n, block
        done += n
    if rows:
        yield _gathered(rows, width, done)


def _csv_texts(cells: list[Cell]) -> list[str]:
    """The CSV text of each cell: NA for None, repr for a float, str otherwise."""
    return ["NA" if c is None else repr(c) if isinstance(c, float) else str(c) for c in cells]


def _json_texts(cells: list[Cell]) -> list[str]:
    """The JSON text of each cell, as json.dumps writes it."""
    return [repr(c) if type(c) is float and math.isfinite(c) else json.dumps(c) for c in cells]


def _lines(ds: Dataset, texts_of: Callable[[list[Cell]], list[str]], sep: str) -> Iterator[Iterable[str]]:
    """Per non-empty block of ds, the texts of its rows: the texts_of their
    cells joined by sep.  A single cell is formatted once per block, a list
    column once per call while the memo has room: the memo holds the lists
    it keeps, so that no other list takes their ids, up to _MEMO_CELLS cells
    in all."""
    memo: dict[int, tuple[list, list[str]]] = {}
    room = _MEMO_CELLS
    for n, block in _sized_blocks(ds):
        if not n:
            continue
        texts: list[str | None] = []
        lists: list[list[str]] = []
        for column in block:
            if type(column) is not list:
                texts.append(texts_of([column])[0])
                continue
            texts.append(None)
            hit = memo.get(id(column))
            if hit is None:
                hit = (column, texts_of(column))
                if len(column) <= room:
                    memo[id(column)] = hit
                    room -= len(column)
            lists.append(hit[1])
        if not lists:  # no columns
            yield itertools.repeat("", n)
            continue
        template = sep.join("{}" if t is None else t.replace("{", "{{").replace("}", "}}") for t in texts)
        yield map(template.format, *lists)


def _header(ds: Dataset) -> str:
    lines = [f"# schema={ds.schema_version}", f"# command={ds.command}"]
    lines.extend(f"# warning={w}" for w in ds.warnings)
    lines.append(",".join(ds.columns))
    return "\n".join(lines) + "\n"


def csv_chunks(ds: Dataset) -> Iterator[str]:
    """The CSV text of ds in pieces: the header, then each block's rows."""
    yield _header(ds)
    for rows in _lines(ds, _csv_texts, ","):
        yield "\n".join(rows)
        yield "\n"


def json_chunks(ds: Dataset) -> Iterator[str]:
    """The text of ``json.dumps`` of the dataset with indent=1, in pieces."""
    head = {
        "schema_version": ds.schema_version,
        "command": ds.command,
        "warnings": ds.warnings,
        "columns": ds.columns,
    }
    # json.dumps of the head ends in "\n}": the rows go before it.
    yield json.dumps(head, indent=1)[:-2] + ',\n "rows": ['
    row = "[\n   {}\n  ]" if ds.columns else "[]"
    any_rows = False
    for rows in _lines(ds, _json_texts, ",\n   "):
        yield (",\n  " if any_rows else "\n  ") + ",\n  ".join(map(row.format, rows))
        any_rows = True
    yield "\n ]\n}\n" if any_rows else "]\n}\n"


def to_csv(ds: Dataset) -> str:
    """The dataset as CSV: ``NA`` for None, ``repr`` for a float, ``str`` otherwise."""
    return "".join(csv_chunks(ds))


def to_json(ds: Dataset) -> str:
    return "".join(json_chunks(ds))


def _parse_cell(text: str) -> Cell:
    if text == "NA":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def from_csv(text: str) -> Dataset:
    schema = SCHEMA_VERSION
    command = ""
    warnings: list[str] = []
    columns: list[str] | None = None
    rows: list[list[Cell]] = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("schema="):
                schema = int(body[len("schema="):])
            elif body.startswith("command="):
                command = body[len("command="):]
            elif body.startswith("warning="):
                warnings.append(body[len("warning="):])
            continue
        if columns is None:
            columns = line.split(",")
        else:
            rows.append([_parse_cell(c) for c in line.split(",")])
    if columns is None:
        raise ValueError("CSV input carries no header row")
    return Dataset(command=command, columns=columns, rows=rows, warnings=warnings, schema_version=schema)


def from_json(text: str) -> Dataset:
    payload = json.loads(text)
    return Dataset(
        command=payload["command"],
        columns=list(payload["columns"]),
        rows=[list(r) for r in payload["rows"]],
        warnings=list(payload.get("warnings", [])),
        schema_version=int(payload["schema_version"]),
    )
