"""Writers of machine-readable result tables, as CSV and as JSON.

Numbers are written in full round-trip precision (`repr`); infeasible
cells are the literal token ``NA`` in CSV and ``null`` in JSON.  The CSV
flavor carries the schema version, the command echo and any warnings as
leading ``#`` comment lines so both formats hold the same information.

A dataset is given a *block* of rows at a time.  A block holds one
column per dataset column, each either a list of the block's cells or a
single cell that stands for every row of the block; a block with no list
column is one row.  A single cell is formatted once per block, and a list
column that is the same object as one of the block before (the x grid
that consecutive curves share) is formatted once for both.  ``csv_chunks``
and ``json_chunks`` give the text a block at a time, as each block
arrives, so that it can be written without being held whole.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import repeat

SCHEMA_VERSION = 1

Cell = float | int | str | None
#: A column of a block: a list of the block's cells, or one cell for every row.
Column = list[Cell] | Cell
#: One column per dataset column; a block with no list column is one row.
Block = tuple[Column, ...]


@dataclass
class Dataset:
    """A table of cells given as blocks: a list, or an iterator that a
    writer consumes once.  A list column of a block must not change once
    the block is given to a writer."""

    command: str
    columns: list[str]
    blocks: Iterable[Block]
    warnings: list[str] = field(default_factory=list)


def _csv_texts(cells: Sequence[Cell]) -> list[str]:
    """The CSV text of each cell: NA for None, str otherwise (a float's str is its repr)."""
    return ["NA" if c is None else str(c) for c in cells]


def _json_texts(cells: Sequence[Cell]) -> list[str]:
    """The JSON text of each cell, as json.dumps writes it."""
    return [repr(c) if type(c) is float and math.isfinite(c) else json.dumps(c) for c in cells]


def _lines(ds: Dataset, texts_of: Callable[[Sequence[Cell]], list[str]], sep: str) -> Iterator[Iterable[str]]:
    """The texts of the rows of ds, a group per non-empty block, as the
    block arrives: each row joined by sep from its column texts, texts_of
    its cells.  A single cell is formatted once per block and repeated; a
    list column that is the same object as one of the block before reuses
    its texts.  The lists of the block before are held with their texts,
    so that no other list takes their ids."""
    width, done = len(ds.columns), 0
    held: dict[int, tuple[list, list[str]]] = {}
    for block in ds.blocks:
        if list not in map(type, block):
            if len(block) != width:
                raise ValueError(f"row {done} has {len(block)} cells, expected {width}")
            done, held = done + 1, {}
            yield (sep.join(texts_of(block)),)
            continue
        if len(block) != width:
            raise ValueError(f"block at row {done} has {len(block)} columns, expected {width}")
        lengths = {len(column) for column in block if type(column) is list}
        if len(lengths) > 1:
            raise ValueError(f"block at row {done} has list columns of lengths {sorted(lengths)}")
        n = lengths.pop()
        if not n:
            continue
        done += n
        columns: list[Iterable[str]] = []
        kept: dict[int, tuple[list, list[str]]] = {}
        for column in block:
            if type(column) is not list:
                columns.append(repeat(texts_of([column])[0]))
                continue
            kept[id(column)] = hit = held.get(id(column)) or (column, texts_of(column))
            columns.append(hit[1])
        held = kept
        yield map(sep.join, zip(*columns))


def _header(ds: Dataset) -> str:
    lines = [f"# schema={SCHEMA_VERSION}", f"# command={ds.command}"]
    lines.extend(f"# warning={w}" for w in ds.warnings)
    lines.append(",".join(ds.columns))
    return "\n".join(lines) + "\n"


def csv_chunks(ds: Dataset) -> Iterator[str]:
    """The CSV text of ds in pieces: the header, then each block's rows."""
    yield _header(ds)
    for rows in _lines(ds, _csv_texts, ","):
        yield "\n".join([*rows, ""])


def json_chunks(ds: Dataset) -> Iterator[str]:
    """The text of ``json.dumps`` of the dataset with indent=1, in pieces."""
    head = {
        "schema_version": SCHEMA_VERSION,
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
