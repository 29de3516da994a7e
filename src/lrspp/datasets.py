"""Machine-readable result tables with lossless CSV/JSON round-tripping.

Numbers are written in full round-trip precision (`repr`); infeasible
cells are the literal token ``NA`` in CSV and ``null`` in JSON.  The CSV
flavor carries the schema version, the command echo and any warnings as
leading ``#`` comment lines so both formats hold the same information.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

Cell = float | int | str | None


def _format(cells) -> list[str]:
    """The text of each cell: NA for None, repr for a float, str otherwise."""
    return ["NA" if c is None else repr(c) if isinstance(c, float) else str(c) for c in cells]


#: Rows formatted together: cells are formatted a column at a time.
_BATCH_ROWS = 1024
#: Distinct cell objects a column memoises; a column that shows more is
#: formatted cell by cell from then on.
_MEMO_CAP = 4096


@dataclass
class Dataset:
    """A table of cells.  ``rows`` is a list, or an iterator of rows that a
    writer consumes once; the writers take it a batch of rows at a time."""

    command: str
    columns: list[str]
    rows: Iterable[list[Cell]]
    warnings: list[str] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if isinstance(self.rows, list):
            _check_widths(self.rows, len(self.columns), 0)


def _check_widths(rows: list, width: int, first: int) -> None:
    for i, row in enumerate(rows, first):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} cells, expected {width}")


def _batches(ds: Dataset) -> Iterator[list]:
    """The rows of ds in lists of up to _BATCH_ROWS, each row's width checked."""
    rows, done = iter(ds.rows), 0
    while batch := list(itertools.islice(rows, _BATCH_ROWS)):
        _check_widths(batch, len(ds.columns), done)
        done += len(batch)
        yield batch


def _memo_texts(column: tuple, memo: dict, held: list) -> Iterable[str] | None:
    """The texts of a batch's column through the column's memo (id -> text),
    or None once the memo would pass _MEMO_CAP distinct objects.  New cells
    are appended to held."""
    ids = list(map(id, column))
    fresh = set(ids).difference(memo)
    if len(memo) + len(fresh) > _MEMO_CAP:
        return None
    if len(fresh) == len(ids):  # all new and distinct: format them in order
        texts = _format(column)
        memo.update(zip(ids, texts))
        held.extend(column)
        return texts
    if fresh:
        cells = dict(zip(ids, column))
        new = [cells[k] for k in fresh]
        memo.update(zip(fresh, _format(new)))
        held.extend(new)
    return map(memo.__getitem__, ids)


def to_csv(ds: Dataset) -> str:
    """The dataset as CSV: ``NA`` for None, ``repr`` for a float, ``str`` otherwise.

    A column's cells are looked up by identity, never by value (0.0 == -0.0):
    each distinct object is formatted once per call, until the column has
    shown _MEMO_CAP distinct objects.  The memoised cells are held for the
    call, so that no id is reused by another object.
    """
    width = len(ds.columns)
    memos: list[dict | None] = [{} for _ in range(width)]
    held: list = []
    chunks = [f"# schema={ds.schema_version}", f"# command={ds.command}"]
    chunks.extend(f"# warning={w}" for w in ds.warnings)
    chunks.append(",".join(ds.columns))
    for batch in _batches(ds):
        texts = []
        for j, column in enumerate(zip(*batch)):
            text = None if memos[j] is None else _memo_texts(column, memos[j], held)
            if text is None:
                memos[j] = None
                text = _format(column)
            texts.append(text)
        # With no columns every row is an empty line.
        chunks.append("\n".join(map(",".join, zip(*texts))) if width else "\n" * (len(batch) - 1))
    return "\n".join(chunks) + "\n"


def to_json(ds: Dataset) -> str:
    payload = {
        "schema_version": ds.schema_version,
        "command": ds.command,
        "warnings": ds.warnings,
        "columns": ds.columns,
        "rows": [row for batch in _batches(ds) for row in batch],
    }
    return json.dumps(payload, indent=1) + "\n"


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
