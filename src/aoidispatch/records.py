"""Record files: the one csv/jsonl serializer of every verb's output.

A record maps field names to values. A csv file holds a header of the field
names, written only into an empty file, then one line per record: a float
cell is its ``repr``, any other its ``str``, a missing name an empty cell. A
jsonl line is one JSON object of the names a record holds, keys sorted.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .errors import ConfigError

FORMATS = ("csv", "jsonl")


def check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ConfigError(f"unknown output format {fmt!r}")


@contextmanager
def atomic_write(path: Path, mode: str = "w", **open_kwargs):
    """File object that writes ``path`` whole or not at all: a temporary
    file in the same directory, created if missing, replaces ``path`` in one
    rename when the block completes, and is removed if the block raises."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _format_cell(value: Any) -> str:
    return repr(value) if isinstance(value, float) else str(value)


class RecordWriter:
    """Writes records with fields ``names`` to a text file opened with
    ``newline=""``."""

    def __init__(self, fh, fmt: str, names: Sequence[str]):
        check_format(fmt)
        self._fh = fh
        self._names = names
        self._csv = csv.writer(fh) if fmt == "csv" else None
        if self._csv is not None and fh.tell() == 0:
            self._csv.writerow(names)

    def write(self, record: Mapping[str, Any]) -> None:
        if self._csv is not None:
            self._csv.writerow(_format_cell(record.get(name, "")) for name in self._names)
        else:
            data = {name: record[name] for name in self._names if name in record}
            self._fh.write(json.dumps(data, sort_keys=True) + "\n")


def write_records(path: Path, fmt: str, names: Sequence[str], records: Iterable[Mapping]) -> None:
    """Write ``records`` as the whole of ``path`` (see :func:`atomic_write`)."""
    with atomic_write(path, "w", newline="") as fh:
        writer = RecordWriter(fh, fmt, names)
        for record in records:
            writer.write(record)
