"""Small shared helpers: seeded random graphs, the difference-table cells, file cache."""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .graph import LabeledGraph


def random_labeled_graph(rng: random.Random, n: int, p: float = 0.5) -> LabeledGraph:
    from .graph import LabeledGraph  # cache_fetch alone loads no graph layer
    from .perm import pair_slot

    bits = 0
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                bits |= 1 << pair_slot(i, j)
    return LabeledGraph(n, bits)


def in_half_range(n: int, d: int) -> bool:
    """d <= floor(C(n, 2) / 2): the difference table prints cell (d, n) only here."""
    return d <= n * (n - 1) // 2 // 2


def ulam_cell_keys(max_n: int, max_d: int) -> list[tuple[int, int]]:
    """The (d, n) cells of the difference table, 2 <= d and 4 <= n, in increasing order."""
    return [(d, n) for d in range(2, max_d + 1) for n in range(4, max_n + 1) if in_half_range(n, d)]


def ulam_table_csv(table: dict[tuple[int, int], int], max_n: int, max_d: int) -> str:
    """The difference table {(d, n): value} as CSV: one row per d, one column per
    n, blank where the table has no cell."""
    lines = ["d," + ",".join(str(n) for n in range(4, max_n + 1))]
    for d in range(2, max_d + 1):
        row = [str(d)]
        for n in range(4, max_n + 1):
            row.append(str(table[(d, n)]) if (d, n) in table else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


CACHE_FORMAT = b"graphinv-cache 2"  # the entry layout; bump it to retire every entry


def _entry_header(body: bytes) -> bytes:
    return CACHE_FORMAT + b" " + hashlib.sha256(body).hexdigest().encode()


def cache_fetch(cache_dir: str | None, key: str, build):
    """JSON file cache; the key carries every semantic parameter of the artifact.

    An entry is one file: a header line holding the format version and the
    sha256 of the value's JSON text, then that text.  An entry whose header
    does not match the bytes read (truncated, edited, or of another format)
    is rebuilt and rewritten.  Entries are written to a temporary file and
    renamed into place, so a reader never sees a partial write.
    """
    if not cache_dir:
        return build()
    path = Path(cache_dir) / (hashlib.sha256(key.encode()).hexdigest()[:24] + ".json")
    try:
        header, _, body = path.read_bytes().partition(b"\n")
        if header == _entry_header(body):
            return json.loads(body)
    except FileNotFoundError:
        pass
    obj = build()
    body = json.dumps(obj, sort_keys=True).encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(_entry_header(body) + b"\n" + body)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return obj


def cached_ulam_table(cache_dir: str | None, max_n: int, max_d: int) -> dict[tuple[int, int], int]:
    """The difference table {(d, n): value} through the file cache.

    The `ulam-cells:<max_n>:<max_d>` entry holds only the values, one integer
    per cell in `ulam_cell_keys` order, or it is refused (AssertionError).  A
    warm read loads no enumeration layer.
    """
    keys = ulam_cell_keys(max_n, max_d)

    def build():
        from .enumeration import ulam_difference_table

        table = ulam_difference_table(max_n, max_d)
        return [table[key] for key in keys]

    values = cache_fetch(cache_dir, f"ulam-cells:{max_n}:{max_d}", build)
    if not (type(values) is list and len(values) == len(keys) and all(type(v) is int for v in values)):
        raise AssertionError("ulam-cells entry is not one integer per cell of the table")
    return dict(zip(keys, values))
