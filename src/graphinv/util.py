"""Small shared helpers: seeded random graphs, file cache."""

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


def cache_fetch(cache_dir: str | None, key: str, build):
    """JSON file cache; the key carries every semantic parameter of the artifact.

    Entries are written to a temporary file and renamed into place, so a reader
    never sees a partial write; an entry that does not parse is rebuilt.
    """
    if not cache_dir:
        return build()
    path = Path(cache_dir) / (hashlib.sha256(key.encode()).hexdigest()[:24] + ".json")
    try:
        return json.loads(path.read_text())
    except (FileNotFoundError, UnicodeDecodeError, json.JSONDecodeError):
        pass
    obj = build()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(obj, sort_keys=True))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return obj
