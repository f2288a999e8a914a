"""Seeded input helper shared by run.py (CLI arguments) and worker.py (graphs)."""

import random


def relabel(edges, n: int, rng: random.Random) -> list[tuple[int, int]]:
    """The edges, with their vertices moved to random distinct vertices of [0..n)."""
    verts = sorted({v for e in edges for v in e})
    image = dict(zip(verts, rng.sample(range(n), len(verts))))
    return [(image[i], image[j]) for i, j in edges]
