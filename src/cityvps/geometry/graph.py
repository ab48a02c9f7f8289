"""Reverse Cuthill-McKee order and connected components of an undirected graph.

A graph on nodes 0..n-1 is given by its edges (heads[k], tails[k]); an edge
joins its two nodes both ways, and a repeated edge counts once.
`reverse_cuthill_mckee` orders the nodes so that joined nodes lie close
(Cuthill & McKee, "Reducing the bandwidth of sparse symmetric matrices",
1969), and `components` labels the connected components. They give what
SciPy's csgraph ``reverse_cuthill_mckee`` (symmetric mode) and
``connected_components`` (undirected) give, in numpy and a few lines of
Python, so the solver, the track builder and fusion need no sparse matrix
library.
"""

from __future__ import annotations

import numpy as np


def reverse_cuthill_mckee(n: int, heads, tails) -> np.ndarray:
    """A reverse Cuthill-McKee order of the nodes: position -> node.

    A node's degree is its number of neighbours, with a self-loop counted
    twice. Each component is searched breadth first from its node that
    ``np.argsort`` of the degrees puts first; a node's unvisited neighbours
    join in ascending order, then stably sorted by degree. The order of
    visits is reversed at the end.
    """
    heads = np.asarray(heads, dtype=np.intp).ravel()
    tails = np.asarray(tails, dtype=np.intp).ravel()
    rows, cols = np.divmod(np.unique(np.concatenate([heads * n + tails, tails * n + heads])), n)
    counts = np.bincount(rows, minlength=n)
    degree = (counts + np.bincount(rows[rows == cols], minlength=n)).astype(np.int32)
    neighbours = [nb.tolist() for nb in np.split(cols, np.cumsum(counts)[:-1])]
    key = degree.tolist().__getitem__
    visited = [False] * n
    order = []
    for seed in np.argsort(degree).tolist():
        if visited[seed]:
            continue
        visited[seed] = True
        order.append(seed)
        level = len(order) - 1
        while level < len(order):
            end = len(order)
            for node in order[level:end]:
                new = [j for j in neighbours[node] if not visited[j]]
                for j in new:
                    visited[j] = True
                new.sort(key=key)
                order += new
            level = end
    return np.array(order[::-1], dtype=np.intp)


def components(n: int, heads, tails) -> np.ndarray:
    """Connected-component label per node, numbered in order of each component's lowest node.

    Each node takes the least label across its edges, then follows its
    label's label (pointer jumping) until labels repeat; rounds go on until
    every edge joins equal labels. A label never exceeds its node, so each
    component ends labelled by its lowest node.
    """
    heads = np.asarray(heads, dtype=np.intp).ravel()
    tails = np.asarray(tails, dtype=np.intp).ravel()
    label = np.arange(n)
    while True:
        np.minimum.at(label, heads, label[tails])
        np.minimum.at(label, tails, label[heads])
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        if np.array_equal(label[heads], label[tails]):
            break
    return np.unique(label, return_inverse=True)[1]
