"""The camera order and component labels of `geometry.graph`, against SciPy's csgraph as reference."""

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import reverse_cuthill_mckee as scipy_reverse_cuthill_mckee

from cityvps.geometry.graph import components, reverse_cuthill_mckee


@st.composite
def graphs(draw):
    """(n, heads, tails): self-loops, repeated edges, isolated nodes and several components all occur."""
    n = draw(st.integers(1, 40))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    heads = np.array([h for h, _ in edges], dtype=np.intp)
    tails = np.array([t for _, t in edges], dtype=np.intp)
    return n, heads, tails


def symmetric(n, heads, tails):
    both_h, both_t = np.concatenate([heads, tails]), np.concatenate([tails, heads])
    return sp.csr_matrix((np.ones(both_h.size), (both_h, both_t)), shape=(n, n))


GRAPH_EXAMPLES = [
    # Two paths, an isolated node and self-loops on nodes of each component.
    (7, np.array([0, 1, 3, 4, 1, 4]), np.array([1, 2, 4, 5, 1, 4])),
    # A star whose leaves tie on degree, joined in descending order.
    (6, np.array([0, 0, 0, 0, 0]), np.array([5, 4, 3, 2, 1])),
    # No edges at all.
    (5, np.zeros(0, np.intp), np.zeros(0, np.intp)),
]


@given(graphs())
@example(GRAPH_EXAMPLES[0])
@example(GRAPH_EXAMPLES[1])
@example(GRAPH_EXAMPLES[2])
@settings(max_examples=300, deadline=None)
def test_reverse_cuthill_mckee_matches_scipy(graph):
    n, heads, tails = graph
    expected = scipy_reverse_cuthill_mckee(symmetric(n, heads, tails), symmetric_mode=True)
    assert reverse_cuthill_mckee(n, heads, tails).tolist() == expected.tolist()


def test_reverse_cuthill_mckee_matches_scipy_on_banded_graphs():
    # Covisibility-like graphs: each node joined to nodes a few places away,
    # with a self-loop on every node that has an edge.
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 80))
        heads = rng.integers(0, n, size=2 * n)
        tails = np.clip(heads + rng.integers(-4, 5, size=heads.size), 0, n - 1)
        heads, tails = np.concatenate([heads, heads]), np.concatenate([tails, heads])
        expected = scipy_reverse_cuthill_mckee(symmetric(n, heads, tails), symmetric_mode=True)
        assert reverse_cuthill_mckee(n, heads, tails).tolist() == expected.tolist()


@given(graphs())
@example(GRAPH_EXAMPLES[0])
@example(GRAPH_EXAMPLES[2])
@settings(max_examples=300, deadline=None)
def test_components_match_scipy(graph):
    n, heads, tails = graph
    graph_matrix = sp.coo_matrix((np.ones(heads.size), (heads, tails)), shape=(n, n))
    _, expected = connected_components(graph_matrix, directed=False)
    assert components(n, heads, tails).tolist() == expected.tolist()


def test_components_of_a_long_path_in_scrambled_order():
    # Labels must travel the whole path, whatever the order of its nodes.
    n = 500
    path = np.random.default_rng(1).permutation(n)
    labels = components(n + 1, path[:-1], path[1:])
    assert labels[:n].tolist() == [0] * n and labels[n] == 1
