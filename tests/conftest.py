import tracemalloc

import numpy as np
import pytest

from categraph import CategoryPartition, Graph

WHITE, GRAY, BLACK = 0, 1, 2


@pytest.fixture(scope="session")
def three_color_graph():
    """8-node graph with |white|=3, |gray|=2, |black|=3 and cuts
    white-black=3, gray-black=1, gray-white=4, so the exact pair
    weights are 3/9, 1/6 and 4/6."""
    edges = [
        (0, 5), (1, 6), (2, 7),          # white-black
        (3, 5),                          # gray-black
        (0, 3), (1, 3), (0, 4), (2, 4),  # gray-white
    ]
    g = Graph.from_edges(8, edges)
    part = CategoryPartition(
        labels=np.array([WHITE, WHITE, WHITE, GRAY, GRAY, BLACK, BLACK, BLACK]),
        names=("white", "gray", "black"))
    return g, part


@pytest.fixture(scope="session")
def path3():
    """Path 0-1-2 with the middle node in its own category."""
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    part = CategoryPartition(labels=np.array([0, 1, 0]), names=("end", "mid"))
    return g, part


@pytest.fixture(scope="session")
def eight_node_graph():
    """Connected irregular 8-node graph used for stationary-law checks."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4),
             (4, 5), (4, 6), (5, 6), (6, 7), (2, 7), (1, 5)]
    g = Graph.from_edges(8, edges)
    assert g.is_connected
    return g


@pytest.fixture(scope="session")
def circulant():
    """Builds the n-node graph joining each node to the next d < n / 2
    around a cycle, n * d edges and connected, from numpy arrays."""
    def build(n, d):
        u = np.tile(np.arange(n), d)
        return Graph.from_edges(n, np.column_stack(
            [u, (u + np.repeat(np.arange(1, d + 1), n)) % n]))
    return build


@pytest.fixture(scope="session")
def traced_peak():
    """Calls ``fn()`` and returns the peak of the memory tracemalloc traced
    meanwhile, in bytes."""
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
