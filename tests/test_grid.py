"""TimeGrid construction, validation, and indexing."""

import warnings

import numpy as np
import pytest

from cliffsde import TimeGrid


def test_uniform_nodes():
    g = TimeGrid.uniform(0.0, 1.0, 4)
    np.testing.assert_array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.n == 4
    assert g.t0 == 0.0
    assert g.T == 1.0
    np.testing.assert_array_equal(g.deltas, [0.25] * 4)


def test_single_increment_supported():
    g = TimeGrid.uniform(0.0, 2.0, 1)
    assert g.n == 1
    assert g.delta(0) == 2.0
    assert g.node(1) == 2.0


def test_nonuniform_from_nodes():
    g = TimeGrid([0.0, 0.1, 0.4, 1.0])
    assert g.n == 3
    assert g.node(2) == 0.4
    np.testing.assert_allclose(g.deltas, [0.1, 0.3, 0.6], rtol=0, atol=1e-16)


@pytest.mark.parametrize(
    "nodes",
    # an infinite node made every driver increment on the grid NaN
    [[0.0], [], [0.0, 0.5, 0.5, 1.0], [0.0, 0.6, 0.5], [0.0, np.inf],
     [0.0, 1.0, np.inf], [-np.inf, 0.0]],
)
def test_bad_node_lists_rejected(nodes):
    with pytest.raises(ValueError):
        TimeGrid(nodes)


def test_degenerate_interval_rejected():
    with pytest.raises(ValueError):
        TimeGrid.uniform(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        TimeGrid.uniform(1.0, 0.5, 4)
    with pytest.raises(ValueError):
        TimeGrid.uniform(0.0, 1.0, 0)


@pytest.mark.parametrize("t0, T", [(-1e308, 1e308), (-np.inf, 0.0),
                                   (0.0, np.inf)])
def test_uniform_rejects_an_overflowing_span_without_a_warning(t0, T):
    # linspace over a span that overflows to inf warned before the
    # constructor's node check rejected the grid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="grid nodes must be finite and strictly"):
            TimeGrid.uniform(t0, T, 4)


def test_index_bounds():
    g = TimeGrid.uniform(0.0, 1.0, 3)
    assert g.node(3) == 1.0
    with pytest.raises(IndexError):
        g.node(4)
    with pytest.raises(IndexError):
        g.node(-1)
    with pytest.raises(IndexError):
        g.delta(3)
    with pytest.raises(IndexError):
        g.delta(-1)


def test_equality_and_hash():
    a = TimeGrid.uniform(0.0, 1.0, 4)
    b = TimeGrid.uniform(0.0, 1.0, 4)
    c = TimeGrid.uniform(0.0, 1.0, 5)
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert a != "not a grid"


def test_nodes_are_read_only():
    g = TimeGrid.uniform(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        g.nodes[0] = -1.0
    with pytest.raises(ValueError):
        g.deltas[0] = 9.0


@pytest.mark.parametrize("k", [2, np.int64(2), 2.0])
def test_node_and_delta_take_integral_indices(k):
    g = TimeGrid.uniform(0.0, 1.0, 4)
    assert (g.node(k), g.delta(k)) == (0.5, 0.25)


# float() reads numeric text, so "1" indexed node 1; a bool indexed it too
@pytest.mark.parametrize("k", [1.5, 0.5, float("nan"), "1", b"1", " 2 ", True,
                               np.True_])
def test_node_and_delta_reject_a_non_integral_index(k):
    g = TimeGrid.uniform(0.0, 1.0, 4)
    with pytest.raises(ValueError, match=f"node index {k!r} is not an integer"):
        g.node(k)
    with pytest.raises(ValueError,
                       match=f"increment index {k!r} is not an integer"):
        g.delta(k)


# "3" built a 3-step grid
@pytest.mark.parametrize("n", [True, np.True_, 2.5, float("nan"), "3", b"3"])
def test_uniform_rejects_a_bool_or_non_integral_n(n):
    with pytest.raises(ValueError, match=r"\bn\b"):
        TimeGrid.uniform(0.0, 1.0, n)


def test_uniform_accepts_an_integral_float_n():
    assert TimeGrid.uniform(0.0, 1.0, 4.0) == TimeGrid.uniform(0.0, 1.0, 4)
