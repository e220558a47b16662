"""Graph construction, Laplacian spectra, and mixing matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netprox.errors import ProtocolError
from netprox.topology import (
    Graph,
    TopologySpec,
    build_topology,
    edge_list_text,
    mixing_pair,
    spectral_summary,
)


def test_star_shape():
    g = build_topology("star", 5)
    assert g.edge_count == 4
    assert g.degrees == (4, 1, 1, 1, 1)
    assert g.neighbor_lists[0] == (1, 2, 3, 4)
    assert g.neighbor_lists[3] == (0,)


def test_circle_shape():
    g = build_topology("circle", 6)
    assert g.edge_count == 6
    assert all(d == 2 for d in g.degrees)


def test_clique_shape():
    g = build_topology("clique", 5)
    assert g.edge_count == 10
    assert all(d == 4 for d in g.degrees)


def test_small_world_keeps_the_cycle():
    g = build_topology("small_world", 10, extra_edges=3, seed=42)
    assert g.edge_count == 13
    assert set(build_topology("circle", 10).edges) <= set(g.edges)


def test_small_world_without_seed_rejected():
    with pytest.raises(ValueError):
        build_topology("small_world", 10, extra_edges=3)


def test_small_world_deterministic():
    a = build_topology("small_world", 12, extra_edges=4, seed=7)
    b = build_topology("small_world", 12, extra_edges=4, seed=7)
    assert a.edges == b.edges


def test_extra_edges_only_for_small_world():
    with pytest.raises(ValueError):
        build_topology("circle", 6, extra_edges=1)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        build_topology("torus", 6)


def test_too_many_extra_edges_rejected():
    with pytest.raises(ValueError):
        build_topology("small_world", 5, extra_edges=100, seed=0)


def test_graph_rejects_disconnected():
    with pytest.raises(ValueError):
        Graph(node_count=4, edges=((0, 1), (2, 3)))


def test_graph_rejects_bad_orientation():
    with pytest.raises(ValueError):
        Graph(node_count=3, edges=((1, 0), (1, 2)))


def test_graph_rejects_duplicate_edges():
    with pytest.raises(ValueError):
        Graph(node_count=3, edges=((0, 1), (0, 1), (1, 2)))


def test_circle4_spectrum_frozen():
    s = spectral_summary(build_topology("circle", 4))
    assert np.allclose(s.eigenvalues, [0.0, 2.0, 2.0, 4.0], atol=1e-9)


def test_star5_spectrum_frozen():
    s = spectral_summary(build_topology("star", 5))
    assert np.allclose(s.eigenvalues, [0.0, 1.0, 1.0, 1.0, 5.0], atol=1e-9)
    assert s.psi_min_pos == pytest.approx(1.0, abs=1e-9)


def test_clique5_spectrum_frozen():
    s = spectral_summary(build_topology("clique", 5))
    assert s.psi_min_pos == pytest.approx(5.0, abs=1e-9)
    assert s.psi_max == pytest.approx(5.0, abs=1e-9)


def test_circle_spectrum_matches_cosine_formula():
    for N in (3, 5, 8, 17):
        s = spectral_summary(build_topology("circle", N))
        expected = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(N) / N))
        assert np.allclose(s.eigenvalues, expected, atol=1e-9)


def test_laplacian_is_incidence_gram():
    for kind, N in (("star", 6), ("circle", 7), ("clique", 5)):
        g = build_topology(kind, N)
        m = g.incidence()
        assert np.max(np.abs(m.T @ m - g.laplacian())) < 1e-12


def test_connectivity_grows_with_edges():
    base = spectral_summary(build_topology("circle", 9)).psi_min_pos
    prev = base
    for extra in (1, 3, 6):
        psi = spectral_summary(
            build_topology("small_world", 9, extra_edges=extra, seed=3)
        ).psi_min_pos
        assert psi >= base - 1e-12
        prev = psi
    assert spectral_summary(build_topology("clique", 9)).psi_min_pos >= prev - 1e-12


def test_frobenius_norm_sq_star5():
    # diagonal 4,1,1,1,1 plus eight -1 off-diagonal entries
    s = spectral_summary(build_topology("star", 5))
    assert s.frob_norm_sq == pytest.approx(16 + 4 + 8)


def test_mixing_pair_star5():
    mp = mixing_pair(build_topology("star", 5))
    assert mp.lam_min_tilde == pytest.approx(0.5, abs=1e-12)
    W, W_tilde = mp.W.matrix, mp.W_tilde.matrix
    assert np.allclose(W_tilde, 0.5 * (np.eye(5) + W))
    assert np.allclose(W.sum(axis=1), 1.0)
    assert np.allclose(W, W.T)


@pytest.mark.parametrize("shape", [(5,), (5, 2, 3), (4, 3)])
def test_mixing_takes_one_row_per_node_only(shape):
    # a length-N vector would broadcast against the (N, 1) weights into (N, N)
    W = mixing_pair(build_topology("star", 5)).W
    with pytest.raises(ProtocolError, match="an \\(N, n\\) payload"):
        W @ np.ones(shape)


def test_mixing_matrices_strictly_positive_definite():
    for kind, N in (("circle", 8), ("clique", 6), ("star", 7)):
        mp = mixing_pair(build_topology(kind, N))
        ew = np.linalg.eigvalsh(mp.W_tilde.matrix)
        assert ew[0] > 0
        assert mp.lam_min_tilde == pytest.approx(ew[0])


def test_topology_spec_roundtrip():
    spec = TopologySpec(kind="small_world", N=11, extra_edges=2, seed=5)
    again = TopologySpec.from_text(spec.to_text())
    assert again == spec
    assert again.build().edges == spec.build().edges


def test_topology_spec_roundtrip_without_seed():
    spec = TopologySpec(kind="circle", N=4)
    assert TopologySpec.from_text(spec.to_text()) == spec


def test_topology_spec_rejects_malformed_text():
    with pytest.raises(ValueError):
        TopologySpec.from_text("kind=star\nN")
    with pytest.raises(ValueError):
        TopologySpec.from_text("kind=star\nN=4\n")  # missing keys


def test_edge_list_text_is_one_based():
    assert edge_list_text(build_topology("star", 3)) == "1 2\n1 3\n"


@given(
    N=st.integers(min_value=3, max_value=14),
    extra=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=50, deadline=None)
def test_laplacian_structure_property(N, extra, seed):
    free = N * (N - 1) // 2 - N
    g = build_topology("small_world", N, extra_edges=min(extra, free), seed=seed)
    s = spectral_summary(g)
    m = g.incidence()
    assert np.max(np.abs(m.T @ m - g.laplacian())) < 1e-12
    assert np.allclose(g.laplacian().sum(axis=1), 0.0, atol=1e-12)
    assert s.psi_min_pos > 0
    assert np.all(np.diff(s.eigenvalues) >= -1e-12)
