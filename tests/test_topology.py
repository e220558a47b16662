"""Graph construction, Laplacian spectra, and mixing matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netprox.dpga import GammaMatrix
from netprox.dpga_w import CommunicationMatrix
from netprox.errors import ProtocolError
from netprox.simnet import AuditLog
from netprox.topology import (
    Graph,
    NetworkState,
    TopologySpec,
    build_topology,
    edge_list_text,
    mixing_pair,
    spectral_summary,
)
from theory import frob_norm_sq


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


def test_seed_only_for_small_world():
    # no edge of a star, circle or clique depends on a seed
    for kind in ("star", "circle", "clique"):
        for seed in (0, 3):
            with pytest.raises(ValueError, match=f"seed is only valid for small_world, got kind='{kind}'"):
                build_topology(kind, 6, seed=seed)
    assert build_topology("small_world", 6, seed=3).edges == build_topology("circle", 6).edges


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
    assert frob_norm_sq(build_topology("star", 5)) == pytest.approx(16 + 4 + 8)


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


def slot_sum(op, X, start=0):
    """Each agent's mix written out: a sum from start (0, as sum() takes it)
    of its own term, then its neighbours' in index order."""
    return np.array([
        sum((op.matrix[i, j] * X[j] for j in (i, *nbrs)), start)
        for i, nbrs in enumerate(op.graph.neighbor_lists)
    ])


def signed_zero_rows(rng, N, n):
    """Random rows with whole columns of +0.0 and -0.0, so some agent's own
    term and every neighbour term are -0.0 at once."""
    X = rng.standard_normal((N, n)) * 10.0 ** rng.integers(-3, 4, size=(N, 1))
    zeros = rng.random(n) < 0.5
    X[:, zeros] = np.where(rng.random((N, int(zeros.sum()))) < 0.5, -0.0, 0.0)
    return X


@pytest.mark.parametrize("kind, N", [("star", 5), ("circle", 50), ("small_world", 200)])
def test_mixing_is_byte_identical_to_the_slot_sum(kind, N):
    rng = np.random.default_rng(N)
    g = build_topology(kind, N, **({"extra_edges": N, "seed": 1} if kind == "small_world" else {}))
    pair = mixing_pair(g)
    ops = {
        "Gamma": GammaMatrix.build(g, rng.uniform(0.1, 3.0, N)),
        "W": CommunicationMatrix.from_laplacian(g),
        "pg_extra W": pair.W,
        "pg_extra W~": pair.W_tilde,
    }
    X = signed_zero_rows(rng, N, 40)
    payload = X.copy()
    for name, op in ops.items():
        expect = slot_sum(op, X)
        # the rows hold an agent whose terms are all -0.0: a sum from -0.0 keeps it
        assert slot_sum(op, X, start=-0.0).tobytes() != expect.tobytes(), name
        assert (op @ X).tobytes() == expect.tobytes(), name
        assert X.tobytes() == payload.tobytes(), name  # a slice slot reads X as a view
    # no slot holds a padded (zero-weight) term; rows and ids may be slices
    for op in ops.values():
        for rows, ids, weights in op._slots:
            assert (weights != 0.0).all()
            assert rows is None or np.arange(N)[rows].size < N
        if kind == "star":  # the hub's slots: one row, one neighbour each
            for rows, ids, _ in op._slots[1:]:
                assert isinstance(rows, slice) and isinstance(ids, slice)


def test_evolve_checks_and_freezes_the_changed_fields():
    x, c = np.zeros((3, 4)), np.ones(3)
    state = NetworkState({"x": x, "c": c})
    assert not (x.flags.writeable or c.flags.writeable)
    with pytest.raises(ValueError, match="field 'c' has 2 rows, expected one per node \\(3\\)"):
        state.evolve(c=np.ones(2))
    x_new, s_new = np.ones((3, 4)), np.full(3, 2.0)
    new = state.evolve(x=x_new, s=s_new)
    assert new.x is x_new and new.s is s_new and new.c is c
    assert not (x_new.flags.writeable or s_new.flags.writeable)
    assert new.ops is state.ops and len(new) == 3
    # the parent keeps its own fields, unchanged
    assert state.fields == {"x": x, "c": c} and state.x is x and not x.any()
    # the fields are plain attributes that cannot be set or deleted
    assert vars(state) == {"x": x, "c": c} and state.ops == {}
    for act in (lambda: setattr(state, "x", x_new), lambda: delattr(state, "x"),
                lambda: setattr(state, "ops", {}), lambda: setattr(state, "y", x_new)):
        with pytest.raises(AttributeError, match="immutable"):
            act()
    with pytest.raises(TypeError):
        state.fields["x"] = x_new
    assert state.x is x
    with pytest.raises(AttributeError, match="'y'"):
        state.y
    # one check path: rows at construction, and names that would shadow the class's own
    with pytest.raises(ValueError, match="field 'c' has 2 rows, expected one per node \\(3\\)"):
        NetworkState({"x": np.zeros((3, 4)), "c": np.ones(2)})
    for name in ("ops", "fields", "evolve", "vector_count", "__len__"):
        with pytest.raises(ValueError, match=f"field '{name}' would shadow"):
            NetworkState({"x": np.zeros((3, 4)), name: np.ones(3)})
        with pytest.raises(ValueError, match=f"field '{name}' would shadow"):
            state.evolve(**{name: np.ones(3)})


def test_vector_count_is_metered_where_fields_are_stored():
    # the count of (N, n) fields moves only when evolve adds one or changes
    # a field's rank, and equals a walk over the fields after every step
    def walked(st):
        return sum(a.ndim == 2 for a in st.fields.values())

    state = NetworkState({"x": np.zeros((3, 4)), "c": np.ones(3)})
    steps = [
        state,
        state.evolve(x=np.ones((3, 4))),  # same rank: no change
        state.evolve(s=np.zeros((3, 4))),  # a new n-vector
        state.evolve(s=np.zeros((3, 4))).evolve(s=np.ones(3)),  # n-vector to scalar
        state.evolve(c=np.ones((3, 4)), p=np.ones((3, 4))),  # scalar to n-vector, and a new one
    ]
    assert [st.vector_count for st in steps] == [1, 1, 2, 1, 3]
    assert all(st.vector_count == walked(st) for st in steps)
    audit = AuditLog(node_count=3, n=4)
    for st in steps:
        audit.record_storage(st)
    assert audit.peak_vectors[0] == 3


def test_mixing_matrices_strictly_positive_definite():
    for kind, N in (("circle", 8), ("clique", 6), ("star", 7)):
        mp = mixing_pair(build_topology(kind, N))
        ew = np.linalg.eigvalsh(mp.W_tilde.matrix)
        assert ew[0] > 0
        assert mp.lam_min_tilde == pytest.approx(ew[0])


def test_topology_spec_roundtrip():
    # one key=value line per field: the text names every build_topology argument
    spec = TopologySpec(kind="small_world", N=11, extra_edges=2, seed=5)
    assert spec.to_text() == "kind=small_world\nN=11\nextra_edges=2\nseed=5\n"


def test_topology_spec_roundtrip_without_seed():
    assert TopologySpec(kind="circle", N=4).to_text() == "kind=circle\nN=4\nextra_edges=0\nseed=none\n"


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
