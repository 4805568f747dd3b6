import itertools
import math

import networkx as nx
import numpy as np
import pytest

from netmanifold import (
    ConnectivityError,
    ValidationError,
    cmds_embed,
    isomap_1d,
    localization_graph,
    raw_stress,
    shortest_path_matrix,
    smacof_minimize,
)
from netmanifold import blas, eigen
from netmanifold.graphs import CURVE_A_DIAG_SCALE, CURVE_A_OFFDIAG_SCALE


def _edge_set(graph):
    return {(i, j) for i, j, _ in graph.edges}


def _brute_force_distances(points, radius, l):
    """All-simple-paths shortest distances; exponential, fine for <= 7 nodes."""
    x = np.asarray(points, dtype=float)
    m = x.shape[0]
    dist = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
    adjacent = dist < radius
    out = np.full((l, l), np.inf)
    np.fill_diagonal(out, 0.0)
    nodes = list(range(m))
    for h in range(l):
        for k in range(l):
            if h == k:
                continue
            rest = [v for v in nodes if v not in (h, k)]
            for extra in range(len(rest) + 1):
                for middle in itertools.permutations(rest, extra):
                    path = (h, *middle, k)
                    if all(adjacent[a, b] for a, b in zip(path, path[1:])):
                        length = sum(dist[a, b] for a, b in zip(path, path[1:]))
                        out[h, k] = min(out[h, k], length)
    return out


def test_localization_graph_extremes():
    points = np.array([[0.0], [1.0], [2.0]])
    assert len(localization_graph(points, 10.0).edges) == 3  # complete
    assert len(localization_graph(points, 0.5).edges) == 0


def test_localization_graph_path():
    points = np.array([[0.0], [1.0], [2.0]])
    graph = localization_graph(points, 1.5)
    assert _edge_set(graph) == {(0, 1), (1, 2)}
    assert all(w == 1.0 for _, _, w in graph.edges)


def test_localization_graph_strict_inequality():
    # distance exactly equal to the radius is excluded
    points = np.array([[0.0], [1.0]])
    assert len(localization_graph(points, 1.0).edges) == 0
    assert len(localization_graph(points, 1.0 + 1e-9).edges) == 1


def test_localization_graph_keeps_coincident_points_joined():
    points = np.array([[0.5], [0.5], [3.0]])
    graph = localization_graph(points, 1.0)
    assert [0, 1, 0.0] in graph.edges.tolist()
    delta = shortest_path_matrix(graph, 2)
    assert delta[0, 1] == 0.0


def test_localization_graph_validation():
    with pytest.raises(ValidationError):
        localization_graph(np.zeros((3, 1)), 0.0)
    with pytest.raises(ValidationError):
        localization_graph(np.zeros(3), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "build", [localization_graph, lambda x, r: isomap_1d(x, r, 3)], ids=["graph", "isomap"]
)
def test_non_finite_points_are_rejected_up_front(recwarn, build, bad):
    """A nan or inf point raises ValidationError before any distance is
    formed, so numpy warns nothing, from localization_graph and isomap_1d."""
    points = np.array([[0.0], [bad], [0.1]])
    with pytest.raises(ValidationError, match="points must be finite"):
        build(points, 1.0)
    assert len(recwarn) == 0


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_localization_graph_rejects_non_finite_radius(radius):
    with pytest.raises(ValidationError, match="finite"):
        localization_graph(np.zeros((3, 1)), radius)


def test_shortest_path_unit_path_graph():
    points = np.array([[0.0], [1.0], [2.0]])
    graph = localization_graph(points, 1.5)
    delta = shortest_path_matrix(graph, 3)
    assert delta[0, 2] == 2.0
    assert np.array_equal(delta, delta.T)
    assert np.array_equal(np.diag(delta), np.zeros(3))


def test_shortest_path_disconnected_names_radius():
    graph = localization_graph(np.array([[0.0], [5.0]]), 1.0)
    with pytest.raises(ConnectivityError, match="radius \\(currently 1\\)"):
        shortest_path_matrix(graph, 2)


def test_shortest_path_routes_through_non_source_nodes():
    # sources 0 and 1 are far apart; the only route passes node 2
    points = np.array([[0.0], [2.0], [1.0]])
    graph = localization_graph(points, 1.5)
    delta = shortest_path_matrix(graph, 2)
    assert delta[0, 1] == 2.0


def test_shortest_path_arc_exceeds_chord():
    """Chord excluded by the radius: path length strictly beats it, and the
    Dijkstra result matches a brute-force enumeration."""
    angles = np.linspace(0.0, np.pi / 2.0, 4)
    points = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    chord = np.linalg.norm(points[0] - points[3])
    radius = 0.75  # adjacent gaps ~0.52, chord ~1.41
    graph = localization_graph(points, radius)
    delta = shortest_path_matrix(graph, 4)
    assert delta[0, 3] > chord
    brute = _brute_force_distances(points, radius, 4)
    assert np.abs(delta - brute).max() < 1e-12


def test_shortest_path_matches_brute_force_random_instances():
    rng = np.random.default_rng(17)
    for trial in range(20):
        points = rng.uniform(0.0, 1.0, size=(6, 2))
        radius = float(rng.uniform(0.4, 1.2))
        graph = localization_graph(points, radius)
        brute = _brute_force_distances(points, radius, 6)
        if not np.isfinite(brute).all():
            with pytest.raises(ConnectivityError):
                shortest_path_matrix(graph, 6)
            continue
        delta = shortest_path_matrix(graph, 6)
        assert np.abs(delta - brute).max() < 1e-12


def _networkx_oracle(points, radius):
    """Localization graph built pair by pair with exact squared distances."""
    graph = nx.Graph()
    graph.add_nodes_from(range(len(points)))
    for h, k in itertools.combinations(range(len(points)), 2):
        gap = sum((a - b) ** 2 for a, b in zip(points[h], points[k]))
        if gap < radius * radius:
            graph.add_edge(h, k, weight=math.dist(points[h], points[k]))
    return graph


@pytest.mark.parametrize("radius", [1.0, 0.5])
def test_localization_graph_matches_networkx(radius):
    """A 12 x 12 grid with spacing 0.5 plus six repeated points, shuffled.

    Squared distances are exact multiples of 0.25, so pairs exactly at the
    radius (excluded) and coincident points (kept at weight 0) are exact.
    At radius 0.5 only the coincident points are joined.
    """
    grid = [(0.5 * i, 0.5 * j) for i in range(12) for j in range(12)]
    rng = np.random.default_rng(23)
    points = grid + [grid[i] for i in rng.choice(len(grid), 6, replace=False)]
    points = [points[i] for i in rng.permutation(len(points))]
    l = 40
    graph = localization_graph(np.array(points), radius)
    oracle = _networkx_oracle(points, radius)
    assert len(graph.edges) == oracle.number_of_edges()
    for h, k, w in graph.edges:
        assert h < k and oracle[h][k]["weight"] == w
    sources = range(l)
    if not all(nx.has_path(oracle, h, k) for h in sources for k in sources):
        with pytest.raises(ConnectivityError):
            shortest_path_matrix(graph, l)
        return
    delta = shortest_path_matrix(graph, l)
    for h in sources:
        lengths = nx.single_source_dijkstra_path_length(oracle, h)
        expected = [lengths[k] for k in sources]
        assert np.abs(delta[h] - expected).max() < 1e-12


def test_raw_stress_hand_values():
    assert raw_stress(np.zeros(1), np.zeros((1, 1))) == 0.0
    delta = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert raw_stress(np.zeros(2), delta) == 8.0  # ordered pairs, both (h,k) and (k,h)


def test_raw_stress_gauge_freedom():
    rng = np.random.default_rng(2)
    z = rng.standard_normal(7)
    delta = np.abs(rng.standard_normal((7, 7)))
    delta = (delta + delta.T) / 2.0
    np.fill_diagonal(delta, 0.0)
    assert raw_stress(-z, delta) == raw_stress(z, delta)  # exact: negation is exact
    assert raw_stress(z + 3.7, delta) == pytest.approx(raw_stress(z, delta), rel=1e-12)


def test_cmds_two_points():
    delta = np.array([[0.0, 4.0], [4.0, 0.0]])
    z = cmds_embed(delta)
    assert sorted(z.tolist()) == pytest.approx([-2.0, 2.0], abs=1e-12)


def test_cmds_zero_matrix_warns():
    with pytest.warns(RuntimeWarning, match="no positive eigenvalue"):
        z = cmds_embed(np.zeros((3, 3)))
    assert np.array_equal(z, np.zeros(3))
    assert np.array_equal(cmds_embed(np.zeros((1, 1))), np.zeros(1))


def test_cmds_recovers_line_configuration():
    truth = np.array([0.0, 1.0, 3.0, 6.0])
    delta = np.abs(truth[:, None] - truth[None, :])
    z = cmds_embed(delta)
    est = np.abs(z[:, None] - z[None, :])
    assert np.abs(est - delta).max() < 1e-10


@pytest.mark.parametrize("l", [150, 300], ids=["dense-l150", "partial-l300"])
def test_cmds_centering_by_means_agrees_with_centering_products(l):
    """Agreement bound of centering by row and column means against the two l x l
    products J (delta o delta) J: the Gram to 1e-13 max|G|, the cMDS vector to
    1e-10 max|z| and the SMACOF embedding to 1e-8 relative to max|z|."""
    rng = np.random.default_rng(17)
    t = np.sort(rng.uniform(0.0, 3.0, l))
    points = np.column_stack([np.cos(t), np.sin(t), 0.05 * rng.standard_normal(l)])
    delta = shortest_path_matrix(localization_graph(points, 0.3), l)
    sq = delta * delta
    centering = np.eye(l) - np.ones((l, l)) / l
    gram = -0.5 * centering @ sq @ centering
    by_means = -0.5 * (sq - sq.mean(0) - sq.mean(1)[:, None] + sq.mean())
    assert np.abs(by_means - gram).max() <= 1e-13 * np.abs(gram).max()
    values, vectors, _ = eigen.top_eigenpairs(gram, 1, signed=True)
    z0 = np.sqrt(values[0]) * vectors[:, 0]
    z0 -= z0.mean()
    z = cmds_embed(delta)
    assert np.abs(z - z0).max() <= 1e-10 * np.abs(z0).max()
    fitted, _ = smacof_minimize(delta, z)
    expected, _ = smacof_minimize(delta, z0)
    assert np.abs(fitted - expected).max() <= 1e-8 * np.abs(expected).max()


def test_cmds_is_bit_stable_across_blas_threads(two_blas_threads):
    """The centering runs outside any BLAS pin, so it must not use BLAS products."""
    points = np.random.default_rng(5).standard_normal((1000, 3))
    delta = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))
    z = cmds_embed(delta)
    with blas.single_thread():
        assert np.array_equal(cmds_embed(delta), z)


def test_smacof_recovers_realizable_line():
    rng = np.random.default_rng(23)
    truth = np.sort(rng.uniform(0.0, 2.0, 5))
    delta = np.abs(truth[:, None] - truth[None, :])
    z0 = truth - truth.mean() + rng.normal(0.0, 0.01, 5)
    z, trace = smacof_minimize(delta, z0)
    est = np.abs(z[:, None] - z[None, :])
    assert np.abs(est - delta).max() < 1e-6
    assert trace.final < 1e-10
    assert trace.converged


def test_smacof_trace_non_increasing():
    rng = np.random.default_rng(31)
    for _ in range(25):
        l = int(rng.integers(2, 21))
        delta = np.abs(rng.standard_normal((l, l)))
        delta = (delta + delta.T) / 2.0
        np.fill_diagonal(delta, 0.0)
        z, trace = smacof_minimize(delta, cmds_embed(delta))
        values = np.array(trace.values)
        assert (np.diff(values) <= 0.0).all()
        assert values[-1] == pytest.approx(raw_stress(z, delta), rel=1e-12)


def test_smacof_zero_stress_start():
    truth = np.array([-1.0, 0.0, 1.0])
    delta = np.abs(truth[:, None] - truth[None, :])
    z, trace = smacof_minimize(delta, truth)
    assert trace.final == 0.0
    assert trace.iterations == 0
    assert trace.converged


def test_smacof_validation():
    delta = np.zeros((2, 2))
    with pytest.raises(ValidationError):
        smacof_minimize(delta, np.zeros(3))
    with pytest.raises(ValidationError):
        smacof_minimize(np.array([[0.0, np.inf], [np.inf, 0.0]]), np.zeros(2))


def test_isomap_single_source():
    z, _, _ = isomap_1d(np.array([[0.0], [1.0]]), 5.0, 1)
    assert np.array_equal(z, np.zeros(1))


def test_isomap_straight_segment_exact():
    """Points on a segment with the radius above the max gap: chords exact."""
    truth = np.linspace(0.0, 3.0, 7)
    points = np.stack([truth, 2.0 * truth], axis=1)  # a line in R^2
    gaps = np.linalg.norm(points[1] - points[0])
    z, trace, delta = isomap_1d(points, gaps * 1.1, 7)
    chord = np.sqrt(5.0) * np.abs(truth[:, None] - truth[None, :])
    assert np.abs(np.abs(z[:, None] - z[None, :]) - chord).max() < 1e-6
    assert np.abs(delta - chord).max() < 1e-9


def test_isomap_curve_a_geodesic_fidelity_small():
    """Desk-size version of the geodesic-fidelity acceptance check."""
    ts = np.concatenate([np.linspace(0.25, 1.0, 6), np.linspace(0.25, 1.0, 54)])
    direction = np.array(
        [
            1.0 / CURVE_A_DIAG_SCALE,
            1.0 / CURVE_A_OFFDIAG_SCALE,
            1.0 / CURVE_A_OFFDIAG_SCALE,
            1.0 / CURVE_A_DIAG_SCALE,
        ]
    )
    points = ts[:, None] * direction[None, :]
    z, trace, delta = isomap_1d(points, 0.1, 6)
    geodesic = np.abs(ts[:6, None] - ts[None, :6])
    off = ~np.eye(6, dtype=bool)
    assert (np.abs(delta - geodesic)[off] <= 0.05 * geodesic[off]).all()
    est = np.abs(z[:, None] - z[None, :])
    assert np.abs(est - geodesic).max() < 0.01


def test_isomap_validation():
    points = np.zeros((3, 2))
    with pytest.raises(ValidationError):
        isomap_1d(points, 1.0, 4)
    with pytest.raises(ValidationError):
        isomap_1d(np.zeros((0, 2)), 1.0, 1)
