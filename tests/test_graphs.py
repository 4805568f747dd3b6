import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_levels
from netmanifold import (
    GraphCollection,
    ValidationError,
    balanced_membership,
    build_block_probability,
    noiseless_collection,
    probability_matrix,
    sample_collection,
)
from netmanifold import graphs as graphs_module
from netmanifold.graphs import (
    CURVE_A_DIAG_SCALE,
    CURVE_A_OFFDIAG_SCALE,
    VARIANTS,
    GraphStore,
)


def test_curve_a_block_at_half():
    # a = sqrt(2)/sin(1), b = sqrt(2)/cos(1); values frozen from a pilot run
    block = build_block_probability(0.5, "curve-A")
    assert block[0, 0] == pytest.approx(0.29751, abs=1e-5)
    assert block[0, 1] == pytest.approx(0.19103, abs=1e-5)
    assert block[0, 0] == 0.5 / CURVE_A_DIAG_SCALE
    assert block[0, 1] == 0.5 / CURVE_A_OFFDIAG_SCALE
    assert np.array_equal(block, block.T)


def test_curve_a_is_arclength_parameterized():
    # the whole point of the a, b constants: |psi'(t)| = 1
    direction = np.array(
        [
            1.0 / CURVE_A_DIAG_SCALE,
            1.0 / CURVE_A_OFFDIAG_SCALE,
            1.0 / CURVE_A_OFFDIAG_SCALE,
            1.0 / CURVE_A_DIAG_SCALE,
        ]
    )
    assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-14)


def test_curve_b_block():
    block = build_block_probability(1.0, "curve-B")
    assert block[0, 0] == 0.5
    assert block[0, 1] == 0.2


def test_block_probability_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        build_block_probability(0.5, "curve-C")
    with pytest.raises(ValidationError):
        build_block_probability(-0.1, "curve-A")
    with pytest.raises(ValidationError):
        build_block_probability(2.5, "curve-B")
    # curve-A admits t up to a = sqrt(2)/sin(1) ~ 1.68
    build_block_probability(1.68, "curve-A")
    with pytest.raises(ValidationError):
        build_block_probability(1.69, "curve-A")


def test_balanced_membership_and_onehot():
    assignment = balanced_membership(6, 2)
    assert assignment.tolist() == [0, 0, 0, 1, 1, 1]


def test_balanced_membership_requires_divisibility():
    with pytest.raises(ValidationError):
        balanced_membership(7, 2)
    with pytest.raises(ValidationError):
        balanced_membership(0, 2)


def test_probability_matrix_block_expansion():
    block = np.array([[0.5, 0.2], [0.2, 0.5]])
    p = probability_matrix([0, 0, 1, 1], block)
    expected = np.array(
        [
            [0.5, 0.5, 0.2, 0.2],
            [0.5, 0.5, 0.2, 0.2],
            [0.2, 0.2, 0.5, 0.5],
            [0.2, 0.2, 0.5, 0.5],
        ]
    )
    assert np.array_equal(p, expected)


def test_probability_matrix_validation():
    with pytest.raises(ValidationError):
        probability_matrix([0, 1, 2], np.eye(2) * 0.5)
    with pytest.raises(ValidationError):
        probability_matrix([0, 1], np.array([[0.5, 0.1], [0.2, 0.5]]))
    with pytest.raises(ValidationError):
        probability_matrix([0, 1], np.array([[0.5, 1.2], [1.2, 0.5]]))


def test_sample_adjacency_extremes():
    assert np.array_equal(sample_levels(np.zeros((5, 5)), 1), np.zeros((5, 5)))
    complete = np.ones((5, 5)) - np.eye(5)
    assert np.array_equal(sample_levels(complete, 1), complete)


def test_sample_adjacency_density_concentration():
    """Edge density of P = 0.3 graphs concentrates (binomial, 4 sigma)."""
    n = 1000
    p = np.full((n, n), 0.3)
    a = sample_levels(p, 12345)
    m = n * (n - 1) / 2
    density = a[np.triu_indices(n, 1)].mean()
    assert abs(density - 0.3) < 4.0 * np.sqrt(0.3 * 0.7 / m)


def test_sample_adjacency_invariants_and_determinism():
    p = probability_matrix(balanced_membership(20, 2), np.array([[0.8, 0.3], [0.3, 0.8]]))
    a = sample_levels(p, 77)
    assert np.array_equal(a, a.T)
    assert np.array_equal(np.diag(a), np.zeros(20))
    assert set(np.unique(a)) <= {0.0, 1.0}
    assert np.array_equal(a, sample_levels(p, 77))
    assert not np.array_equal(a, sample_levels(p, 78))


def test_sample_adjacency_seed_validation():
    with pytest.raises(ValidationError):
        sample_levels(np.zeros((2, 2)), -1)
    with pytest.raises(ValidationError):
        sample_levels(np.zeros((2, 2)), 2**64)
    with pytest.raises(ValidationError):
        sample_levels(np.zeros((2, 2)), 1.5)


def test_graph_collection_validation():
    a = np.zeros((4, 4))
    with pytest.raises(ValidationError):
        GraphCollection(graphs=())
    with pytest.raises(ValidationError):
        GraphCollection(graphs=(a, np.zeros((5, 5))))
    with pytest.raises(ValidationError):
        GraphCollection(graphs=(a,), responses=(1.0, 2.0))
    with pytest.raises(ValidationError):
        GraphCollection(graphs=(a,), responses=(float("nan"),))
    coll = GraphCollection(graphs=(a, a), responses=(1.0,))
    assert coll.node_count == 4
    assert coll.n_graphs == 2
    assert coll.n_labeled == 1
    assert GraphCollection(graphs=(a,)).n_labeled == 0


@pytest.mark.parametrize(
    "responses", [(None,), ("1.0",), ["a"], ["1.5"], (True,), (np.bool_(True),), (1.0, 1j)]
)
def test_collections_reject_responses_that_are_not_real(responses):
    a = np.zeros((4, 4))
    builders = [
        lambda: GraphCollection(graphs=(a, a), responses=responses),
        lambda: sample_collection([0.5, 0.6], 4, "curve-A", 1, responses=responses),
        lambda: noiseless_collection([0.5, 0.6], 4, "curve-A", responses=responses),
    ]
    for build in builders:
        with pytest.raises(ValidationError, match="responses"):
            build()


def test_collection_responses_are_a_tuple_of_floats():
    coll = noiseless_collection([0.5, 0.6], 4, "curve-A", responses=np.array([1, 2]))
    assert coll.responses == (1.0, 2.0)
    assert all(type(y) is float for y in coll.responses)
    coll = GraphCollection(graphs=(np.zeros((4, 4)),), responses=iter([np.float32(0.5)]))
    assert coll.responses == (0.5,) and type(coll.responses[0]) is float


def _reference_sample_adjacency(p, seed):
    """The sampler before the packed store, kept as the oracle.

    The body is verbatim except that the seed goes to Philox unchecked.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    if p.shape != (n, n):
        raise ValidationError("probability matrix must be square")
    if p.min() < 0.0 or p.max() > 1.0:
        raise ValidationError("edge probabilities must lie in [0, 1]")
    rng = np.random.Generator(np.random.Philox(seed))
    iu = np.triu_indices(n, k=1)
    draws = (rng.random(iu[0].size) < p[iu]).astype(float)
    a = np.zeros((n, n))
    a[iu] = draws
    a += a.T
    return a


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    n=st.integers(min_value=1, max_value=41),
    variant=st.sampled_from(VARIANTS),
    ts=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=3),
)
def test_sampler_matches_reference(seed, n, variant, ts):
    """Both samplers give exactly the graphs of the triu-gather sampler.

    The sampler with per-entry levels (sample_levels) runs on odd and even n, on
    block-label P with a nonzero diagonal and on an arbitrary asymmetric P;
    sample_collection on 2n nodes.
    """
    labels = np.arange(n) % 2
    arbitrary = np.random.default_rng(seed % 2**32).random((n, n))
    for t in ts:
        p = probability_matrix(labels, build_block_probability(t, variant))
        assert np.array_equal(
            sample_levels(p, seed), _reference_sample_adjacency(p, seed)
        )
    assert np.array_equal(
        sample_levels(arbitrary, seed), _reference_sample_adjacency(arbitrary, seed)
    )
    coll = sample_collection(ts, 2 * n, variant, seed)
    assignment = balanced_membership(2 * n, 2)
    for k, t in enumerate(ts):
        p = probability_matrix(assignment, build_block_probability(t, variant))
        graph = coll.graphs[k]
        assert graph.dtype == np.float64
        assert np.array_equal(graph, _reference_sample_adjacency(p, seed ^ k))


def test_sampler_matches_reference_at_full_chunks():
    """sample_collection at n=650, where a chunk holds 100 rows and the
    community boundary, row 325, falls inside the chunk of rows 300-399: every
    graph is exactly the triu-gather sampler's."""
    n, seed, ts = 650, 2**63 + 17, (0.3, 1.2, 1.6)
    assert graphs_module._CHUNK_DRAWS // n == 100
    coll = sample_collection(ts, n, "curve-A", seed)
    assignment = balanced_membership(n, 2)
    for k, t in enumerate(ts):
        p = probability_matrix(assignment, build_block_probability(t, "curve-A"))
        assert np.array_equal(coll.graphs[k], _reference_sample_adjacency(p, seed ^ k))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    n=st.integers(min_value=1, max_value=40),
    picks=st.integers(min_value=0, max_value=2**32 - 1),
    grid=st.integers(min_value=0, max_value=2**53),
    chunk=st.sampled_from([1, 7, 64, 1 << 16]),
)
def test_integer_thresholds_match_float_draws(seed, n, picks, grid, chunk):
    """The sampler tests Philox's raw words r against ceil(L 2^53) 2^11; it must
    decide exactly as the float test u < L on the same stream, u the double
    that stream gives. Every level is drawn from the stream's own u: u itself,
    its neighbouring doubles, u -/+ 2^-53, 0, 1 and a grid value k 2^-53, with
    row chunks of 1 to 2^16 draws."""
    iu = np.triu_indices(n, 1)
    u = np.random.Generator(np.random.Philox(seed)).random(iu[0].size)
    levels = np.stack([
        u,
        np.nextafter(u, 1.0),
        np.nextafter(u, 0.0),
        np.maximum(u - 2.0**-53, 0.0),
        np.minimum(u + 2.0**-53, 1.0),
        np.zeros_like(u),
        np.ones_like(u),
        np.full_like(u, grid * 2.0**-53),
    ])
    pick = np.random.default_rng(picks).integers(0, len(levels), u.size)
    p = np.zeros((n, n))
    p[iu] = levels[pick, np.arange(u.size)]
    with mock.patch.object(graphs_module, "_CHUNK_DRAWS", chunk):
        got = sample_levels(p, seed)
    assert np.array_equal(got, _reference_sample_adjacency(p, seed))


def _two_edges(n=4):
    a = np.zeros((n, n))
    a[0, 1] = a[1, 0] = a[2, 3] = a[3, 2] = 1.0
    return a


@pytest.mark.parametrize(
    "graph, noiseless, message",
    [
        (np.triu(_two_edges()), False, "graph 1 is not symmetric"),
        (3.5 * _two_edges(), False, "graph 1 has an entry other than 0 and 1"),
        (np.full((4, 4), np.nan), False, "graph 1 has an entry other than 0 and 1"),
        (_two_edges() + np.eye(4), False, "graph 1 has a self-loop"),
        (np.full((4, 4), np.nan), True, r"graph 1 has an entry outside \[0, 1\]"),
        (np.full((4, 4), 1.5), True, r"graph 1 has an entry outside \[0, 1\]"),
        (0.5 * np.triu(_two_edges()), True, "graph 1 is not symmetric"),
        (np.zeros((4, 3)), False, "square"),
    ],
    ids=[
        "upper-triangular", "scaled", "binary-nan", "self-loop",
        "noiseless-nan", "noiseless-above-one", "noiseless-asymmetric", "not-square",
    ],
)
def test_graph_collection_rejects_malformed_graphs(graph, noiseless, message):
    """Graph 1 breaks one rule; the store refuses it at construction."""
    with pytest.raises(ValidationError, match=message):
        GraphStore.from_arrays((_two_edges(), graph), binary=not noiseless)
    if not noiseless:  # raw matrices handed to a collection are binary
        with pytest.raises(ValidationError, match=message):
            GraphCollection(graphs=(_two_edges(), graph))


@pytest.mark.parametrize(
    "build",
    [
        lambda: GraphStore.from_arrays([], binary=True),
        lambda: GraphStore.from_arrays([], binary=False),
        lambda: GraphCollection(graphs=[]),
        lambda: sample_collection([], 10, "curve-A", 1),
        lambda: noiseless_collection([], 10, "curve-A"),
    ],
    ids=["binary-store", "real-store", "collection", "sampled", "noiseless"],
)
def test_empty_store_is_rejected(build):
    """No graphs at all is a ValidationError on every route to a store."""
    with pytest.raises(ValidationError, match="at least one graph"):
        build()


def test_binary_graphs_are_stored_packed():
    a = _two_edges(10)
    coll = GraphCollection(graphs=(a, np.zeros((10, 10))))
    assert isinstance(coll.graphs, GraphStore) and coll.graphs.binary
    assert [g.tobytes() for g in coll.graphs] == [a.tobytes(), np.zeros((10, 10)).tobytes()]
    assert coll.graphs.edge_counts == (2, 0)
    assert coll.graphs[-1].shape == (10, 10)
    # map() unpacks every graph of a small collection to float64
    seen = coll.graphs.map(lambda g, k: (g.dtype, g.tobytes(), k))
    assert seen == [(np.float64, g.tobytes(), k) for k, g in enumerate(coll.graphs)]
    # above SPREAD_MIN_N to float32, which holds 0/1 exactly; at SPREAD_MIN_N
    # still float64; indexing returns float64 either way
    for n, dtype in [
        (graphs_module.SPREAD_MIN_N + 2, np.float32),
        (graphs_module.SPREAD_MIN_N, np.float64),
    ]:
        large = GraphCollection(graphs=(_two_edges(n), np.ones((n, n)) - np.eye(n)))
        seen = large.graphs.map(lambda g, k: (g.dtype, np.array_equal(g, large.graphs[k])))
        assert seen == [(dtype, True)] * 2
        assert all(g.dtype == np.float64 for g in large.graphs)
        assert large.graphs.edge_counts == (2, n * (n - 1) // 2)
    noiseless = noiseless_collection([0.5], 6, "curve-A")
    assert all(g is h for g, h in zip(noiseless.graphs.map(lambda g, _: g), noiseless.graphs))
    with pytest.raises(ValidationError, match="binary"):
        noiseless.graphs.edge_counts


def test_sample_collection_per_graph_seeding():
    """Graph k is exactly the base_seed ^ k sample; graphs are re-derivable."""
    ts = [0.4, 0.9, 0.6]
    coll = sample_collection(ts, 10, "curve-B", 100, responses=[1.0, 2.0])
    assignment = balanced_membership(10, 2)
    for k, t in enumerate(ts):
        p = probability_matrix(assignment, build_block_probability(t, "curve-B"))
        assert np.array_equal(coll.graphs[k], sample_levels(p, 100 ^ k))
    assert coll.responses == (1.0, 2.0)
    assert not coll.noiseless


# SHA-256 of graph 0's packed rows, sample_collection([1.2], n, "curve-A",
# 20240817), recorded before the sampler's stream-order compare and tiled mirror.
_PACKED_ROWS_SHA256 = {
    2: "96a296d224f285c67bee93c30f8a309157f0daa35dc5b87e410b78630a09cfc7",
    4: "2e772bfe55b2ae4f26758df3913d8f02dcf22072a89fe89ff4f94bbe25e2eac0",
    200: "0ce7a65ce89ca5379cdff4a971661dbc3d831459c66daeed0e3032ae0d00bb6c",
    650: "40d4c42046d600162d043c72624a35edbedc3f08e53f4e62e1b620b69411cfd3",
    2150: "2ad952541eef4d1de36f877c10bd2111932b99ceebb326ed57496f11e2ac0d28",
}


@pytest.mark.parametrize("n", sorted(_PACKED_ROWS_SHA256))
def test_sampled_graphs_keep_their_bits(n):
    """Every graph keeps its bits up to the paper's K=12 size, where chunks
    and mirror tiles end inside a label block and at ragged edges."""
    rows = sample_collection([1.2], n, "curve-A", 20240817).graphs._items[0]
    assert hashlib.sha256(rows).hexdigest() == _PACKED_ROWS_SHA256[n]


def test_sample_collection_odd_n_rejected():
    with pytest.raises(ValidationError):
        sample_collection([0.5], 9, "curve-A", 1)


def test_noiseless_collection_keeps_diagonal():
    coll = noiseless_collection([0.5, 0.8], 6, "curve-A")
    assert coll.noiseless
    block = build_block_probability(0.5, "curve-A")
    assert coll.graphs[0][0, 0] == block[0, 0]  # not hollowed
    assert np.array_equal(
        coll.graphs[0], probability_matrix(balanced_membership(6, 2), block)
    )
