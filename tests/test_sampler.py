from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh
from hypothesis import example, given
from hypothesis import strategies as st

from netspectra import (
    DegreeModel,
    DegreeSequence,
    SampledNetwork,
    attach_hub,
    densify_modularity,
    replicate_seed,
    sample_network,
    write_edge_list,
)
from netspectra import sampler
from netspectra.sampler import _invert_cumulative

GOLDEN_SEQ = DegreeSequence.from_values(
    [3.0, 5.0, 2.0, 8.0, 4.0, 6.0, 3.5, 2.5, 7.0, 4.5, 5.5, 9.0])


def test_determinism_same_seed():
    a = sample_network(GOLDEN_SEQ, seed=7)
    b = sample_network(GOLDEN_SEQ, seed=7)
    assert np.array_equal(a.edge_i, b.edge_i)
    assert np.array_equal(a.edge_j, b.edge_j)
    assert np.array_equal(a.edge_mult, b.edge_mult)
    c = sample_network(GOLDEN_SEQ, seed=8)
    assert not (np.array_equal(a.edge_i, c.edge_i)
                and np.array_equal(a.edge_mult, c.edge_mult))


def test_edge_list_golden_bytes(tmp_path, data_dir):
    net = sample_network(GOLDEN_SEQ, seed=99)
    out = tmp_path / "edges.txt"
    write_edge_list(net, out)
    assert out.read_bytes() == (data_dir / "edges_n12_seed99.txt").read_bytes()


def test_edges_stored_upper_triangle():
    net = sample_network(GOLDEN_SEQ, seed=3)
    assert np.all(net.edge_i <= net.edge_j)
    assert np.all(net.edge_mult >= 1)
    key = net.edge_i * net.n + net.edge_j
    assert np.unique(key).size == key.size  # each pair stored once


def test_mean_degree_concentration():
    # all degrees c: realized mean degree concentrates on c over seeds
    model = DegreeModel.poisson(100.0)
    means = []
    for seed in range(10):
        seq = model.sample_degrees(10_000, seed=seed)
        net = sample_network(seq, seed=1000 + seed)
        means.append(net.realized_degrees().mean())
    assert np.mean(means) == pytest.approx(100.0, abs=0.2)


def test_pair_mean_and_variance_match_model():
    # Monte Carlo over seeds: <A_ij> = k_i k_j / 2m and Var B_ij = same
    seq = DegreeSequence.from_values([2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    i, j = 0, 5
    mean_pair = seq.k[i] * seq.k[j] / seq.two_m
    reps = 20_000
    counts = np.zeros(reps)
    for r in range(reps):
        net = sample_network(seq, seed=r)
        hit = (net.edge_i == i) & (net.edge_j == j)
        counts[r] = net.edge_mult[hit].sum()
    se = counts.std(ddof=1) / np.sqrt(reps)
    assert abs(counts.mean() - mean_pair) < 3 * se
    # B_ij = A_ij - mean has zero mean and variance equal to the mean
    b = counts - mean_pair
    assert abs(b.mean()) < 3 * se
    var_se = np.std(b ** 2, ddof=1) / np.sqrt(reps)
    assert abs(np.mean(b ** 2) - mean_pair) < 3 * var_se


def test_self_loop_mean():
    # diagonal entries count self-loops with mean k_i^2 / 4m
    seq = DegreeSequence.from_values([8.0, 2.0, 3.0, 4.0, 3.0])
    i = 0
    target = seq.k[i] ** 2 / (2.0 * seq.two_m)
    reps = 20_000
    counts = np.zeros(reps)
    for r in range(reps):
        net = sample_network(seq, seed=10_000 + r)
        hit = (net.edge_i == i) & (net.edge_j == i)
        counts[r] = net.edge_mult[hit].sum()
    se = counts.std(ddof=1) / np.sqrt(reps)
    assert abs(counts.mean() - target) < 3 * se


def test_expected_degree_per_vertex():
    seq = DegreeSequence.from_values(np.linspace(2.0, 40.0, 50))
    reps = 200
    acc = np.zeros(seq.n)
    for r in range(reps):
        acc += sample_network(seq, seed=r).realized_degrees()
    acc /= reps
    err = 4.0 * np.sqrt(seq.k / reps)
    assert np.all(np.abs(acc - seq.k) < err)


def test_modularity_row_sums():
    seq = DegreeSequence.from_values(np.linspace(5.0, 50.0, 40))
    net = sample_network(seq, seed=5)
    a = net.adjacency_dense()
    b = densify_modularity(net.modularity_view())
    expected = a.sum(axis=1) - seq.k * seq.k.sum() / seq.two_m
    assert np.abs(b.sum(axis=1) - expected).max() < 1e-9


def test_modularity_view_matches_dense():
    seq = DegreeSequence.from_values(np.linspace(5.0, 50.0, 60))
    net = sample_network(seq, seed=77)
    view = net.modularity_view()
    b = densify_modularity(view)
    assert np.abs(b - b.T).max() == 0.0
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(net.n)
        got = view.matvec(x)
        ref = b @ x
        assert np.abs(got - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())


def test_matvec_symmetry():
    seq = DegreeSequence.from_values(np.linspace(5.0, 50.0, 80))
    view = sample_network(seq, seed=9).modularity_view()
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal(seq.n)
        y = rng.standard_normal(seq.n)
        assert abs(view.matvec(x) @ y - view.matvec(y) @ x) < 1e-10


def test_attach_hub_bookkeeping():
    seq = DegreeModel.poisson(100.0).sample_degrees(10_000, seed=0)
    seq2 = attach_hub(seq, 400.0)
    assert seq2.n == 10_001
    assert seq2.two_m == pytest.approx(1_000_400.0, abs=1e-9)
    assert seq2.k[-1] == 400.0
    with pytest.raises(ValueError):
        attach_hub(seq, -1.0)


def test_two_hubs_recovered_empirically():
    # each hub produces its own detached eigenvalue; only the top two are
    # read, so SciPy's Lanczos solver takes them from the matrix-free view
    model = DegreeModel.poisson(100.0)
    preds = (400.0 / np.sqrt(300.0), 300.0 / np.sqrt(200.0))
    rng = np.random.default_rng(5)
    tops = []
    for r in range(8):
        s = replicate_seed(777, r)
        seq = attach_hub(attach_hub(model.sample_degrees(2000, s), 400.0), 300.0)
        net = sample_network(seq, replicate_seed(s, 1))
        op = LinearOperator((net.n, net.n), matvec=net.modularity_view().matvec,
                            dtype=float)
        top2 = eigsh(op, k=2, which="LA", v0=rng.standard_normal(net.n),
                     return_eigenvectors=False)
        tops.append(np.sort(top2))
    mean_top2 = np.array(tops).mean(axis=0)
    assert mean_top2[1] == pytest.approx(preds[0], rel=0.03)
    assert mean_top2[0] == pytest.approx(preds[1], rel=0.03)


def test_mean_overflow_guard():
    with pytest.raises(ValueError, match="largest pairwise mean"):
        sample_network(DegreeSequence.from_values([1.0, 1.0, 100.0]), seed=0)
    # k_max^2 is not a float here, but the pairwise mean k_max / 2m * k_max is
    with pytest.raises(ValueError, match="largest pairwise mean") as err:
        sample_network(DegreeSequence.from_values([1.0, 1.0, 1e160]), seed=0)
    assert "1e+160" in str(err.value)
    assert "inf" not in str(err.value)


def test_dense_cap_enforced(monkeypatch):
    monkeypatch.setattr(sampler, "DENSE_CAP", 10)
    seq = DegreeSequence.from_values(np.full(20, 5.0))
    net = sample_network(seq, seed=0)
    with pytest.raises(ValueError, match="exceeds the dense cap"):
        net.adjacency_dense()
    with pytest.raises(ValueError, match="exceeds the dense cap"):
        densify_modularity(net.modularity_view())
    monkeypatch.setattr(sampler, "DENSE_CAP", 32)
    assert net.adjacency_dense().shape == (20, 20)


def test_min_size_guard():
    with pytest.raises(ValueError):
        sample_network(DegreeSequence.from_values([2.0]), seed=0)


def test_neighbors_of():
    net = sample_network(GOLDEN_SEQ, seed=99)
    nb = net.neighbors_of(11)
    assert 11 not in nb.tolist()
    a = net.adjacency_dense()
    expect = np.flatnonzero(a[11] > 0)
    assert np.array_equal(nb, expect[expect != 11])


# ---------------------------------------------------------------- properties
# The guide-table inversion and the sort-free matrix assembly must agree bit
# for bit with the constructions they replace: a binary search over the
# cumulative endpoint distribution, scipy's COO -> CSR conversion, and the
# dense adjacency minus the rank-one mean.

def _cumulative(weights: list[int]) -> np.ndarray:
    # zero weights repeat an entry of cum, as ties do
    cum = np.cumsum(np.asarray(weights, dtype=float)) / float(sum(weights))
    cum[-1] = 1.0
    return cum


@st.composite
def _cum_and_uniforms(draw):
    weights = draw(st.lists(st.integers(0, 5), min_size=2, max_size=40)
                   .filter(any))
    cum = _cumulative(weights)
    size = 4 * cum.size
    special = [0.0, np.nextafter(1.0, 0.0), *cum[:-1],
               *(np.arange(size) / size)]
    special += [np.nextafter(x, 0.0) for x in special if x > 0]
    special = [x for x in special if x < 1.0]  # trailing zero weights
    drawn = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=200))
    return cum, np.array(special + drawn)


@given(_cum_and_uniforms())
def test_guide_table_inversion_equals_searchsorted(case):
    cum, u = case
    got = _invert_cumulative(cum, u)
    assert np.array_equal(got, np.searchsorted(cum, u, side="right"))


@pytest.mark.parametrize("weights", [[1, 1], [0, 3], [5, 0, 0, 1],
                                     [1] * 7 + [0] * 5 + [2], [3, 2, 1]])
def test_guide_table_inversion_edge_cases(weights):
    # n = 2 and runs of equal entries, at every bucket start, at every entry
    # of cum and one ulp below each; with weights 3, 2, 1 the uniform one ulp
    # below cum[1] = 10/12 rounds up into bucket 10, past its answer
    cum = _cumulative(weights)
    size = 4 * cum.size
    u = np.concatenate([np.arange(size) / size, cum[:-1], [0.0]])
    u = np.concatenate([u, np.nextafter(u[u > 0], 0.0),
                        [np.nextafter(1.0, 0.0)]])
    assert np.array_equal(_invert_cumulative(cum, u),
                          np.searchsorted(cum, u, side="right"))


def _network(k: list[float], pairs: list[tuple[int, int]]) -> SampledNetwork:
    """An edge multiset on len(k) vertices, stored as sample_network does."""
    n = len(k)
    lo = np.array([min(p) for p in pairs], dtype=np.int64)
    hi = np.array([max(p) for p in pairs], dtype=np.int64)
    uniq, counts = np.unique(lo * n + hi, return_counts=True)
    return SampledNetwork(degrees=DegreeSequence.from_values(k),
                          edge_i=uniq // n, edge_j=uniq % n,
                          edge_mult=counts.astype(np.int64), seed=0)


@st.composite
def _networks(draw):
    k = draw(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=12))
    vertex = st.integers(0, len(k) - 1)
    return _network(k, draw(st.lists(st.tuples(vertex, vertex), max_size=60)))


def _assert_assembly_equals_reference(net: SampledNetwork) -> None:
    off = net.edge_i != net.edge_j
    rows = np.concatenate([net.edge_i, net.edge_j[off]])
    cols = np.concatenate([net.edge_j, net.edge_i[off]])
    vals = np.concatenate([net.edge_mult, net.edge_mult[off]]).astype(float)
    ref = sp.csr_matrix((vals, (rows, cols)), shape=(net.n, net.n))
    got = net.adjacency_sparse()
    assert got.has_canonical_format
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr))
    dense = ref.toarray()
    assert np.array_equal(net.adjacency_dense(), dense)
    k = net.degrees.k
    assert np.array_equal(densify_modularity(net.modularity_view()),
                          dense - np.outer(k, k) / net.two_m_expected)


@given(_networks())
@example(_network([1.0, 2.0, 3.0, 4.0, 5.0], []))           # edgeless
@example(_network([0.5, 7.0, 3.0], [(0, 0), (2, 2), (2, 2)]))  # self-loops only
def test_matrix_assembly_equals_reference(net):
    _assert_assembly_equals_reference(net)


def test_sampled_matrices_equal_reference():
    # one acceptance-size replicate with a hub, self-loops included
    model = DegreeModel.poisson(100.0)
    seed = replicate_seed(9400, 0)
    net = sample_network(attach_hub(model.sample_degrees(2000, seed), 400.0),
                         replicate_seed(seed, 1))
    assert np.any(net.edge_i == net.edge_j)
    _assert_assembly_equals_reference(net)
