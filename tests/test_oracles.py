import numpy as np

from oracles import LINEAR_NODE_MAX, root_bound, scanned_roots, scanned_roots_many


def test_scanned_roots_many_matches_scalar_oracle():
    rng = np.random.default_rng(12)
    deltas = rng.uniform(-5.0, 5.0, 520)
    xis = np.concatenate(
        [np.zeros(20), rng.uniform(0.0, 2.0, 250), 10.0 ** rng.uniform(-8.0, 1.0, 250)]
    )
    bounds = np.array([root_bound(d, x) for d, x in zip(deltas, xis)])
    assert np.any(bounds > LINEAR_NODE_MAX) and np.any(bounds <= LINEAR_NODE_MAX)
    many = scanned_roots_many(deltas, xis)
    assert len(many) == deltas.size
    for delta, xi, roots in zip(deltas, xis, many):
        oracle = scanned_roots(delta, xi)
        assert roots.size == oracle.size, (delta, xi)
        # broadcast linspace/geomspace may round a node differently in its last digits
        np.testing.assert_allclose(roots, oracle, rtol=1e-14, atol=0.0)
