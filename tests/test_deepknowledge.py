"""Unit tests for DeepKnowledge: the NumPy network and the analyzer."""

import numpy as np
import pytest

from repro.deepknowledge.knowledge import (
    DeepKnowledgeAnalyzer,
    hellinger_distance,
)
from repro.deepknowledge.network import FeedForwardNetwork, TrainConfig


def make_blobs(n, separation=3.0, seed=0):
    """Two-class Gaussian blobs in 2-D."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    centers = np.array([[0.0, 0.0], [separation, separation]])
    x = centers[labels] + rng.normal(0.0, 0.7, size=(n, 2))
    return x, labels


class TestNetwork:
    def test_rejects_too_few_layers(self):
        with pytest.raises(ValueError):
            FeedForwardNetwork([4])

    def test_predict_proba_normalised(self):
        net = FeedForwardNetwork([2, 8, 2])
        x, _ = make_blobs(20)
        probs = net.predict_proba(x)
        assert probs.shape == (20, 2)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0.0).all()

    def test_training_reduces_loss(self):
        net = FeedForwardNetwork([2, 16, 2])
        x, y = make_blobs(300)
        losses = net.train(x, y, TrainConfig(epochs=15))
        assert losses[-1] < losses[0]

    def test_learns_separable_blobs(self):
        net = FeedForwardNetwork([2, 16, 2])
        x, y = make_blobs(400)
        net.train(x, y, TrainConfig(epochs=25))
        assert net.accuracy(x, y) > 0.95

    def test_rejects_out_of_range_labels(self):
        net = FeedForwardNetwork([2, 8, 2])
        x, _ = make_blobs(10)
        with pytest.raises(ValueError):
            net.train(x, np.full(10, 5))

    def test_activation_trace_shape(self):
        net = FeedForwardNetwork([2, 8, 4, 2])
        x, _ = make_blobs(15)
        trace = net.activation_trace(x)
        assert trace.shape == (15, 12)  # 8 + 4 hidden units

    def test_activation_trace_nonnegative_relu(self):
        net = FeedForwardNetwork([2, 8, 2])
        x, _ = make_blobs(15)
        assert (net.activation_trace(x) >= 0.0).all()

    def test_deterministic_given_seed(self):
        x, y = make_blobs(100)
        nets = []
        for _ in range(2):
            net = FeedForwardNetwork([2, 8, 2], rng=np.random.default_rng(5))
            net.train(x, y, TrainConfig(epochs=3))
            nets.append(net.predict_proba(x))
        assert np.allclose(nets[0], nets[1])


def _reference_train(net, x, y, config):
    """The per-layer SGD loop ``train`` replaced, kept as its oracle.

    Updates each layer's arrays in place right after that layer's
    backprop step, gathering every mini-batch with its own fancy index.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=int).ravel()
    one_hot = np.eye(net.layer_sizes[-1])[y]
    losses = []
    n = x.shape[0]
    for _ in range(config.epochs):
        order = net.rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb, yb = x[idx], one_hot[idx]
            hs = [xb]
            h = xb
            for k in range(net.n_hidden_layers):
                h = np.maximum(0.0, h @ net.weights[k] + net.biases[k])
                hs.append(h)
            logits = h @ net.weights[-1] + net.biases[-1]
            z = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(z)
            probs = e / e.sum(axis=1, keepdims=True)
            epoch_loss += -np.sum(yb * np.log(probs + 1e-12))
            grad = (probs - yb) / len(idx)
            for k in range(len(net.weights) - 1, -1, -1):
                gw = hs[k].T @ grad + config.l2 * net.weights[k]
                gb = grad.sum(axis=0)
                if k > 0:
                    grad = (grad @ net.weights[k].T) * (hs[k] > 0.0)
                net.weights[k] -= config.learning_rate * gw
                net.biases[k] -= config.learning_rate * gb
        losses.append(epoch_loss / n)
    return losses


def _classes_data(n, n_features, n_classes, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    centers = rng.normal(0.0, 2.0, size=(n_classes, n_features))
    return centers[labels] + rng.normal(0.0, 1.0, size=(n, n_features)), labels


def _assert_same_parameters(net, ref):
    assert [w.tobytes() for w in net.weights] == [w.tobytes() for w in ref.weights]
    assert [b.tobytes() for b in net.biases] == [b.tobytes() for b in ref.biases]
    assert net.rng.bit_generator.state == ref.rng.bit_generator.state


class TestTrainMatchesPerLayerLoop:
    """``train``'s flat-buffer update gives the per-layer loop's bits."""

    @pytest.mark.parametrize("layer_sizes", [
        [3, 5, 2],  # 1 hidden layer
        [6, 24, 12, 2],  # 2 hidden layers, the Sec. V-B classifier
        [4, 9, 7, 5, 3],  # 3 hidden layers, 3 classes
    ])
    @pytest.mark.parametrize("n, batch_size", [(96, 32), (103, 32), (50, 64)])
    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    def test_losses_and_parameters_byte_identical(self, layer_sizes, n, batch_size, l2):
        x, y = _classes_data(n, layer_sizes[0], layer_sizes[-1], seed=n)
        config = TrainConfig(epochs=4, batch_size=batch_size, learning_rate=0.1, l2=l2)
        net = FeedForwardNetwork(layer_sizes, rng=np.random.default_rng(9))
        ref = FeedForwardNetwork(layer_sizes, rng=np.random.default_rng(9))
        assert net.train(x, y, config) == _reference_train(ref, x, y, config)
        _assert_same_parameters(net, ref)

    def test_caller_supplied_arrays_updated_in_place(self):
        rng = np.random.default_rng(4)
        sizes = [5, 8, 6, 3]
        shapes = list(zip(sizes[:-1], sizes[1:]))
        weights = [rng.normal(size=shape) for shape in shapes]
        biases = [rng.normal(size=shape[1]) for shape in shapes]
        net = FeedForwardNetwork(
            sizes, rng=np.random.default_rng(2), weights=weights, biases=biases
        )
        ref = FeedForwardNetwork(
            sizes, rng=np.random.default_rng(2),
            weights=[w.copy() for w in weights], biases=[b.copy() for b in biases],
        )
        x, y = _classes_data(70, 5, 3, seed=8)
        config = TrainConfig(epochs=3, batch_size=16)
        assert net.train(x, y, config) == _reference_train(ref, x, y, config)
        _assert_same_parameters(net, ref)
        assert all(a is b for a, b in zip(net.weights, weights))
        assert all(a is b for a, b in zip(net.biases, biases))


class TestHellinger:
    def test_identical_is_zero(self):
        p = np.array([0.25, 0.75])
        assert hellinger_distance(p, p) == pytest.approx(0.0)

    def test_disjoint_is_one(self):
        assert hellinger_distance(
            np.array([1.0, 0.0]), np.array([0.0, 1.0])
        ) == pytest.approx(1.0)

    def test_symmetric(self):
        p = np.array([0.2, 0.8])
        q = np.array([0.6, 0.4])
        assert hellinger_distance(p, q) == pytest.approx(hellinger_distance(q, p))

    def test_rejects_mismatched_support(self):
        with pytest.raises(ValueError):
            hellinger_distance(np.array([1.0]), np.array([0.5, 0.5]))

    def test_normalises_unnormalised_histograms(self):
        raw = np.array([10, 30])
        norm = np.array([0.25, 0.75])
        assert hellinger_distance(raw, norm) == pytest.approx(0.0, abs=1e-12)


@pytest.fixture(scope="module")
def trained_setup():
    x_train, y_train = make_blobs(500, seed=1)
    x_shift, _ = make_blobs(300, separation=4.5, seed=2)
    net = FeedForwardNetwork([2, 16, 8, 2], rng=np.random.default_rng(3))
    net.train(x_train, y_train, TrainConfig(epochs=20))
    return net, x_train, x_shift


class TestAnalyzer:
    def test_requires_fit(self, trained_setup):
        net, x_train, _ = trained_setup
        analyzer = DeepKnowledgeAnalyzer(network=net)
        with pytest.raises(RuntimeError):
            analyzer.coverage(x_train)
        with pytest.raises(RuntimeError):
            analyzer.uncertainty(x_train)

    def test_selects_requested_fraction(self, trained_setup):
        net, x_train, x_shift = trained_setup
        analyzer = DeepKnowledgeAnalyzer(network=net, tk_fraction=0.25)
        tk = analyzer.fit(x_train, x_shift)
        assert len(tk) == round(0.25 * 24)

    def test_rejects_bad_fraction(self, trained_setup):
        net, x_train, x_shift = trained_setup
        analyzer = DeepKnowledgeAnalyzer(network=net, tk_fraction=0.0)
        with pytest.raises(ValueError):
            analyzer.fit(x_train, x_shift)

    def test_tk_neurons_are_most_stable(self, trained_setup):
        net, x_train, x_shift = trained_setup
        analyzer = DeepKnowledgeAnalyzer(network=net, tk_fraction=0.25)
        tk = analyzer.fit(x_train, x_shift)
        assert all(0.0 <= n.stability <= 1.0 + 1e-9 for n in tk)

    def test_coverage_of_training_data_is_high(self, trained_setup):
        net, x_train, x_shift = trained_setup
        analyzer = DeepKnowledgeAnalyzer(network=net)
        analyzer.fit(x_train, x_shift)
        report = analyzer.coverage(x_train)
        assert report.score > 0.3
        assert report.covered_bins <= report.total_bins

    def test_coverage_of_single_point_is_low(self, trained_setup):
        net, x_train, x_shift = trained_setup
        analyzer = DeepKnowledgeAnalyzer(network=net)
        analyzer.fit(x_train, x_shift)
        single = analyzer.coverage(x_train[:1])
        full = analyzer.coverage(x_train)
        assert single.score < full.score

    def test_uncertainty_low_in_domain(self, trained_setup):
        net, x_train, x_shift = trained_setup
        analyzer = DeepKnowledgeAnalyzer(network=net)
        analyzer.fit(x_train, x_shift)
        assert analyzer.uncertainty(x_train) < 0.1

    def test_uncertainty_high_out_of_domain(self, trained_setup):
        net, x_train, x_shift = trained_setup
        analyzer = DeepKnowledgeAnalyzer(network=net)
        analyzer.fit(x_train, x_shift)
        far = x_train + 30.0
        assert analyzer.uncertainty(far) > analyzer.uncertainty(x_train)
        assert analyzer.uncertainty(far) > 0.2

    def test_uncertainty_bounded(self, trained_setup):
        net, x_train, x_shift = trained_setup
        analyzer = DeepKnowledgeAnalyzer(network=net)
        analyzer.fit(x_train, x_shift)
        for data in (x_train, x_train + 100.0):
            assert 0.0 <= analyzer.uncertainty(data) <= 1.0
