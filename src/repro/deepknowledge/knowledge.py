"""Transfer-knowledge neuron selection, coverage, and runtime uncertainty.

DeepKnowledge operates in two phases (paper Sec. III-A3):

Design time
    Present the trained network with in-domain data and a shifted
    counterpart; rank neurons by how *stable* their activation
    distribution is across the shift (Hellinger distance between binned
    activation histograms). The most stable neurons are the
    transfer-knowledge (TK) neurons — the carriers of generalisable
    abstractions. A coverage score over the TK neurons' activation bins
    quantifies how thoroughly a test set exercises the model's
    generalisation behaviour.

Runtime
    For each incoming activation trace, measure what fraction of TK-neuron
    activations fall outside the activation ranges seen at design time;
    that out-of-range fraction is the uncertainty metric attached to the
    prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.deepknowledge.network import FeedForwardNetwork


def hellinger_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Hellinger distance between two discrete distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must have equal support")
    p = p / max(p.sum(), 1e-12)
    q = q / max(q.sum(), 1e-12)
    return float(np.sqrt(0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2)))


@dataclass(frozen=True)
class TransferKnowledgeNeuron:
    """One selected TK neuron with its design-time activation statistics."""

    index: int
    stability: float  # 1 - Hellinger distance across the domain shift
    bin_edges: np.ndarray
    low: float
    high: float
    mean: float
    std: float


@dataclass(frozen=True)
class CoverageReport:
    """Design-time coverage of TK activation bins by a test set."""

    covered_bins: int
    total_bins: int

    @property
    def score(self) -> float:
        """Fraction of TK (neuron, bin) combinations exercised."""
        if self.total_bins == 0:
            return 0.0
        return self.covered_bins / self.total_bins


@dataclass
class DeepKnowledgeAnalyzer:
    """Whitebox analyzer bound to one trained network.

    Parameters
    ----------
    tk_fraction:
        Fraction of hidden neurons retained as transfer-knowledge neurons.
    n_bins:
        Histogram bins per neuron for stability and coverage analysis.
    range_quantiles:
        Design-time activation quantiles defining "in-range" at runtime.
    """

    network: FeedForwardNetwork
    tk_fraction: float = 0.25
    n_bins: int = 10
    range_quantiles: tuple[float, float] = (0.01, 0.99)
    tk_neurons: list[TransferKnowledgeNeuron] = field(default_factory=list)

    # --------------------------------------------------------- design time
    def fit(self, in_domain: np.ndarray, shifted: np.ndarray) -> list[TransferKnowledgeNeuron]:
        """Select TK neurons from in-domain vs shifted activation traces."""
        if not 0.0 < self.tk_fraction <= 1.0:
            raise ValueError("tk_fraction must be in (0, 1]")
        trace_in = self.network.activation_trace(in_domain)
        trace_shift = self.network.activation_trace(shifted)
        n_neurons = trace_in.shape[1]
        stabilities = np.zeros(n_neurons)
        edges_per_neuron: list[np.ndarray] = []
        for j in range(n_neurons):
            lo = min(trace_in[:, j].min(), trace_shift[:, j].min())
            hi = max(trace_in[:, j].max(), trace_shift[:, j].max())
            if hi - lo < 1e-12:
                hi = lo + 1e-12
            edges = np.linspace(lo, hi, self.n_bins + 1)
            hist_in, _ = np.histogram(trace_in[:, j], bins=edges)
            hist_shift, _ = np.histogram(trace_shift[:, j], bins=edges)
            stabilities[j] = 1.0 - hellinger_distance(hist_in, hist_shift)
            edges_per_neuron.append(edges)
        # Dead or near-constant neurons are trivially "stable" but carry no
        # knowledge; exclude them from selection (unless nothing else is
        # available).
        live = trace_in.std(axis=0) > 1e-9
        ranked = sorted(
            range(n_neurons),
            key=lambda j: (bool(live[j]), stabilities[j]),
            reverse=True,
        )
        k = max(1, int(round(self.tk_fraction * n_neurons)))
        selected = ranked[:k]
        self.tk_neurons = []
        for j in sorted(int(i) for i in selected):
            lo_q, hi_q = np.quantile(trace_in[:, j], self.range_quantiles)
            self.tk_neurons.append(
                TransferKnowledgeNeuron(
                    index=j,
                    stability=float(stabilities[j]),
                    bin_edges=edges_per_neuron[j],
                    low=float(lo_q),
                    high=float(hi_q),
                    mean=float(trace_in[:, j].mean()),
                    std=float(trace_in[:, j].std() + 1e-9),
                )
            )
        return self.tk_neurons

    @property
    def fitted(self) -> bool:
        """Whether TK neurons have been selected."""
        return bool(self.tk_neurons)

    def coverage(self, test_inputs: np.ndarray) -> CoverageReport:
        """TK-bin coverage score of a test set (design-time metric)."""
        self._require_fit()
        trace = self.network.activation_trace(test_inputs)
        covered = 0
        total = 0
        for neuron in self.tk_neurons:
            hist, _ = np.histogram(trace[:, neuron.index], bins=neuron.bin_edges)
            covered += int(np.count_nonzero(hist))
            total += self.n_bins
        return CoverageReport(covered_bins=covered, total_bins=total)

    # ------------------------------------------------------------- runtime
    def uncertainty(self, inputs: np.ndarray) -> float:
        """Runtime uncertainty in [0, 1] for a batch of inputs.

        Two complementary activation-trace signals, combined by max:

        * the fraction of TK-neuron activations outside the design-time
          quantile range (inputs driving the generalising neurons into
          regions never validated), and
        * the mean per-neuron batch-mean shift in training standard
          deviations (catches collapse-to-zero under ReLU, where every
          activation is technically "in range" but the distribution has
          clearly moved).
        """
        self._require_fit()
        trace = self.network.activation_trace(inputs)
        out_of_range = 0
        total = 0
        shifts = []
        for neuron in self.tk_neurons:
            col = trace[:, neuron.index]
            out_of_range += int(np.sum((col < neuron.low) | (col > neuron.high)))
            total += col.size
            z = abs(float(col.mean()) - neuron.mean) / neuron.std
            shifts.append(min(1.0, z / 2.0))
        if total == 0:
            return 0.0
        oor_fraction = out_of_range / total
        return max(oor_fraction, float(np.mean(shifts)))

    def _require_fit(self) -> None:
        if not self.fitted:
            raise RuntimeError("call fit() before using the analyzer")
