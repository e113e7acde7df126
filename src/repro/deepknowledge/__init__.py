"""DeepKnowledge: generalisation-driven DNN testing and runtime uncertainty.

DeepKnowledge (paper Sec. III-A3) is a whitebox technique that "assesses
the internal neuron behaviours of the given ML model": at design time it
identifies *transfer-knowledge* neurons — the neurons whose learned
abstractions generalise across domain shift — and computes a coverage
score over their activation ranges; at runtime it "analy[ses] image
activation traces in the DNN and estimat[es] an uncertainty metric for
prediction accuracy".

The paper applies it to tiny YOLOv4 person detection; here the network
under analysis is a from-scratch NumPy MLP (see DESIGN.md substitutions),
which exhibits the same activation-trace behaviour the method consumes.
"""
