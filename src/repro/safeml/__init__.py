"""SafeML: statistical-distance safety monitoring of ML components.

SafeML (paper Sec. III-A2) "detect[s] when the data encountered at runtime
is not similar to the data used for training ... by evaluating the
statistical distance of the (subset of) data distribution", over "a
sliding window of images captured by UAV cameras against a reference set".

This subpackage implements the full measure family from the SafeML line of
work (Aslansefat et al., IMBSA 2020) — Kolmogorov–Smirnov, Kuiper,
Anderson–Darling, Cramér–von Mises, Wasserstein, and the combined DTS
measure — together with the sliding-window runtime monitor that maps
dissimilarity to a confidence level consumed by the ConSert layer.
"""
