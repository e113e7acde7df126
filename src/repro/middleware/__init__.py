"""ROS-like publish/subscribe middleware substrate.

The paper's multi-UAV platform runs on ROS Noetic; its security experiments
attack the ROS message channel (Sec. V-C, "ROS message spoofing attack").
This subpackage provides an in-process topic bus with per-message provenance
so that the intrusion-detection system and Security EDDI can observe and
classify traffic, plus the message-spoofing injector that attack uses.

The degraded-link layer (:mod:`repro.middleware.degraded`) inserts lossy,
delayed, partitionable per-UAV-pair links under the same bus API, and
:mod:`repro.middleware.reliable` provides ack/retry delivery with an
explicit link-down signal on top — the realistic mesh transport the
Communication-based Localization ConSert monitors.
"""
