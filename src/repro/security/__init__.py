"""Security EDDI framework (paper Sec. III-B).

"Each Security EDDI is implemented as a Python script tailored to a
specific attack tree, capable of parsing and recognizing attack patterns
to detect an adversary's ultimate goal. Supporting components include an
MQTT message protocol broker and an Intrusion Detection System (IDS),
which inspects network traffic and publishes alerts upon detecting
suspicious activity."

This subpackage builds that pipeline end-to-end: attack trees with CAPEC
metadata, an in-process MQTT-style broker, a rule-based IDS over the
simulated ROS traffic, spoofing detectors (GPS and ROS message), and the
Security EDDI engine that traces alerts from attack-tree leaves toward the
root.
"""
