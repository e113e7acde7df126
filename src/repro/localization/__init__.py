"""Collaborative Localization (paper Sec. III-C).

"CL allows UAVs to share data for detection, tracking, and positioning,
providing alternative navigation for affected UAVs. Nearby UAVs ...
detect and calculate distances to affected UAVs in real-time using
tinyYOLOv4 and monocular depth estimation. The final position is refined
through trigonometric calculations and the Haversine formula."

Pipeline implemented here:

1. :mod:`repro.localization.detection` — collaborators visually detect the
   affected UAV (field-of-view, range-dependent detection probability).
2. :mod:`repro.localization.depth` — monocular range estimation with
   range-proportional noise (pinhole model).
3. :mod:`repro.localization.collaborative` — each sighting converts to a
   position hypothesis via bearing/elevation trigonometry and the
   haversine-family geodesy in :mod:`repro.geo`; hypotheses fuse by
   inverse-variance weighting.
4. :mod:`repro.localization.fusion` — a constant-velocity Kalman filter
   tracks the affected UAV across sightings.
5. :mod:`repro.localization.landing` — guided safe-landing controller
   feeding CL position estimates back to the GPS-denied UAV (Fig. 7).
"""
