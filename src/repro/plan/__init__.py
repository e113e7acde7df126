"""Obstacle-aware 3D planning: occupancy grids, A*, and tour routing.

Pure-geometry layer (NumPy + stdlib only; no imports from the sar, uav,
or harness layers, which sit above it):

- :mod:`repro.plan.grid` — 3D voxel occupancy grid with box/cylinder
  primitives, inflation, segment collision queries, and a pure-NumPy
  cell-binning nearest-obstacle index (no SciPy KD-tree dependency).
- :mod:`repro.plan.astar` — 26-connected A* with straight-line shortcut
  smoothing, plus :func:`route_waypoints` for whole mission legs.
- :mod:`repro.plan.routing` — multi-UAV inspection-point tours
  (east-band partitioning, nearest-neighbour + 2-opt).
"""
