"""UAV simulation substrate.

The paper evaluates on DJI Matrice 300 RTK aircraft flown in the field and
in DJI Assistant 2 / Gazebo. This subpackage is the from-scratch
replacement: a kinematic multirotor simulator with an electro-thermal
battery model, a configurable sensor suite (GPS with spoofing/denial, IMU,
camera, temperature, wind), fault injection, and a world container that
steps a fleet plus its environment deterministically.

The EDDI technologies consume telemetry streams, not aerodynamics, so a
kinematic waypoint-following model reproduces every signal the paper's
experiments depend on while remaining laptop-fast.
"""
