"""Multi-UAV Control Platform (paper Sec. IV-A).

The paper's platform has five layers: graphical user interfaces, UAV
ground control station, database manager, UAV manager and task manager.
This package keeps the ones its experiments run: the database manager
(origin-checked API), the UAV manager (connection/command layer), the
task manager (algorithms as services), text status panels and the
operations map, and the flight recorder, all in-process on the
simulation substrate. The mission verdict the paper's GCS hosts comes
from the assurance plane's decider (:mod:`repro.core.decider`).
"""
