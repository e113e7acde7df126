"""Multi-UAV Control Platform (paper Sec. IV-A).

The five-layer platform architecture: graphical user interfaces (web
monitor + first-responder control), UAV ground control station, database
manager (origin-checked API), UAV manager (connection/command layer), and
task manager (algorithms as services). The layers are faithful to the
paper's component responsibilities while running fully in-process on the
simulation substrate.
"""
