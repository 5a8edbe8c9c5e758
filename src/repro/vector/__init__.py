"""Vectorized batch replay: the path every ``Simulator.run()`` takes.

:func:`repro.vector.engine.replay` replays the trace in segments.  A
design with a batch kernel (:mod:`repro.vector.kernels`: footprint, page,
block, baseline and ideal at their stock configurations) gets one NumPy
pass per segment for everything that does not depend on simulation order
(address decomposition into page, block offset, tag set and bank) and
then one tight Python loop that inlines every outcome — hits, misses
with eviction, underpredictions, singleton bypasses, MissMap forced
evictions — writing straight through to the real simulation state.
Every stat, every energy float and every byte of a stored result is
identical to the reference loop
(:meth:`repro.sim.simulator.Simulator._run_reference`) — the byte-parity
gate.  Designs and configurations without a kernel replay on that
reference loop.
"""
