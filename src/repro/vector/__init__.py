"""Vectorized batch replay: the path every ``Simulator.run()`` takes.

:func:`repro.vector.engine.replay` replays the trace in segments,
precomputing everything that does not depend on simulation order with
NumPy (address decomposition, hit/miss classification, bank/row mapping)
and driving one tight Python loop per segment over the precomputed
columns.  Requests whose outcome depends on cache state transitions
(misses, underpredictions) drop to the *scalar reference code itself*,
so every stat, every energy float and every byte of a stored result is
identical to the reference loop
(:meth:`repro.sim.simulator.Simulator._run_reference`) — the byte-parity
gate.  Designs and configurations without a kernel replay through that
reference loop directly.
"""
