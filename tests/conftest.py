"""Shared fixtures for the test suite.

Besides the DRAM-controller shorthands, this hosts the serve-stack and
fault-injection harness shared by ``test_serve_api.py`` and
``test_distributed.py``: build an in-process service (job manager +
distributed-run coordinator) over a temp store, optionally put it on a
real socket (``serve_in_thread``), wrap its transport in a seeded
:class:`~repro.serve.faults.FaultSchedule`, and run worker fleets on
threads with failure capture and guaranteed teardown.
"""

from __future__ import annotations

import pytest

from repro.dram.address_mapping import AddressMapping
from repro.dram.bank import RowBufferPolicy
from repro.dram.controller import MemoryController
from repro.dram.timing import OFF_CHIP_DDR3_1600, STACKED_DDR3_3200
from repro.mem.request import AccessType, MemoryRequest


@pytest.fixture
def offchip() -> MemoryController:
    """Off-chip controller: 1 channel, 8 banks, 2KB rows, open-page."""
    return MemoryController(
        timing=OFF_CHIP_DDR3_1600,
        mapping=AddressMapping(
            channels=1, banks_per_channel=8, row_bytes=2048, interleave_bytes=2048
        ),
        policy=RowBufferPolicy.OPEN_PAGE,
    )


@pytest.fixture
def stacked() -> MemoryController:
    """Stacked controller: 4 channels, 8 banks, 2KB rows, open-page."""
    return MemoryController(
        timing=STACKED_DDR3_3200,
        mapping=AddressMapping(
            channels=4, banks_per_channel=8, row_bytes=2048, interleave_bytes=2048
        ),
        policy=RowBufferPolicy.OPEN_PAGE,
    )


def read(address: int, pc: int = 0x400000, core: int = 0) -> MemoryRequest:
    """Shorthand read request."""
    return MemoryRequest(address=address, pc=pc, access_type=AccessType.READ, core_id=core)


def write(address: int, pc: int = 0x400000, core: int = 0) -> MemoryRequest:
    """Shorthand write request."""
    return MemoryRequest(address=address, pc=pc, access_type=AccessType.WRITE, core_id=core)


@pytest.fixture()
def short_trace_analyses(monkeypatch):
    """Figs. 4 and 12 over 2,000-request traces, with an empty memo.

    The analysis memo is keyed by workload alone, so it is cleared on
    both sides: no full-length result leaks in, no short one leaks out.
    """
    from repro.reporting import figures

    monkeypatch.setattr(figures, "ANALYSIS_REQUESTS", 2000)
    figures.trace_analyses.cache_clear()
    yield figures
    figures.trace_analyses.cache_clear()


# ----------------------------------------------------------------------
# Serve-stack + fault-injection harness (test_serve_api, test_distributed)
# ----------------------------------------------------------------------


@pytest.fixture()
def serve_stack(tmp_path):
    """Factory for an in-process serve stack with guaranteed teardown.

    ``serve_stack(...)`` returns a :class:`SimulationService` whose job
    manager and distributed-run coordinator share one temp store;
    keyword arguments go to the :class:`Coordinator` (``lease_seconds``,
    ``clock``, ``journal_path`` ...) so tests can inject a fake clock or
    a journal without building the stack by hand.
    """
    from repro.serve import Coordinator, JobManager, SimulationService

    managers = []

    def build(
        store_dir=None,
        workers=1,
        allow_plugins=False,
        manager=None,
        **coordinator_kwargs,
    ):
        store_dir = store_dir or str(tmp_path / "serve_store")
        if manager is None:
            manager = JobManager(store_dir=store_dir, workers=workers)
        managers.append(manager)
        coordinator = Coordinator(
            store_dir=store_dir,
            allow_plugins=allow_plugins,
            **coordinator_kwargs,
        )
        return SimulationService(
            manager, allow_plugins=allow_plugins, coordinator=coordinator
        )

    yield build
    for manager in managers:
        manager.shutdown(wait=False)


@pytest.fixture()
def http_stack(serve_stack):
    """Like ``serve_stack``, but served on a real ephemeral socket.

    The factory returns ``(base_url, service)``; servers are shut down
    at teardown in reverse creation order.
    """
    from repro.serve.httpd import serve_in_thread

    servers = []

    def build(**kwargs):
        service = serve_stack(**kwargs)
        server, _, base_url = serve_in_thread(service)
        servers.append(server)
        return base_url, service

    yield build
    for server in reversed(servers):
        server.shutdown()
        server.server_close()


@pytest.fixture()
def fault_schedule():
    """Factory for seeded :class:`~repro.serve.faults.FaultSchedule`\\ s.

    Pure convenience (the class is deterministic by itself), but it
    keeps the seed front and centre in test code: a failing chaos run
    reproduces from the seed printed in its assertion message.
    """
    from repro.serve.faults import FaultSchedule

    def build(seed, **kwargs):
        return FaultSchedule(seed, **kwargs)

    return build


@pytest.fixture()
def worker_fleet():
    """Run worker loops on daemon threads; join/stop them at teardown.

    ``worker_fleet(loop_a, loop_b, ...)`` starts one
    :class:`~repro.serve.faults.WorkerThread` per loop and returns the
    thread list; each thread records how its loop ended in
    ``.failure`` instead of dying silently.
    """
    from repro.serve.faults import WorkerThread

    threads = []

    def launch(*workers):
        started = [WorkerThread(worker) for worker in workers]
        for thread in started:
            thread.start()
        threads.extend(started)
        return started

    yield launch
    for thread in threads:
        thread.worker.request_stop()
    for thread in threads:
        thread.join(timeout=30)
