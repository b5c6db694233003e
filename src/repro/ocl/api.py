"""Free-standing OpenCL API helpers."""

from __future__ import annotations

from typing import Any, Generator, Iterable

from repro.errors import OclError
from repro.ocl.event import CLEvent

__all__ = ["wait_for_events"]


def wait_for_events(events: Iterable[CLEvent],
                    host=None) -> Generator[Any, Any, None]:
    """``clWaitForEvents``: block the calling host thread.

    ``host`` (a :class:`~repro.hardware.host.HostModel`) adds the blocking
    wake-up overhead; pass the caller's host model when modelling host
    threads, or None inside runtime-internal coroutines.
    """
    events = list(events)
    if not events:
        raise OclError("CL_INVALID_VALUE", "empty event wait list")
    env = events[0].env
    if all(e.is_complete for e in events):
        # No blocking happened: the call returns immediately.
        _check_failed(events)
        if env.probe is not None:
            env.probe.on_host_sync(events)
        if host is not None:
            yield from host.api_call()
        else:
            yield env.timeout(0.0)
        return
    # Wait for every event individually: clWaitForEvents returns only
    # once ALL listed events are complete, even when some fail — and a
    # failure must surface as the CL wait-list error below, not as the
    # command's raw internal exception.
    for e in events:
        try:
            yield e.completion
        except GeneratorExit:
            raise  # host coroutine torn down (abandoned at env end)
        except BaseException:
            pass  # converted to OclError by _check_failed
    _check_failed(events)
    if env.probe is not None:
        env.probe.on_host_sync(events)
    if host is not None:
        yield from host.sync_wakeup()


def _check_failed(events: list[CLEvent]) -> None:
    """clWaitForEvents errors when any waited event failed; name them."""
    failed = [e for e in events if e.error is not None]
    if failed:
        names = ", ".join(repr(e.label) for e in failed)
        raise OclError(
            "CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST",
            f"waited event(s) {names} failed: {failed[0].error}")
