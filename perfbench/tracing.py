"""Span recording, layer wrappers and runtime probes for the traced run.

Everything here wraps the program from the outside: the wrappers replace
public functions and methods of the ``repro`` modules for the duration of
one traced phase and put the originals back afterwards.  ``src/`` is never
edited.

Spans live in flat ``array`` columns (no per-span Python objects, so the
recorder does not feed the garbage collector it is measuring) and are
written out as columnar JSON when the run ends.  Each span records its
name, start, end, parent span and a request/batch id.  A span's self time
is its duration minus the durations of its children; the children of one
span never overlap because the program runs on one thread and every
wrapper opens and closes its span around a synchronous call.  Coroutines
are timed slice by slice (:class:`_Slices`), so time a coroutine spends
suspended is never counted as its own.
"""

from __future__ import annotations

import asyncio
import gc
import importlib
import selectors
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

pc = time.perf_counter

#: Span name -> layer.  Layers are the repo's modules, plus the runtime
#: (garbage collector, event-loop dispatch and idle time) and the
#: benchmark's own open-loop request generator.
LAYER_OF = {
    "sim.run": "sim",
    "arbitrator.submit": "arbitrator",
    "arbitrator.admit_batch": "arbitrator",
    "profile.earliest_fit": "profile",
    "profile.query": "profile",
    "profile.mutate": "profile",
    "kernels.admit": "kernels",
    "kernels.flatten": "kernels",
    "service.init": "service",
    "service.enqueue": "service",
    "service.drain": "service",
    "service.decide": "service",
    "service.ack": "service",
    "wal.append_jobs": "wal",
    "wal.append_decisions": "wal",
    "wal.checkpoint": "wal",
    "recovery.recover": "recovery",
    "recovery.read_checkpoint": "recovery",
    "recovery.read_wal": "recovery",
    "recovery.decode": "recovery",
    "recovery.replay": "recovery",
    "recovery.audit": "recovery",
    "gc": "gc",
    "runtime.idle": "idle",
    "runtime.loop": "loop",
    "loadgen": "loadgen",
}

#: Largest allowed |sum of layer self times + unattributed - wall| / wall.
ACCOUNTING_TOLERANCE = 0.01


class Tracer:
    """In-memory span store with a single-thread open-span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rid = array("q")
        self.stack: list[int] = []
        self.on = False
        #: Request or batch id stamped on spans opened from now on.
        self.current_rid = -1
        self.windows: list[tuple[float, float]] = []
        # service.ack bookkeeping: (decide end, first span index, batch id,
        # the span open when decide returned)
        self._ack_open: tuple[float, int, int, int] | None = None
        self._ack_last = 0.0
        self._ack_id = self.intern("service.ack")
        #: Spans that can only start once the acked batch is finished.
        self._ack_ends = {
            self.intern(n)
            for n in (
                "service.enqueue",
                "service.drain",
                "service.decide",
                "runtime.idle",
                "runtime.loop",
                "loadgen",
            )
        }

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording ------------------------------------------------------

    def open(self, nid: int, rid: int | None = None) -> int:
        stack = self.stack
        if self._ack_open is not None and not stack and nid in self._ack_ends:
            self._close_ack()
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.rid.append(self.current_rid if rid is None else rid)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(pc())
        return i

    def close(self, i: int) -> None:
        stack = self.stack
        if stack and stack[-1] == i:  # else already closed by window()
            self.end[i] = pc()
            stack.pop()

    def open_ack(self, batch: int) -> None:
        """The decide hook returned: acks of this batch start now."""
        enclosing = self.stack[-1] if self.stack else -1
        self._ack_open = (pc(), len(self.start), batch, enclosing)
        self._ack_last = 0.0

    def mark_ack(self) -> None:
        if self._ack_open is not None:
            self._ack_last = pc()

    def _close_ack(self) -> None:
        t0, first, batch, enclosing = self._ack_open  # type: ignore[misc]
        self._ack_open = None
        t1 = self._ack_last
        if enclosing >= 0:
            # The acks are resolved in the drain slice that ran decide.
            t1 = min(t1, self.end[enclosing])
        if t1 <= t0:
            return
        i = len(self.start)
        self.name.append(self._ack_id)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(enclosing)
        self.rid.append(batch)
        # Spans beside it inside the ack interval (WAL appends, GC) are
        # its children.
        parent, start, end = self.parent, self.start, self.end
        for j in range(first, i):
            if parent[j] == enclosing and start[j] >= t0 and end[j] <= t1:
                parent[j] = i

    @contextmanager
    def window(self) -> Iterator[None]:
        """Record spans only inside timed windows; sum their wall time."""
        self.on = True
        t0 = pc()
        try:
            yield
        finally:
            t1 = pc()
            # Spans still open (the event-loop iteration that closes the
            # window) end with it.
            for i in self.stack:
                self.end[i] = t1
            self.stack.clear()
            if self._ack_open is not None:
                self._close_ack()
            self.windows.append((t0, t1))
            self.on = False

    # -- analysis -------------------------------------------------------

    def wall(self) -> float:
        return sum(b - a for a, b in self.windows)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        dur = self.durations()
        own = list(dur)
        for j, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[j]
        return own

    def union(self) -> float:
        """Wall time covered by at least one span (independent of nesting)."""
        spans = sorted(zip(self.start, self.end))
        covered = 0.0
        cur_s = cur_e = None
        for s, e in spans:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        if cur_e is not None:
            covered += cur_e - cur_s
        return covered

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: inclusive seconds, self seconds, span count."""
        incl: dict[str, float] = {}
        own: dict[str, float] = {}
        count: dict[str, int] = {}
        for nid, d, o in zip(self.name, self.durations(), self.self_times()):
            key = self.names[nid]
            incl[key] = incl.get(key, 0.0) + d
            own[key] = own.get(key, 0.0) + o
            count[key] = count.get(key, 0) + 1
        return incl, own, count

    def gc_pauses(self) -> tuple[list[float], int]:
        """Durations of the recorded ``gc`` spans and the gen-2 count."""
        nid = self._ids.get("gc", -1)
        pauses, gen2 = [], 0
        for k, name in enumerate(self.name):
            if name == nid:
                pauses.append(self.end[k] - self.start[k])
                gen2 += self.rid[k] == 2
        return pauses, gen2

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "layer_of": LAYER_OF,
            "windows": self.windows,
            "name": list(self.name),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "id": list(self.rid),
        }


TRACER = Tracer()


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _wrap(fn: Callable, name: str) -> Callable:
    tracer = TRACER
    nid = tracer.intern(name)

    def traced(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        i = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)

    return traced


class _Slices:
    """Await a coroutine, recording one span per synchronous slice."""

    __slots__ = ("coro", "nid", "rid")

    def __init__(self, coro, nid: int, rid: int) -> None:
        self.coro = coro
        self.nid = nid
        self.rid = rid

    def __await__(self):
        tracer = TRACER
        coro = self.coro
        value = None
        exc: BaseException | None = None
        while True:
            i = tracer.open(self.nid, self.rid)
            try:
                if exc is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(exc)
            except StopIteration as stop:
                tracer.close(i)
                return stop.value
            except BaseException:
                tracer.close(i)
                raise
            tracer.close(i)
            try:
                value = yield yielded
                exc = None
            except BaseException as err:  # delivered into the coroutine
                value = None
                exc = err


def _wrap_async(fn: Callable, name: str, on_return: Callable | None) -> Callable:
    tracer = TRACER
    nid = tracer.intern(name)

    async def traced(*args, **kwargs):
        if not tracer.on:
            return await fn(*args, **kwargs)
        result = await _Slices(fn(*args, **kwargs), nid, tracer.current_rid)
        if on_return is not None:
            on_return(args, pc())
        return result

    return traced


#: (owner, attribute, span name); owners are resolved lazily by dotted path
#: so a module is only imported when its workload is traced.  Functions a
#: module imported by name are patched where their callers look them up.
SYNC_PATCHES = (
    ("repro.sim.simulator:ArrivalSimulator", "run", "sim.run"),
    ("repro.core.arbitrator:QoSArbitrator", "submit", "arbitrator.submit"),
    ("repro.core.arbitrator:QoSArbitrator", "admit_batch", "arbitrator.admit_batch"),
    ("repro.core.greedy", "earliest_fit", "profile.earliest_fit"),
    ("repro.core.profile:AvailabilityProfile", "free_area", "profile.query"),
    ("repro.core.profile:AvailabilityProfile", "min_available", "profile.query"),
    ("repro.core.profile:AvailabilityProfile", "reserve", "profile.mutate"),
    ("repro.core.profile:AvailabilityProfile", "release", "profile.mutate"),
    ("repro.core.profile:AvailabilityProfile", "compact", "profile.mutate"),
    ("repro.core.kernels.batch", "try_admit_batch_compiled", "kernels.admit"),
    ("repro.core.kernels.batch", "flatten_jobs", "kernels.flatten"),
    ("repro.service.wal:WriteAheadLog", "append_jobs", "wal.append_jobs"),
    ("repro.service.wal:WriteAheadLog", "append_decisions", "wal.append_decisions"),
    ("repro.service.service:AdmissionService", "checkpoint", "wal.checkpoint"),
    ("repro.service.recovery", "read_checkpoint", "recovery.read_checkpoint"),
    ("repro.service.recovery", "read_wal", "recovery.read_wal"),
    ("repro.service.recovery", "records_to_entries", "recovery.decode"),
    ("repro.service.recovery", "verify_replay", "recovery.replay"),
    ("repro.verify.auditor:ScheduleAuditor", "audit", "recovery.audit"),
)


def _resolve(path: str):
    module, _, attr = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


@contextmanager
def patched(on_enqueue_return: Callable | None = None) -> Iterator[None]:
    """Install every layer wrapper (plus the GC span hook); undo on exit."""
    saved = []
    try:
        for owner_path, attr, span in SYNC_PATCHES:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, span))
        service_cls = _resolve("repro.service.service:AdmissionService")
        original = service_cls.__dict__["enqueue"]
        saved.append((service_cls, "enqueue", original))
        service_cls.enqueue = _wrap_async(
            original, "service.enqueue", on_enqueue_return
        )
        # The drain loop (the task ``start()`` creates) has no public entry
        # point; its coroutine is the one private method wrapped here.
        original = service_cls.__dict__["_run"]
        saved.append((service_cls, "_run", original))
        service_cls._run = _wrap_async(original, "service.drain", None)
        GC.spans = True
        yield
    finally:
        GC.spans = False
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def traced_call(name: str, fn: Callable, *args, **kwargs):
    """Run ``fn`` inside a span named ``name`` (for calls the benchmark makes)."""
    tracer = TRACER
    if not tracer.on:
        return fn(*args, **kwargs)
    i = tracer.open(tracer.intern(name))
    try:
        return fn(*args, **kwargs)
    finally:
        tracer.close(i)


class TracedFuture(asyncio.Future):
    """A future that tells the tracer when the service resolves it."""

    def set_result(self, result) -> None:
        super().set_result(result)
        TRACER.mark_ack()


class _TimedSelector(selectors.DefaultSelector):  # type: ignore[misc,valid-type]
    """Event-loop selector whose waits are recorded as ``runtime.idle``."""

    def select(self, timeout=None):
        tracer = TRACER
        if not tracer.on:
            return super().select(timeout)
        i = tracer.open(tracer.intern("runtime.idle"))
        try:
            return super().select(timeout)
        finally:
            tracer.close(i)


class _TracedLoop(asyncio.SelectorEventLoop):
    """Event loop whose iterations are ``runtime.loop`` spans.

    Every callback and task step runs inside one iteration, so the span's
    self time is the loop's own dispatching: what is left after the
    wrapped layers, idle waits and collections inside it.
    """

    def _run_once(self):
        tracer = TRACER
        if not tracer.on or tracer.stack:
            return super()._run_once()
        i = tracer.open(tracer.intern("runtime.loop"))
        try:
            return super()._run_once()
        finally:
            tracer.close(i)


def new_loop(traced: bool) -> asyncio.AbstractEventLoop:
    """An event loop; the traced one times its iterations, idle waits and
    future resolution."""
    if not traced:
        return asyncio.SelectorEventLoop(selectors.DefaultSelector())
    loop = _TracedLoop(_TimedSelector())
    loop.create_future = lambda: TracedFuture(loop=loop)  # type: ignore[method-assign]
    return loop


# ---------------------------------------------------------------------------
# Garbage-collector probe
# ---------------------------------------------------------------------------


class GcProbe:
    """Pause time and count per generation, via ``gc.callbacks``.

    Always installed (a collection is rare next to the work it interrupts);
    with :attr:`spans` set, each pause is also recorded as a ``gc`` span.
    """

    def __init__(self) -> None:
        self.spans = False
        self.count = [0, 0, 0]
        self.pause = [0.0, 0.0, 0.0]
        self.pause_max = 0.0
        self._t0 = 0.0
        self._span = -1
        self._nid = TRACER.intern("gc")

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            # A gc span's id is the generation collected.
            self._span = (
                TRACER.open(self._nid, info.get("generation", 2))
                if self.spans and TRACER.on
                else -1
            )
            self._t0 = pc()
            return
        dt = pc() - self._t0
        if self._span >= 0:
            TRACER.close(self._span)
            self._span = -1
        gen = info.get("generation", 2)
        self.count[gen] += 1
        self.pause[gen] += dt
        if dt > self.pause_max:
            self.pause_max = dt

    def install(self) -> None:
        if self not in gc.callbacks:
            gc.callbacks.append(self)


GC = GcProbe()
