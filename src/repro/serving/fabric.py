"""Multi-process serving fabric: sharded sessions, shared models, hot swap.

One Python process caps streaming throughput at the GIL long before the
scoring kernels saturate a machine.  :class:`ServingFabric` scales the
:class:`~repro.serving.service.StreamingService` horizontally inside one
host:

* **Session sharding** — every session is pinned to one of N worker
  processes by a *stable* hash of its id (:func:`shard_of`).  All of a
  session's windows land on the same worker, so windowing state, smoothing
  and micro-batching behave exactly as in the single-process service.
  (Python's builtin ``hash`` is salted per process, so the fabric hashes
  with BLAKE2b — the routing must agree across restarts and processes.)
* **Zero-copy models** — the model is published once into a named
  shared-memory segment (:mod:`repro.serving.shm`); every worker attaches
  and scores through ndarray views of the same physical pages.  N workers
  cost ~one copy of the model, not N.
* **Blue/green hot swap** — :meth:`ServingFabric.swap` publishes the new
  model as a fresh segment (generation ``g+1``), then walks the shards:
  each flushes its pending windows against the *old* engine, atomically
  switches its scorer to the new attachment, and drops its old mapping.
  Only after every shard acknowledges does the fabric unlink the old
  segment.  No window is ever scored against a half-swapped model, none is
  dropped or double-scored.
* **Worker recovery** — a killed worker breaks its (single-process) pool;
  the fabric verifies the current generation's segment, rebuilds the pool
  on it, re-opens the shard's sessions from the parent-side ledger of open
  ids (every session has the fabric's one windowing), and retries the call
  once.  Recovered sessions restart their windowing state (the raw-sample
  tail of a dead process is not recoverable by design).
* **Resilience** (:mod:`repro.resilience`) — every worker call carries a
  ``call_timeout``; a *wedged* (hung, not dead) worker is SIGKILLed on
  timeout and recovered like a crash, so drain and swap can never block
  forever.  One :class:`~repro.resilience.CircuitBreaker` per shard counts
  *unrecovered* transport failures (timeout / broken pool where the
  rebuild-and-retry also failed); a tripped shard fails fast with
  :class:`~repro.resilience.CircuitOpenError` until a probe is due, and
  the probe itself is a full recovery attempt.  A call that reaches every
  shard (``drain``, ``stats``, ...) fails fast when any of them is
  tripped.  Scorer exceptions inside a worker are application failures
  and never count toward the breaker.
  Published segments carry per-array checksums (:mod:`repro.serving.shm`),
  and the parent verifies a segment every time it hands one to workers —
  at construction, at recovery and at swap — so damage reaches the caller
  as :exc:`~repro.serving.shm.IntegrityError` (a swap declines instead),
  never as a stale model or an opaque broken pool.  Workers verify again
  on attach.  An installed chaos plan (:mod:`repro.resilience.chaos`) is
  forwarded to every worker.
* **One serving surface** — the calls and return types of
  :class:`StreamingService`, so the gateway serves either directly; dead
  letters are gathered from, and replayed inside, the workers.

Worker counts resolve like every other pool in the repo
(:func:`repro.runtime.executor.resolve_max_workers`, which consults
``REPRO_MAX_WORKERS``).  A fabric is always worker processes (one worker
is one process); a worker that cannot start stops the fabric's
construction with its error.  In-process serving is
:class:`StreamingService`, which answers the same calls.
"""

from __future__ import annotations

import hashlib
import os
import signal
from collections import defaultdict
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from ..obs import OBS
from ..resilience.chaos import CHAOS, FaultPlan, install as install_chaos
from ..resilience.policy import CircuitBreaker, CircuitOpenError, Deadline
from ..runtime.executor import resolve_max_workers
from .scheduler import DeadLetter, Prediction
from .service import StreamingService, SwapResult
from .shm import (
    IntegrityError,
    attach_engine,
    cleanup_orphan_segments,
    publish_engine,
    verify_manifest,
)

__all__ = [
    "ServingFabric",
    "process_uss",
    "shard_of",
]


def shard_of(session_id: str, n_shards: int) -> int:
    """The worker index a session id is pinned to — stable across processes.

    BLAKE2b rather than builtin ``hash``: the latter is salted per process
    (PYTHONHASHSEED), which would route the same session to different
    workers in different processes or across restarts.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    digest = hashlib.blake2b(str(session_id).encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big") % n_shards


def process_uss() -> int | None:
    """This process's unique set size in bytes (``None`` where unavailable).

    USS (private pages only) rather than RSS: shared-memory model pages are
    resident in *every* attached worker, so RSS would count the one model
    copy N times and make zero-copy distribution look like N copies.
    """
    try:
        with open("/proc/self/smaps_rollup") as stream:
            text = stream.read()
    except OSError:
        return None
    total = 0
    for line in text.splitlines():
        if line.startswith(("Private_Clean:", "Private_Dirty:")):
            total += int(line.split()[1])
    return total * 1024


# ----------------------------------------------------------------- runtime
class _ShardRuntime:
    """One shard's in-worker state: the attached engine and its service.

    A segment that fails checksum verification is never served from:
    :func:`attach_engine` raises :exc:`IntegrityError` and the shard does
    not come up (loud beats wrong).
    """

    def __init__(self, manifest: dict, service_options: dict, index: int) -> None:
        self.index = index
        self.attached = attach_engine(manifest)
        self.service = StreamingService(self.attached.engine, **service_options)

    @property
    def generation(self) -> int:
        return self.attached.generation

    def open(self, session_id: str) -> str:
        self.service.open_session(session_id)
        return session_id

    def close_session(self, session_id: str) -> str:
        self.service.close_session(session_id)
        return session_id

    def push_many(self, batch: list) -> list[Prediction]:
        predictions: list[Prediction] = []
        for session_id, samples in batch:
            predictions.extend(self.service.push(session_id, samples))
        return predictions

    def drain(self) -> list[Prediction]:
        return self.service.drain()

    def dead_letters(self) -> list[DeadLetter]:
        return list(self.service.dead_letters)

    def replay_dead_letters(self) -> tuple[int, list[Prediction]]:
        return self.service.replay_dead_letters()

    def swap(self, manifest: dict) -> tuple[Prediction, ...]:
        """Flush on the old engine, switch to the new segment, drop the old.

        The flush inside :meth:`StreamingService.swap` happens while the old
        engine is still the scheduler's scorer, so every in-flight window
        scores against exactly one complete model.
        """
        incoming = attach_engine(manifest)
        flushed = self.service.swap(incoming.engine).flushed
        outgoing, self.attached = self.attached, incoming
        try:
            outgoing.close()
        except BufferError:  # pragma: no cover - a borrowed view still live
            pass
        return flushed

    def stats(self) -> dict:
        stats = self.service.stats
        return {
            **stats.as_dict(),
            "windows": stats.windows_scored,
            "mean_batch": stats.mean_batch_size,
        }

    def info(self) -> dict:
        return {
            "pid": os.getpid(),
            "generation": self.generation,
            "sessions": len(self.service.sessions),
            "uss_bytes": process_uss(),
        }

    def shutdown(self) -> list[Prediction]:
        flushed = self.service.drain()
        try:
            self.attached.close()
        except BufferError:  # pragma: no cover
            pass
        return flushed


_RUNTIME: _ShardRuntime | None = None


def _worker_init(
    manifest: dict,
    service_options: dict,
    index: int,
    obs_enabled: bool,
    chaos_json: str | None = None,
) -> None:
    global _RUNTIME
    if obs_enabled:
        # Same policy as the grid executor's workers: a fresh registry per
        # worker, never the fork-inherited parent counts.
        from ..obs import enable
        from ..obs.metrics import MetricsRegistry
        from ..obs.trace import SpanRecorder

        enable(MetricsRegistry(), SpanRecorder())
    if chaos_json:
        # The parent's fault plan, replayed in this worker: same seed, same
        # per-spec RNG streams, independent hit counters.
        install_chaos(FaultPlan.from_json(chaos_json))
    _RUNTIME = _ShardRuntime(manifest, service_options, index)


def _worker_call(method: str, *args):
    if CHAOS.enabled:
        CHAOS.hit(
            "fabric.worker.call",
            method=method,
            shard=None if _RUNTIME is None else _RUNTIME.index,
        )
    return getattr(_RUNTIME, method)(*args)


# ------------------------------------------------------------------ shards
class _ProcessShard:
    """One worker process, owned exclusively by one shard.

    A dedicated single-worker pool per shard (rather than one shared pool)
    is what gives sessions *state affinity*: ``ProcessPoolExecutor`` offers
    no way to route a task to a chosen worker, but a one-worker pool has
    only one place to go.
    """

    def __init__(
        self, index, manifest, service_options, obs_enabled, call_timeout
    ) -> None:
        self.index = index
        self.manifest = manifest
        self._service_options = service_options
        self._obs_enabled = obs_enabled
        self._call_timeout = call_timeout
        self.pid: int | None = None
        self.pool = self._spawn()

    def _spawn(self) -> ProcessPoolExecutor:
        chaos_json = CHAOS.plan.to_json() if CHAOS.enabled else None
        pool = ProcessPoolExecutor(
            max_workers=1,
            initializer=_worker_init,
            initargs=(
                self.manifest,
                self._service_options,
                self.index,
                self._obs_enabled,
                chaos_json,
            ),
        )
        # Force the worker up now so initializer failures surface here, not
        # on some later scoring call.  The submit starts the pool's one
        # worker, and knowing its pid is what lets a wedged (hung, not dead)
        # worker be killed on timeout — at start-up too.
        started = pool.submit(_worker_call, "info")
        (self.pid,) = pool._processes
        try:
            started.result(timeout=self._call_timeout)
        except BaseException:
            if not started.done():  # still running: wedged or interrupted
                self.kill()
            pool.shutdown(cancel_futures=True)  # waits: the worker is reaped
            self.pid = None  # never signal a reaped pid
            raise
        return pool

    def submit(self, method: str, *args) -> Future:
        try:
            return self.pool.submit(_worker_call, method, *args)
        except BrokenProcessPool as error:
            # An already-broken pool refuses submissions synchronously; hand
            # the breakage back as a failed future so recovery is handled in
            # exactly one place (:meth:`ServingFabric._result`).
            future: Future = Future()
            future.set_exception(error)
            return future

    def kill(self) -> None:
        """SIGKILL the worker process (used when a call times out).

        A hung worker holds its pool hostage: futures never resolve and a
        graceful shutdown joins forever.  Killing the process breaks the
        pool, which converts the hang into the crash path the fabric
        already knows how to recover from.
        """
        if self.pid is None:
            return
        try:
            os.kill(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):  # pragma: no cover
            pass

    def rebuild(self, manifest: dict) -> None:
        """Replace the worker with a fresh one attached to ``manifest``."""
        self.manifest = manifest
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.pool = self._spawn()

    def shutdown(self) -> None:
        try:
            self.pool.submit(_worker_call, "shutdown").result(timeout=30)
        except Exception:
            # Dead or wedged worker: kill it so the pool teardown cannot
            # join a process that will never exit on its own.
            self.kill()
            self.pool.shutdown(wait=False, cancel_futures=True)
            return
        self.pool.shutdown()


# ------------------------------------------------------------------ fabric
class ServingFabric:
    """Shard streaming sessions across N worker processes over one shared model.

    Parameters
    ----------
    engine:
        A compiled scoring engine (:class:`~repro.engine.CompiledModel`,
        :class:`~repro.engine.PackedBipolarModel` or
        :class:`~repro.engine.FixedPointModel`) — published once into
        shared memory; workers attach, never copy.  The published segment
        is verified against its checksums before any worker starts: a
        damaged publication is unlinked and raises :exc:`IntegrityError`.
        A stored model is served as
        ``ServingFabric(registry.load_compiled(name, version, precision=p))``.
    n_workers:
        Worker processes; ``None`` consults ``REPRO_MAX_WORKERS`` (one
        worker when it is unset); ``"auto"`` uses the available CPU count.
        A worker that fails to start stops the ones already started,
        unlinks the published segment and raises.  Start-up first reclaims
        shared-memory segments leaked by dead fabrics
        (:func:`repro.serving.shm.cleanup_orphan_segments`).
    call_timeout:
        Per-call timeout, seconds, on every worker future, the start-up
        call included (``None`` = unbounded).  A timed-out worker is treated
        as wedged: SIGKILLed and recovered like a crash, so no drain or
        swap can block forever on one hung process.  A worker that wedges
        while starting is killed and reaped, and the start fails with
        :class:`concurrent.futures.TimeoutError`.
    breaker_options:
        Keyword arguments for each shard's
        :class:`~repro.resilience.CircuitBreaker` (``failure_threshold``,
        ``probe_interval``, ``success_threshold``).
    **service_options:
        Forwarded to each worker's :class:`StreamingService` —
        ``n_channels``, ``window_samples``, ``max_batch``, ``max_wait``,
        etc.  Everything must be picklable (a ``transform`` lambda is not).
        A throwaway service is built from them before anything is
        published or started, so an unknown or missing option raises
        :class:`TypeError`, and a bad value the service's own error, here
        rather than inside a worker.
    """

    def __init__(
        self,
        engine,
        *,
        n_workers: int | str | None = None,
        call_timeout: float | None = 30.0,
        breaker_options: dict | None = None,
        **service_options,
    ) -> None:
        # A throwaway service checks the options' names and values in the
        # parent: its constructor only validates and allocates.
        StreamingService(engine, **service_options)
        cleanup_orphan_segments()
        self.n_workers = resolve_max_workers(n_workers)
        self._service_options = dict(service_options)
        self.call_timeout = None if call_timeout is None else float(call_timeout)
        self._shared = publish_engine(engine, generation=0)
        #: The recovery ledger: open session ids, in opening order.
        self._session_ids: dict[str, None] = {}
        self.restarts = 0
        self.timeouts = 0
        self._shards: list[_ProcessShard] = []
        self.breakers = [
            CircuitBreaker(name=f"shard{index}", **dict(breaker_options or {}))
            for index in range(self.n_workers)
        ]
        try:
            verify_manifest(self._shared.manifest)
            for index in range(self.n_workers):
                self._shards.append(
                    _ProcessShard(
                        index,
                        self._shared.manifest,
                        self._service_options,
                        OBS.enabled,
                        self.call_timeout,
                    )
                )
        except BaseException:
            for shard in self._shards:
                shard.shutdown()
            self._shared.unlink()
            raise

    # ------------------------------------------------------------- plumbing
    def _admit(self, shard_index: int) -> None:
        """Consult the shard's breaker; fail fast when the circuit is open."""
        breaker = self.breakers[shard_index]
        if not breaker.allow():
            raise CircuitOpenError(
                f"shard {shard_index} circuit is open "
                f"(trips={breaker.trips}); failing fast",
                retry_in=breaker.time_until_probe(),
            )

    def _timeout(self, deadline: Deadline | None) -> float | None:
        if deadline is None:
            return self.call_timeout
        return deadline.budget(self.call_timeout)

    def _call(self, shard_index: int, method: str, *args):
        """One shard call: breaker admission, timeout, single-retry recovery."""
        self._admit(shard_index)
        future = self._shards[shard_index].submit(method, *args)
        return self._result(shard_index, future, method, args)

    def _fan_out(self, method: str, calls: dict | None = None, *, deadline=None):
        """Call ``method`` on many shards concurrently, under their breakers.

        ``calls`` maps a shard index to the call's arguments (default: every
        shard, no arguments).  Every shard is admitted before anything is
        submitted, so one open breaker fails the whole call fast; results
        come back in ``calls`` order.
        """
        if calls is None:
            calls = dict.fromkeys(range(len(self._shards)), ())
        for index in calls:
            self._admit(index)
        futures = {
            index: self._shards[index].submit(method, *args)
            for index, args in calls.items()
        }
        return [
            self._result(index, future, method, calls[index], deadline=deadline)
            for index, future in futures.items()
        ]

    def _result(
        self,
        shard_index: int,
        future: Future,
        method: str,
        args,
        *,
        deadline: Deadline | None = None,
    ):
        """Resolve one worker future under the shard's failure policy.

        Transport failures — a broken pool, or a timeout (the worker is
        wedged and gets SIGKILLed first) — trigger one rebuild-and-retry;
        the shard's breaker records a failure only when the *retry* also
        fails, so a breaker trip means the shard is unrecoverable right
        now, not merely that one worker died.  When the breaker is open, a
        due probe admitted by :meth:`_admit` runs this exact path — the
        probe *is* a recovery attempt.  Application exceptions raised by
        the scorer pass through untouched and never count.
        """
        breaker = self.breakers[shard_index]
        try:
            result = future.result(timeout=self._timeout(deadline))
        except (BrokenProcessPool, FuturesTimeoutError) as error:
            if isinstance(error, FuturesTimeoutError):
                self._handle_timeout(shard_index, method)
            try:
                self._recover(shard_index)
                if deadline is not None:
                    deadline.check(f"fabric {method} call")
                retry = self._shards[shard_index].submit(method, *args)
                result = retry.result(timeout=self._timeout(deadline))
            except BaseException:
                breaker.record_failure()
                raise
        breaker.record_success()
        return result

    def _handle_timeout(self, shard_index: int, method: str) -> None:
        """Convert a hung worker into the crash path: SIGKILL + account."""
        self._shards[shard_index].kill()
        self.timeouts += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "repro_fabric_call_timeouts_total",
                "Worker calls that exceeded call_timeout (worker killed).",
            ).inc()

    def _recover(self, shard_index: int) -> None:
        """Rebuild a dead worker and replay its session registrations.

        The live segment is verified before a new worker is handed it: a
        damaged one raises :exc:`IntegrityError` here, parent-side, and
        :meth:`_result` records it on the shard's breaker.
        """
        verify_manifest(self._shared.manifest)
        shard = self._shards[shard_index]
        shard.rebuild(self._shared.manifest)
        for session_id in self._session_ids:
            if shard_of(session_id, self.n_workers) == shard_index:
                shard.submit("open", session_id).result(timeout=self.call_timeout)
        self.restarts += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "repro_fabric_worker_restarts_total",
                "Fabric workers rebuilt after an unexpected death.",
            ).inc()

    # -------------------------------------------------------------- serving
    def open_session(self, session_id: str) -> int:
        """Register a session on its shard; returns the shard index."""
        if session_id in self._session_ids:
            raise ValueError(f"session {session_id!r} is already open")
        shard = shard_of(session_id, self.n_workers)
        self._call(shard, "open", session_id)
        self._session_ids[session_id] = None
        return shard

    def close_session(self, session_id: str) -> None:
        """Deregister a session from its shard."""
        if session_id not in self._session_ids:
            raise KeyError(f"no open session {session_id!r}")
        shard = shard_of(session_id, self.n_workers)
        self._call(shard, "close_session", session_id)
        del self._session_ids[session_id]

    def push(self, session_id: str, samples: np.ndarray) -> list[Prediction]:
        """Feed raw samples for one session; returns released predictions."""
        return self.route([(session_id, samples)])

    def route(self, items) -> list[Prediction]:
        """Push many ``(session_id, samples)`` pairs, fanned out per shard.

        Items are grouped by shard and dispatched to every worker
        concurrently — this is the fabric's throughput path.  Within one
        shard, items apply in the order given, so per-session sample order
        is preserved (a session only ever lives on one shard).
        """
        groups: dict[int, list] = defaultdict(list)
        for session_id, samples in items:
            if session_id not in self._session_ids:
                raise KeyError(f"no open session {session_id!r}")
            shard = shard_of(session_id, self.n_workers)
            groups[shard].append((session_id, np.asarray(samples)))
        released = self._fan_out(
            "push_many", {shard: (batch,) for shard, batch in groups.items()}
        )
        return [prediction for predictions in released for prediction in predictions]

    def drain(self, *, deadline: Deadline | None = None) -> list[Prediction]:
        """Force-score every pending window on every shard.

        An optional :class:`~repro.resilience.Deadline` bounds the whole
        drain: each shard's wait gets the remaining budget (capped by
        ``call_timeout``), so one wedged worker cannot stall shutdown past
        the budget — it is killed and recovered like any timed-out call.
        """
        flushed = self._fan_out("drain", deadline=deadline)
        return [prediction for predictions in flushed for prediction in predictions]

    # ------------------------------------------------------------- hot swap
    @property
    def generation(self) -> int:
        """The currently promoted model generation."""
        return self._shared.generation

    def swap(self, engine) -> SwapResult:
        """Blue/green hot swap to a new engine.

        The new model is published as generation ``g+1`` and its segment is
        *verified against the manifest checksums parent-side* — a corrupted
        publication is unlinked and declined (``promoted=False``) before
        any worker is asked to attach it.  Each shard then flushes its
        pending windows on the old engine (those predictions are returned),
        switches, and drops its old mapping; the old segment is unlinked
        only after every shard has acknowledged.
        """
        incoming = publish_engine(engine, generation=self.generation + 1)
        try:
            verify_manifest(incoming.manifest)
        except IntegrityError as error:
            incoming.unlink()
            if OBS.enabled:
                OBS.metrics.counter(
                    "repro_fabric_swaps_rejected_total",
                    "Swap attempts declined because the incoming segment "
                    "failed checksum verification.",
                ).inc()
            return SwapResult(
                promoted=False,
                generation=self.generation,
                reason=f"integrity check failed: {error}",
            )
        flushed: list[Prediction] = []
        try:
            for index in range(len(self._shards)):
                flushed.extend(self._call(index, "swap", incoming.manifest))
        except BaseException:
            incoming.unlink()
            raise
        outgoing, self._shared = self._shared, incoming
        outgoing.unlink()
        if OBS.enabled:
            OBS.metrics.counter(
                "repro_fabric_swaps_total",
                "Model generations promoted across the fabric.",
            ).inc()
        return SwapResult(
            promoted=True,
            generation=self.generation,
            flushed=tuple(flushed),
            reason="promoted",
        )

    # ---------------------------------------------------------- dead letters
    @property
    def dead_letters(self) -> list[DeadLetter]:
        """Every shard's dead-lettered windows, gathered in shard order."""
        gathered = self._fan_out("dead_letters")
        return [letter for letters in gathered for letter in letters]

    def replay_dead_letters(self) -> tuple[int, list[Prediction]]:
        """Replay and flush every shard's dead letters inside its worker."""
        results = self._fan_out("replay_dead_letters")
        return (
            sum(count for count, _ in results),
            [prediction for _, flushed in results for prediction in flushed],
        )

    # ------------------------------------------------------------ inspection
    def worker_info(self) -> list[dict]:
        """Per-shard ``{pid, generation, sessions, uss_bytes}`` snapshots."""
        return self._fan_out("info")

    def worker_pids(self) -> list[int]:
        return [info["pid"] for info in self.worker_info()]

    def stats(self) -> list[dict]:
        """Per-shard scheduler statistics dictionaries."""
        return self._fan_out("stats")

    @property
    def sessions(self) -> tuple[str, ...]:
        """Ids of every open session, across all shards."""
        return tuple(self._session_ids)

    @property
    def model_bytes(self) -> int:
        """Bytes of the one shared model copy all workers score against."""
        return self._shared.nbytes

    # -------------------------------------------------------------- lifecycle
    def shutdown(self) -> None:
        """Stop every worker and destroy the published segment; later calls
        do nothing (a gateway shuts its fabric down, and so may the owner)."""
        if not self._shards:  # a fabric always has a shard until shut down
            return
        for shard in self._shards:
            try:
                shard.shutdown()
            except Exception:  # pragma: no cover - dead worker at shutdown
                pass
        self._shards = []
        self._session_ids = {}
        self._shared.unlink()

    def __enter__(self) -> "ServingFabric":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (
            f"ServingFabric(n_workers={self.n_workers}, "
            f"generation={self.generation}, sessions={len(self._session_ids)}, "
            f"model_bytes={self.model_bytes}, restarts={self.restarts}, "
            f"timeouts={self.timeouts})"
        )
