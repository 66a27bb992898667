"""Zero-copy model distribution over POSIX shared memory.

The serving fabric (:mod:`repro.serving.fabric`) runs one scoring engine per
worker process.  Engines are mostly *read-only array bundles* — the fused
projection (the phase bias is its last row), the bias's sine and the
learner-stacked class arrays — so instead of pickling a model into every
worker (N full copies), a single writer lays every array of a compiled
engine into one named :class:`multiprocessing.shared_memory.SharedMemory`
segment and hands the workers a small picklable *manifest* describing the
layout (the learner ``spans`` and ``alphas`` ride in it).  Each worker
attaches the segment
and passes the views straight to the constructor its precision names in
:data:`repro.engine.PRECISIONS`: the class arrays are exactly the ones the
engine scores from (its ``STACK``), so every large array is an ndarray
*view* into the shared mapping and N workers cost one copy of the model
plus kilobytes of per-worker bookkeeping.  The packed/fixed engines (~62x
smaller class payloads than float64) make the segments small enough to
hot-swap freely.

Segment lifecycle
-----------------
* :func:`publish_engine` creates a segment named
  ``repro_fabric_{pid}.{start_token}_{token}_g{generation}`` and returns a
  :class:`SharedModel` (the writer-side handle).  The *publisher* owns the
  segment: workers only ever attach and ``close()``; the publisher calls
  :meth:`SharedModel.unlink` when the generation is retired (blue/green
  swap) or the fabric shuts down.
* :func:`attach_engine` maps an existing segment read-only, verifies every
  array against the per-array BLAKE2b digests recorded in the manifest
  (refusing a corrupted segment with :exc:`IntegrityError` — a flipped bit
  must never silently skew predictions), and returns an
  :class:`AttachedEngine` whose ``.engine`` scores directly over the shared
  buffers.  The handle keeps the mapping alive — drop all engine references
  before :meth:`AttachedEngine.close`.
* :func:`cleanup_orphan_segments` reclaims segments whose publishing process
  died without unlinking.  The name embeds both the publisher pid *and* its
  ``/proc`` start token, so a recycled pid (a new unrelated process that
  happens to reuse a dead publisher's number) cannot keep a corpse segment
  alive — the token distinguishes the two incarnations.

Attach-side handles deregister from the stdlib ``resource_tracker`` —
otherwise every worker's tracker would try to unlink the segment at exit,
destroying it while siblings still serve from it.
"""

from __future__ import annotations

import hashlib
import os
import secrets
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..engine.compile import CompiledModel, EngineError
from ..engine.precision import PRECISIONS, Precision
from ..resilience.chaos import CHAOS, corrupt_bytes

__all__ = [
    "AttachedEngine",
    "IntegrityError",
    "SEGMENT_PREFIX",
    "SharedModel",
    "attach_engine",
    "cleanup_orphan_segments",
    "publish_engine",
    "verify_manifest",
]

#: Prefix of every fabric shared-memory segment; orphan cleanup scans for it.
SEGMENT_PREFIX = "repro_fabric_"

#: Byte alignment of each array inside a segment.  64 covers every dtype the
#: engines use (the uint64 sign words need 8) and keeps rows cache-friendly.
_ALIGN = 64

_SHM_DIR = "/dev/shm"

#: BLAKE2b digest size (bytes) of the per-array checksums in a manifest.
_DIGEST_SIZE = 16


class IntegrityError(EngineError):
    """A shared segment's contents do not match the manifest checksums."""


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Stop the resource tracker from unlinking an *attached* segment.

    CPython registers attach-side handles with the shared-memory resource
    tracker (bpo-39959); at worker exit the tracker would unlink segments
    the publisher still owns.  Publisher-side handles stay registered so a
    crashed publisher's tracker still reclaims them.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary by version
        pass


def _process_start_token(pid: int) -> str:
    """The kernel start time of ``pid`` — a pid-incarnation fingerprint.

    Field 22 of ``/proc/<pid>/stat`` (``starttime``, clock ticks since boot)
    is fixed for the life of a process and differs between two processes
    that recycle the same pid.  Returns ``""`` where procfs is unavailable
    (cleanup then falls back to the liveness check alone).
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read().decode("ascii", "replace")
    except OSError:
        return ""
    # comm may contain spaces/parens; everything after the closing paren is
    # whitespace-separated, with starttime at index 19 of those fields.
    fields = stat.rpartition(")")[2].split()
    if len(fields) <= 19:  # pragma: no cover - malformed stat line
        return ""
    return fields[19]


def _segment_name(generation: int) -> str:
    pid = os.getpid()
    token = _process_start_token(pid)
    head = f"{pid}.{token}" if token else f"{pid}"
    return f"{SEGMENT_PREFIX}{head}_{secrets.token_hex(4)}_g{int(generation)}"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    return True


def _layout(engine) -> Precision:
    """The :data:`~repro.engine.PRECISIONS` row of a publishable engine."""
    spec = PRECISIONS.get(getattr(engine, "precision", None))
    if spec is None or spec.make is None or not isinstance(engine, spec.engine):
        publishable = [name for name, row in PRECISIONS.items() if row.make]
        raise EngineError(
            f"cannot publish {type(engine).__name__} to shared memory; "
            f"publishable precisions: {publishable} (publish cascade tiers "
            f"individually)"
        )
    return spec


# ------------------------------------------------------------------ publish
@dataclass
class SharedModel:
    """Writer-side handle of a published model segment.

    Holds the manifest workers attach with, and owns the segment: call
    :meth:`unlink` when the generation is retired (later calls do nothing).
    """

    manifest: dict
    _shm: shared_memory.SharedMemory = field(repr=False)
    _unlinked: bool = field(default=False, init=False, repr=False)

    @property
    def name(self) -> str:
        return self.manifest["segment"]

    @property
    def generation(self) -> int:
        return self.manifest["generation"]

    @property
    def nbytes(self) -> int:
        """Bytes of model payload laid into the segment (excluding padding)."""
        return self.manifest["payload_bytes"]

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment.  Attached workers keep their mappings until
        they close, but no new attach can succeed afterwards.  Idempotent: a
        second call would re-register a segment that no longer exists with
        the resource tracker, which then warns of a leak at exit."""
        if self._unlinked:
            return
        self._unlinked = True
        self._shm.close()
        try:
            # Forked workers share the publisher's resource tracker, so an
            # attach-side ``_untrack`` may have dropped this segment's entry;
            # re-register so the unregister inside ``unlink()`` always pairs
            # (re-registration is a set update — a no-op when still present).
            resource_tracker.register(self._shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass

    def __repr__(self) -> str:
        return (
            f"SharedModel(name={self.name!r}, generation={self.generation}, "
            f"precision={self.manifest['precision']!r}, nbytes={self.nbytes})"
        )


def publish_engine(engine: CompiledModel, *, generation: int = 0) -> SharedModel:
    """Lay a compiled engine's arrays into one named shared-memory segment.

    Copies every model array — the fused projection ``_basis2`` (whose
    last row is the phase bias), the bias's sine ``_sin_bias``, and the
    engine's learner-stacked class arrays (its ``STACK``: float
    ``weights``, sign ``words``, or fixed-point ``codes`` with their
    ``inv_norms``) — into a fresh segment, exactly once.  Returns the
    :class:`SharedModel` whose picklable ``manifest`` (which also carries
    the learner ``spans`` and ``alphas``) lets any process rebuild the
    engine over the shared buffers via :func:`attach_engine`.
    """
    _layout(engine)
    arrays = [
        ("basis2", engine._basis2),
        ("sin_bias", engine._sin_bias),
        *((name, getattr(engine, name)) for name in engine.STACK),
    ]

    specs: dict[str, dict] = {}
    offset = 0
    payload = 0
    for key, array in arrays:
        array = np.ascontiguousarray(array)
        offset = -(-offset // _ALIGN) * _ALIGN
        specs[key] = {
            "dtype": array.dtype.str,
            "shape": tuple(int(s) for s in array.shape),
            "offset": offset,
        }
        offset += array.nbytes
        payload += array.nbytes

    segment = _segment_name(generation)
    shm = shared_memory.SharedMemory(name=segment, create=True, size=max(offset, 1))
    try:
        for key, array in arrays:
            spec = specs[key]
            contiguous = np.ascontiguousarray(array)
            view = np.ndarray(
                spec["shape"],
                dtype=np.dtype(spec["dtype"]),
                buffer=shm.buf,
                offset=spec["offset"],
            )
            view[...] = contiguous
            # Checksum the source bytes, not the segment: if anything damages
            # the segment between write and attach, verification must notice.
            spec["blake2b"] = hashlib.blake2b(
                contiguous, digest_size=_DIGEST_SIZE
            ).hexdigest()
            del view
        if CHAOS.enabled:
            fault = CHAOS.hit(
                "shm.publish", segment=segment, precision=engine.precision
            )
            if fault is not None and fault.kind == "corrupt":
                corrupt_bytes(shm.buf, CHAOS.spec_rng(fault))
    except BaseException:
        shm.close()
        shm.unlink()
        raise

    publisher_pid = os.getpid()
    manifest = {
        "segment": segment,
        "generation": int(generation),
        "publisher_pid": publisher_pid,
        "publisher_token": _process_start_token(publisher_pid),
        "precision": engine.precision,
        "dtype": engine.dtype.str,
        "aggregation": engine.aggregation,
        "classes": np.asarray(engine.classes_),
        "spans": np.asarray(engine.spans),
        "alphas": np.asarray(engine.alphas),
        "arrays": specs,
        "payload_bytes": payload,
    }
    return SharedModel(manifest=manifest, _shm=shm)


# ---------------------------------------------------------------- integrity
def _verify_arrays(manifest: dict, buf) -> None:
    """Check every manifest array's bytes against its recorded digest.

    Raises :exc:`IntegrityError` naming the damaged arrays, or an array
    that has no digest: :func:`publish_engine` records one for every
    array, so a missing digest means the manifest itself is damaged.
    """
    damaged = []
    for key, spec in manifest["arrays"].items():
        expected = spec.get("blake2b")
        if expected is None:
            raise IntegrityError(
                f"segment {manifest['segment']!r} manifest has no checksum for "
                f"array {key!r} — refusing to serve it unverified"
            )
        nbytes = int(np.dtype(spec["dtype"]).itemsize * np.prod(spec["shape"] or (1,)))
        start = spec["offset"]
        # Hash the segment in place: a bytes() copy would put every array
        # into each attaching worker's private memory.
        digest = hashlib.blake2b(
            buf[start : start + nbytes], digest_size=_DIGEST_SIZE
        ).hexdigest()
        if digest != expected:
            damaged.append(key)
    if damaged:
        raise IntegrityError(
            f"segment {manifest['segment']!r} failed checksum verification; "
            f"damaged arrays: {', '.join(sorted(damaged))} — refusing to "
            "serve from a corrupted model"
        )


def verify_manifest(manifest: dict) -> None:
    """Attach a published segment just long enough to verify its checksums.

    The parent-side guard of the fabric's blue/green swap: a corrupted
    incoming generation is rejected *before* any worker is asked to attach
    it.  Raises :exc:`IntegrityError` on damage, ``FileNotFoundError`` if
    the segment is gone.
    """
    shm = shared_memory.SharedMemory(name=manifest["segment"], create=False)
    _untrack(shm)
    try:
        _verify_arrays(manifest, shm.buf)
    finally:
        shm.close()


# ------------------------------------------------------------------- attach
class AttachedEngine:
    """A scoring engine built as views over an attached shared segment.

    Keeps the :class:`~multiprocessing.shared_memory.SharedMemory` mapping
    alive for as long as ``engine`` exists; every large array of ``engine``
    aliases the shared buffer (read-only), so the attach costs no model
    copy.  Call :meth:`close` only after dropping every reference to
    ``engine`` and to predictions' borrowed arrays.

    The mapping's bytes are checked against the manifest's per-array
    BLAKE2b digests before the engine is built; a mismatch raises
    :exc:`IntegrityError` and nothing attaches.
    """

    def __init__(self, manifest: dict) -> None:
        self.manifest = manifest
        self.generation = int(manifest["generation"])
        self.segment = manifest["segment"]
        self._shm = shared_memory.SharedMemory(name=self.segment, create=False)
        _untrack(self._shm)
        try:
            _verify_arrays(manifest, self._shm.buf)
            self.engine = self._build()
        except BaseException:
            self._shm.close()
            raise

    def _view(self, key: str) -> np.ndarray:
        spec = self.manifest["arrays"][key]
        view = np.ndarray(
            spec["shape"],
            dtype=np.dtype(spec["dtype"]),
            buffer=self._shm.buf,
            offset=spec["offset"],
        )
        view.flags.writeable = False
        return view

    def _build(self) -> CompiledModel:
        manifest = self.manifest
        spec = PRECISIONS[manifest["precision"]]
        return spec.make(
            **{key: self._view(key) for key in manifest["arrays"]},
            spans=manifest["spans"],
            alphas=manifest["alphas"],
            classes=manifest["classes"],
            aggregation=manifest["aggregation"],
            dtype=np.dtype(manifest["dtype"]),
        )

    def close(self) -> None:
        """Drop the engine and this process's mapping of the segment."""
        self.engine = None
        self._shm.close()

    def __repr__(self) -> str:
        return (
            f"AttachedEngine(segment={self.segment!r}, "
            f"generation={self.generation}, "
            f"precision={self.manifest['precision']!r})"
        )


def attach_engine(manifest: dict) -> AttachedEngine:
    """Attach a published segment and rebuild its engine over shared buffers.

    Verifies the segment against the manifest checksums first (see
    :class:`AttachedEngine`).
    """
    return AttachedEngine(manifest)


# ------------------------------------------------------------------ cleanup
def cleanup_orphan_segments() -> list[str]:
    """Unlink fabric segments whose publishing process is gone.

    Scans the POSIX shm filesystem for ``{SEGMENT_PREFIX}{pid}.{token}_...``
    names (and the older ``{SEGMENT_PREFIX}{pid}_...`` form), checks whether
    the embedded publisher pid is still alive — *and*, when a start token is
    present, whether the live process is the same incarnation that
    published the segment.  A recycled pid (new process, same number)
    therefore cannot shield a dead publisher's segment from reclamation,
    and conversely a live publisher can never lose a segment to cleanup:
    its token matches.
    Every fabric runs it at startup, so a crashed predecessor cannot leak
    /dev/shm space indefinitely.  Returns the reclaimed names; returns ``[]``
    (touching nothing) where the shm filesystem is absent.
    """
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return []
    reclaimed = []
    for entry in names:
        if not entry.startswith(SEGMENT_PREFIX):
            continue
        suffix = entry[len(SEGMENT_PREFIX) :]
        pid_text, _, token = suffix.split("_", 1)[0].partition(".")
        if not pid_text.isdigit():
            continue
        pid = int(pid_text)
        if _pid_alive(pid) and (not token or _process_start_token(pid) == token):
            continue
        try:
            os.unlink(os.path.join(_SHM_DIR, entry))
        except OSError:  # pragma: no cover - raced with another cleaner
            continue
        reclaimed.append(entry)
    return reclaimed
