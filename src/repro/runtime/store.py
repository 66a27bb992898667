"""Content-hashed on-disk artifact store for completed grid cells.

Each completed :class:`~repro.runtime.cells.CellResult` is checkpointed as a
pair of files named by the SHA-256 of the cell's *specification* (dataset
fingerprint, model, run index, seed, scale, split configuration):

* ``<key>.npz`` — the numeric payload (float64/int64 scalars, bit-exact);
* ``<key>.json`` — a manifest holding the full spec, the identity fields and
  the SHA-256 of the npz bytes.

Interrupted suites resume by asking the store for each cell before computing
it; repeated runs with identical specs are pure cache hits.  ``load``
verifies both the payload hash (corruption) and the stored spec (key
collision or stale layout) and returns ``None`` on any mismatch, so a
damaged store degrades to recomputation, never to wrong results.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .cells import CellResult

__all__ = ["ArtifactStore", "canonical_spec", "spec_key"]

#: Bump when the artifact layout changes; old artifacts then miss cleanly.
STORE_VERSION = 2

#: CellResult float fields persisted in the npz payload (None allowed).
_FLOAT_FIELDS = (
    "accuracy",
    "train_seconds",
    "inference_seconds_per_query",
    "engine_seconds_per_query",
    "wall_seconds",
)
_INT_FIELDS = ("run_index", "seed", "worker")


def canonical_spec(spec: Mapping[str, object]) -> str:
    """Canonical JSON encoding of a cell spec (sorted keys, no whitespace)."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"), default=_jsonify)


def _jsonify(value: object) -> object:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, tuple):
        return list(value)
    raise TypeError(f"cell spec value {value!r} is not JSON-serializable")


def spec_key(spec: Mapping[str, object]) -> str:
    """Content hash of a cell spec: the artifact's file-name key."""
    return hashlib.sha256(canonical_spec(spec).encode("utf-8")).hexdigest()


class ArtifactStore:
    """Directory of content-hashed cell artifacts (npz + json manifest)."""

    def __init__(self, root: str | os.PathLike[str]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ---------------------------------------------------------------- paths
    def _npz_path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def _manifest_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # ------------------------------------------------------------- contents
    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def keys(self) -> Iterator[str]:
        for path in sorted(self.root.glob("*.json")):
            yield path.stem

    def __contains__(self, key: str) -> bool:
        return self._manifest_path(key).exists() and self._npz_path(key).exists()

    def clear(self) -> int:
        """Delete every artifact; returns the number of cells removed."""
        removed = 0
        for key in list(self.keys()):
            self._manifest_path(key).unlink(missing_ok=True)
            self._npz_path(key).unlink(missing_ok=True)
            removed += 1
        return removed

    # ----------------------------------------------------------------- save
    def save(self, spec: Mapping[str, object], result: CellResult) -> str:
        """Checkpoint one completed cell under its spec's content hash."""
        key = spec_key(spec)
        arrays: dict[str, np.ndarray] = {}
        for field in _FLOAT_FIELDS:
            value = getattr(result, field)
            if value is not None:
                arrays[field] = np.float64(value)
        for field in _INT_FIELDS:
            arrays[field] = np.int64(getattr(result, field))

        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        payload = buffer.getvalue()
        manifest = {
            "store_version": STORE_VERSION,
            "spec": dict(spec),
            "dataset": result.dataset,
            "model": result.model,
            "run_index": result.run_index,
            "content_hash": hashlib.sha256(payload).hexdigest(),
        }
        # Write npz first, manifest last and atomically: a manifest is the
        # commit record, so a crash mid-save leaves a miss, not a torn hit.
        self._npz_path(key).write_bytes(payload)
        temp = self._manifest_path(key).with_suffix(".json.tmp")
        temp.write_text(canonical_spec(manifest))
        os.replace(temp, self._manifest_path(key))
        return key

    # ----------------------------------------------------------------- load
    def load(self, spec: Mapping[str, object]) -> CellResult | None:
        """Replay the cell checkpointed for ``spec``, or ``None`` on a miss.

        Verifies the npz content hash against the manifest and the manifest's
        stored spec against the requested one, so corrupted files and hash
        collisions both read as misses.
        """
        key = spec_key(spec)
        manifest_path = self._manifest_path(key)
        npz_path = self._npz_path(key)
        if not manifest_path.exists() or not npz_path.exists():
            return None
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(manifest, dict):
            return None
        if manifest.get("store_version") != STORE_VERSION:
            return None
        if canonical_spec(manifest.get("spec", {})) != canonical_spec(spec):
            return None  # same key, different spec: treat a collision as a miss
        payload = npz_path.read_bytes()
        if hashlib.sha256(payload).hexdigest() != manifest.get("content_hash"):
            return None
        with np.load(io.BytesIO(payload)) as data:
            values = {name: data[name][()] for name in data.files}
        floats = {
            field: (float(values[field]) if field in values else None)
            for field in _FLOAT_FIELDS
        }
        return CellResult(
            dataset=str(manifest["dataset"]),
            model=str(manifest["model"]),
            run_index=int(values["run_index"]),
            seed=int(values["seed"]),
            accuracy=floats["accuracy"],
            train_seconds=floats["train_seconds"],
            inference_seconds_per_query=floats["inference_seconds_per_query"],
            engine_seconds_per_query=floats["engine_seconds_per_query"],
            wall_seconds=floats["wall_seconds"],
            worker=int(values["worker"]),
            cached=True,
        )
