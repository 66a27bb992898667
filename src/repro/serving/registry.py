"""Versioned on-disk registry for fitted HDC models.

A serving process must never retrain: training happens offline, the fitted
model is published to a :class:`ModelRegistry`, and any number of service
processes load it — exactly.  The registry persists everything a fitted
:class:`~repro.hdc.OnlineHD` or :class:`~repro.core.BoostHD` is made of
(projection bases, phase biases, bandwidths, class hypervectors, learner
importances, hyperparameters) into one ``npz`` archive plus a JSON manifest
per version:

.. code-block:: text

    registry_root/
        <name>/
            v1/
                model.npz     # exact float64 arrays (or fixed-point codes)
                meta.json     # kind, hyperparameters, user metadata
            v2/ ...

Round-trip guarantees, enforced by ``tests/test_serving.py``:

* the default float path stores arrays losslessly, so a loaded model's
  ``decision_function`` / ``predict`` — and the :class:`CompiledModel` built
  from it — are *byte-identical* to the original's;
* with ``quantize="fixed16"`` / ``"fixed8"`` the class hypervectors are
  stored as :mod:`repro.hdc.quantize` fixed-point codes (the wearable
  deployment format, and 4–8x smaller); a plain ``load()`` dequantises
  deterministically, so repeated load→save→load cycles are stable, while
  ``load_compiled(name, precision=...)`` serves the codes through the
  integer-domain engines of :mod:`repro.engine.quant` without ever
  dequantising.

A model name is one directory directly under the registry root: every
entry point refuses (:exc:`RegistryError`) an empty name, one holding a
``/`` or a NUL byte, and one starting with ``.``.  Everything the registry
can store can also be served through :meth:`load_compiled`.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.boosthd import BoostHD
from ..engine.compile import EngineError, ModelComponents, assemble_components
from ..engine.precision import build_engine, resolve_precision
from ..obs import OBS
from ..resilience.chaos import CHAOS
from ..hdc.encoder import NonlinearEncoder
from ..hdc.quantize import SCHEME_BITS, from_fixed_point, quantize_codes
from ..hdc.onlinehd import OnlineHD

__all__ = ["ModelRecord", "ModelRegistry", "RegistryError"]

_VERSION_PATTERN = re.compile(r"^v(\d+)$")

#: Hyperparameters persisted per model kind (constructor arguments that are
#: plain values; encoders are reconstructed from arrays).
_ONLINEHD_PARAMS = (
    "dim", "lr", "epochs", "bootstrap", "batch_size", "bandwidth", "seed"
)
_BOOSTHD_PARAMS = (
    "total_dim",
    "n_learners",
    "lr",
    "epochs",
    "bootstrap",
    "batch_size",
    "aggregation",
    "uniform_blend",
    "bandwidth",
    "shared_projection",
    "learning_rate",
    "seed",
)


class RegistryError(RuntimeError):
    """Raised for unknown models/versions or unsupported model structure."""


#: BLAKE2b digest size (bytes) of the archive checksum in ``meta.json``.
_DIGEST_SIZE = 16


def _fsync_path(path: Path | str) -> None:
    """Flush one file or directory to stable storage.

    Needed on both sides of the publication rename: the archive/manifest
    bytes must be durable *before* the rename (or a crash publishes a
    version whose contents never hit disk), and the parent directory entry
    after it (or the rename itself can be lost).
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass(frozen=True)
class ModelRecord:
    """Manifest of one stored version (the parsed ``meta.json``)."""

    name: str
    version: int
    kind: str
    quantize: str | None
    params: dict
    metadata: dict
    path: Path
    #: BLAKE2b hex digest of ``model.npz``; a manifest without one is refused.
    checksum: str


def _check_name(name) -> None:
    """Refuse a model name that is not one directory under the root."""
    if (
        not isinstance(name, str)
        or not name
        or "/" in name
        or "\x00" in name
        or name.startswith(".")
    ):
        raise RegistryError(f"invalid model name {name!r}")


def _store_hypervectors(
    arrays: dict[str, np.ndarray], prefix: str, hypervectors: np.ndarray, quantize: str | None
) -> None:
    if quantize is None:
        arrays[f"{prefix}hypervectors"] = np.asarray(hypervectors, dtype=np.float64)
        return
    # One quantisation point for the whole stack: the same quantize_codes
    # call the quantized engines compile with, so stored codes are
    # byte-identical to a freshly compiled FixedPointModel's.
    codes, scale = quantize_codes(hypervectors, quantize)
    arrays[f"{prefix}codes"] = codes
    arrays[f"{prefix}scale"] = np.float64(scale)


def _load_hypervectors(archive, prefix: str, quantize: str | None) -> np.ndarray:
    if quantize is None:
        return np.asarray(archive[f"{prefix}hypervectors"], dtype=np.float64)
    return from_fixed_point(archive[f"{prefix}codes"], float(archive[f"{prefix}scale"]))


class ModelRegistry:
    """Filesystem-backed, versioned store of fitted HDC models.

    Parameters
    ----------
    root:
        Directory holding the registry (created on first save).  Multiple
        registries may coexist; a registry is just this directory layout, so
        it can be rsync'd/mounted read-only into service containers.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------- inventory
    def models(self) -> list[str]:
        """Names with at least one stored version, sorted."""
        if not self.root.is_dir():
            return []
        # A hidden directory is never a model: the name rule refuses it.
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir()
            and not entry.name.startswith(".")
            and self.versions(entry.name)
        )

    def versions(self, name: str) -> list[int]:
        """Stored version numbers for ``name``, ascending (empty if none)."""
        _check_name(name)
        directory = self.root / name
        if not directory.is_dir():
            return []
        found = []
        for entry in directory.iterdir():
            match = _VERSION_PATTERN.match(entry.name)
            if match and (entry / "meta.json").is_file():
                found.append(int(match.group(1)))
        return sorted(found)

    def latest(self, name: str) -> int:
        versions = self.versions(name)
        if not versions:
            raise RegistryError(f"no versions of model {name!r} in {self.root}")
        return versions[-1]

    def describe(self, name: str, version: int | None = None) -> ModelRecord:
        """Parse one version's manifest without loading its arrays.

        A manifest without an archive checksum raises :exc:`RegistryError`:
        such an artifact could not be verified at load.  So does one
        written with the retired shared-projection layout (one root
        projection sliced per learner), which no loader reads any more.
        """
        _check_name(name)
        version = self.latest(name) if version is None else int(version)
        path = self.root / name / f"v{version}"
        manifest = path / "meta.json"
        if not manifest.is_file():
            raise RegistryError(f"model {name!r} has no version v{version} in {self.root}")
        meta = json.loads(manifest.read_text())
        if not meta.get("checksum"):
            raise RegistryError(
                f"model {name!r} v{version} has no checksum in its manifest; "
                "refusing an artifact that cannot be verified"
            )
        if meta.get("shared_projection"):
            raise RegistryError(
                f"model {name!r} v{version} uses the retired shared_projection "
                "layout (root_* arrays, per-learner slices); save the fitted "
                "model again to store it in the current layout"
            )
        return ModelRecord(
            name=name,
            version=version,
            kind=meta["kind"],
            quantize=meta.get("quantize"),
            params=meta.get("params", {}),
            metadata=meta.get("metadata", {}),
            path=path,
            checksum=meta["checksum"],
        )

    # ------------------------------------------------------------------ save
    def _serialize_learners(
        self,
        learners: list[OnlineHD],
        arrays: dict[str, np.ndarray],
        quantize: str | None,
    ) -> None:
        """Store every learner's encoder and class hypervectors."""
        for index, learner in enumerate(learners):
            prefix = f"learner_{index}_"
            encoder = learner.encoder
            arrays[f"{prefix}classes"] = learner.classes_
            _store_hypervectors(arrays, prefix, learner.class_hypervectors_, quantize)
            arrays[f"{prefix}basis"] = np.asarray(encoder.basis, dtype=np.float64)
            arrays[f"{prefix}bias"] = np.asarray(encoder.bias, dtype=np.float64)
            arrays[f"{prefix}bandwidth"] = np.float64(encoder.bandwidth)

    def save(
        self,
        name: str,
        model: BoostHD | OnlineHD,
        *,
        metadata: dict | None = None,
        quantize: str | None = None,
    ) -> int:
        """Persist a fitted model as the next version of ``name``.

        Returns the new version number.  ``metadata`` is any JSON-serializable
        mapping (training dataset, accuracy, git revision ...) stored in the
        manifest; ``quantize`` selects the fixed-point hypervector format
        (``None`` keeps exact float64).
        """
        if not OBS.enabled:
            return self._save(name, model, metadata=metadata, quantize=quantize)
        with OBS.recorder.span("registry.save", model=name):
            start = time.perf_counter()
            version = self._save(name, model, metadata=metadata, quantize=quantize)
            seconds = time.perf_counter() - start
        self._record_artifact_io("save", name, version, seconds)
        return version

    def _save(
        self,
        name: str,
        model: BoostHD | OnlineHD,
        *,
        metadata: dict | None = None,
        quantize: str | None = None,
    ) -> int:
        if quantize is not None and quantize not in SCHEME_BITS:
            raise RegistryError(
                f"unknown quantize scheme {quantize!r}; "
                f"available: {sorted(SCHEME_BITS)} or None"
            )
        _check_name(name)
        metadata = dict(metadata or {})
        try:
            json.dumps(metadata)
        except TypeError as error:
            raise RegistryError(f"metadata is not JSON-serializable: {error}") from error

        arrays: dict[str, np.ndarray] = {}
        if isinstance(model, BoostHD):
            if model.learners_ is None:
                raise RegistryError("cannot save an unfitted BoostHD; call fit() first")
            kind = "boosthd"
            params = {key: getattr(model, key) for key in _BOOSTHD_PARAMS}
            arrays["classes"] = model.classes_
            arrays["learner_weights"] = np.asarray(model.learner_weights_, dtype=np.float64)
            arrays["learner_errors"] = np.asarray(model.learner_errors_, dtype=np.float64)
            self._serialize_learners(model.learners_, arrays, quantize)
            params["n_learners"] = len(model.learners_)
            learner_params = [
                {key: getattr(learner, key) for key in _ONLINEHD_PARAMS}
                for learner in model.learners_
            ]
        elif isinstance(model, OnlineHD):
            if model.class_hypervectors_ is None:
                raise RegistryError("cannot save an unfitted OnlineHD; call fit() first")
            kind = "onlinehd"
            params = {key: getattr(model, key) for key in _ONLINEHD_PARAMS}
            arrays["classes"] = model.classes_
            self._serialize_learners([model], arrays, quantize)
            learner_params = None
        else:
            raise RegistryError(
                f"cannot save {type(model).__name__}; expected BoostHD or OnlineHD"
            )

        version = (self.versions(name) or [0])[-1] + 1
        final_dir = self.root / name / f"v{version}"
        staging_dir = self.root / name / f".staging-v{version}"
        staging_dir.mkdir(parents=True, exist_ok=False)
        try:
            archive_path = staging_dir / "model.npz"
            np.savez_compressed(archive_path, **arrays)
            _fsync_path(archive_path)
            manifest = {
                "name": name,
                "version": version,
                "kind": kind,
                "quantize": quantize,
                "params": params,
                "metadata": metadata,
                "checksum": hashlib.blake2b(
                    archive_path.read_bytes(), digest_size=_DIGEST_SIZE
                ).hexdigest(),
            }
            if learner_params is not None:
                manifest["learner_params"] = learner_params
            (staging_dir / "meta.json").write_text(json.dumps(manifest, indent=2))
            # Contents durable before publication, directory entries after:
            # a crash can only ever leave a staging dir (invisible to
            # versions()) or a fully-written version — never a half artifact
            # under a version name.
            _fsync_path(staging_dir / "meta.json")
            _fsync_path(staging_dir)
            if CHAOS.enabled:
                fault = CHAOS.hit("registry.save", model=name, version=version)
                if fault is not None and fault.kind == "torn":
                    # Simulate a torn archive slipping through to publication
                    # (e.g. silent media damage after the checksum was taken):
                    # load-side verification must catch it.
                    with open(archive_path, "r+b") as handle:
                        handle.truncate(archive_path.stat().st_size // 2)
            os.rename(staging_dir, final_dir)
            _fsync_path(self.root / name)
        except BaseException:
            for leftover in staging_dir.glob("*"):
                leftover.unlink()
            if staging_dir.is_dir():
                staging_dir.rmdir()
            raise
        return version

    # ------------------------------------------------------------------ load
    def _open_archive(self, record: ModelRecord):
        """Open one version's ``model.npz``, verified against its checksum.

        Reads the archive bytes once, checks the BLAKE2b digest recorded in
        the manifest (:meth:`describe` refuses a manifest without one), and
        serves ``np.load`` from the in-memory copy — the bytes that passed
        verification are exactly the bytes deserialized, with no window for
        the file to change in between.  A mismatch raises
        :exc:`RegistryError`; a torn or corrupted artifact can never
        silently become a serving model.
        """
        data = (record.path / "model.npz").read_bytes()
        digest = hashlib.blake2b(data, digest_size=_DIGEST_SIZE).hexdigest()
        if digest != record.checksum:
            raise RegistryError(
                f"model {record.name!r} v{record.version} failed checksum "
                f"verification (stored {record.checksum}, computed {digest}); "
                "the archive is torn or corrupted — refusing to load"
            )
        return np.load(io.BytesIO(data))

    def _archive_header(
        self, record: ModelRecord, archive
    ) -> tuple[int, np.ndarray, str, np.ndarray]:
        """Parse an artifact's header arrays, shared by both loaders.

        Returns ``(n_learners, alphas, aggregation, classes)`` — the
        model-level structure both the model loader and the quantized
        engine loader reconstruct, kept in one place so an archive-format
        change cannot make the two paths diverge.
        """
        if record.kind == "onlinehd":
            return 1, np.ones(1), "score", archive["learner_0_classes"]
        if record.kind != "boosthd":
            raise RegistryError(f"unknown model kind {record.kind!r} in manifest")
        params = record.params
        return (
            int(params["n_learners"]),
            np.asarray(archive["learner_weights"], dtype=np.float64),
            str(params["aggregation"]),
            archive["classes"],
        )

    def _deserialize_encoder(self, archive, index: int) -> NonlinearEncoder:
        prefix = f"learner_{index}_"
        return NonlinearEncoder.from_params(
            archive[f"{prefix}basis"],
            archive[f"{prefix}bias"],
            bandwidth=float(archive[f"{prefix}bandwidth"]),
        )

    def _deserialize_learner(
        self,
        archive,
        index: int,
        params: dict,
        quantize: str | None,
    ) -> OnlineHD:
        prefix = f"learner_{index}_"
        encoder = self._deserialize_encoder(archive, index)
        seed = params.get("seed")
        # .get(...) defaults keep pre-batch_size artifacts loadable.
        batch_size = params.get("batch_size")
        learner = OnlineHD(
            lr=float(params.get("lr", 0.035)),
            epochs=int(params.get("epochs", 20)),
            bootstrap=bool(params.get("bootstrap", True)),
            batch_size=None if batch_size is None else int(batch_size),
            encoder=encoder,
            seed=None if seed is None else int(seed),
        )
        learner.classes_ = archive[f"{prefix}classes"]
        learner.class_hypervectors_ = _load_hypervectors(archive, prefix, quantize)
        return learner

    def load(self, name: str, version: int | None = None) -> BoostHD | OnlineHD:
        """Reconstruct a stored model, ready to predict (or ``compile()``).

        The stored model object is rebuilt exactly as saved (fixed-point
        artifacts are dequantized to float64 — the historical behaviour).
        A serving engine built from the stored arrays comes from
        :meth:`load_compiled`.
        """
        if not OBS.enabled:
            return self._load_model_exact(name, version)
        with OBS.recorder.span("registry.load", model=name, form="model"):
            start = time.perf_counter()
            model = self._load_model_exact(name, version)
            seconds = time.perf_counter() - start
        self._record_artifact_io("load", name, version, seconds)
        return model

    def _record_artifact_io(
        self, op: str, name: str, version: int | None, seconds: float
    ) -> None:
        """Account one save/load: op count, duration histogram, artifact bytes."""
        resolved = self.latest(name) if version is None else int(version)
        path = self.root / name / f"v{resolved}"
        nbytes = sum(
            entry.stat().st_size for entry in path.iterdir() if entry.is_file()
        )
        metrics = OBS.metrics
        metrics.counter(
            f"repro_registry_{op}s_total", f"Registry artifact {op} operations."
        ).inc()
        metrics.histogram(
            f"repro_registry_{op}_seconds", f"Registry artifact {op} duration."
        ).observe(seconds)
        metrics.counter(
            f"repro_registry_{op}_bytes_total",
            f"Artifact bytes touched by registry {op} operations.",
        ).inc(nbytes)

    def _load_model_exact(
        self, name: str, version: int | None = None
    ) -> BoostHD | OnlineHD:
        record = self.describe(name, version)
        meta = json.loads((record.path / "meta.json").read_text())
        with self._open_archive(record) as archive:
            n_learners, _, _, _ = self._archive_header(record, archive)
            params = record.params
            if record.kind == "onlinehd":
                return self._deserialize_learner(archive, 0, params, record.quantize)
            learner_params = meta.get("learner_params") or []
            batch_size = params.get("batch_size")
            ensemble = BoostHD(
                total_dim=int(params["total_dim"]),
                n_learners=int(params["n_learners"]),
                lr=float(params["lr"]),
                epochs=int(params["epochs"]),
                bootstrap=bool(params["bootstrap"]),
                batch_size=None if batch_size is None else int(batch_size),
                aggregation=str(params["aggregation"]),
                uniform_blend=float(params["uniform_blend"]),
                bandwidth=float(params["bandwidth"]),
                shared_projection=bool(params.get("shared_projection", False)),
                learning_rate=float(params["learning_rate"]),
                seed=None if params.get("seed") is None else int(params["seed"]),
            )
            ensemble.classes_ = archive["classes"]
            ensemble.learner_weights_ = np.asarray(archive["learner_weights"], dtype=np.float64)
            ensemble.learner_errors_ = np.asarray(archive["learner_errors"], dtype=np.float64)
            ensemble.learners_ = [
                self._deserialize_learner(
                    archive,
                    index,
                    learner_params[index] if index < len(learner_params) else params,
                    record.quantize,
                )
                for index in range(n_learners)
            ]
            return ensemble

    def load_compiled(
        self, name: str, version: int | None = None, *, precision: str = "float64"
    ):
        """Load a stored version straight into a serving engine.

        ``build_engine(components, precision)`` over the artifact's stored
        arrays (see :func:`repro.engine.build_engine` for the stored-code
        reuse rules): a fixed-point artifact serves its integer codes
        without dequantizing them at its own or a wider fixed-point
        precision, and a cascade builds both tiers that way.  A float
        artifact at any precision scores byte-identically to compiling the
        original model.  An unknown precision raises :exc:`RegistryError`.
        """
        try:
            resolve_precision(precision)
        except EngineError as error:
            raise RegistryError(str(error)) from None
        if not OBS.enabled:
            components = self._components(name, version)
            return build_engine(components, precision)
        with OBS.recorder.span("registry.load", model=name, form=precision):
            start = time.perf_counter()
            components = self._components(name, version)
            engine = build_engine(components, precision)
            seconds = time.perf_counter() - start
        self._record_artifact_io("load", name, version, seconds)
        return engine

    def _components(self, name: str, version: int | None) -> ModelComponents:
        """Engine components read straight from a stored version's arrays.

        The encoder arrays are float as always; the class hypervectors stay in
        their stored form — float64 values, or fixed-point codes with their
        scales — for :func:`~repro.engine.build_engine` to reuse.
        """
        record = self.describe(name, version)
        with self._open_archive(record) as archive:
            n_learners, alphas, aggregation, classes = self._archive_header(
                record, archive
            )
            prefixes = [f"learner_{index}_" for index in range(n_learners)]
            if record.quantize is None:
                stored = [
                    np.asarray(archive[f"{prefix}hypervectors"], dtype=np.float64)
                    for prefix in prefixes
                ]
                scales = []
            else:
                stored = [archive[f"{prefix}codes"] for prefix in prefixes]
                scales = [float(archive[f"{prefix}scale"]) for prefix in prefixes]
            return assemble_components(
                [self._deserialize_encoder(archive, index) for index in range(n_learners)],
                [archive[f"{prefix}classes"] for prefix in prefixes],
                stored,
                alphas=alphas,
                aggregation=aggregation,
                classes=classes,
                scheme=record.quantize,
                scales=scales,
            )
