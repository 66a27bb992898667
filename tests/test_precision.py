"""Every entry point accepts and rejects the same precisions and options.

:data:`repro.engine.PRECISIONS` is the one table of precision names; the
entry points that take a precision — ``compile_model``,
``ModelRegistry.load_compiled`` and ``AdaptiveModel`` — must accept exactly
its five names, and refuse anything else (the removed ``"cascade"`` alias,
``"cascade-fixed8"`` and ``"cascade-float64"`` included) with a message
that names exactly the accepted precisions.  Each layer keeps its own error
type (``EngineError``, ``RegistryError``, and the ``ValueError`` adaptive
serving has always raised); the message is shared.  A precision name is all
an entry point takes: every other engine option is an unexpected keyword.
``StreamingService`` takes no precision: it serves the engine it is given,
at any of them, exactly as that engine scores.
"""

import re

import numpy as np
import pytest

from repro.core.boosthd import BoostHD
from repro.engine import (
    PRECISIONS,
    EngineError,
    build_engine,
    compile_model,
    model_components,
)
from repro.serving import (
    AdaptiveModel,
    ModelRegistry,
    RegistryError,
    ServingFabric,
    StreamingService,
    StreamSession,
)
from repro.serving import fabric as fabric_module

ACCEPTED = tuple(PRECISIONS)
REFUSED = ("cascade", "cascade-fixed8", "cascade-float64", "fixed4", "cascade-int4")
N_CHANNELS, WINDOW = 2, 32


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 4 * N_CHANNELS)) + np.repeat(
        np.eye(3, 4 * N_CHANNELS) * 4, 20, axis=0
    )
    y = np.repeat(np.arange(3), 20)
    model = BoostHD(total_dim=240, n_learners=3, epochs=1, seed=0).fit(X, y)
    registry = ModelRegistry(tmp_path_factory.mktemp("precision-registry"))
    registry.save("m", model)
    return model, registry


ENTRY_POINTS = {
    "compile_model": (
        EngineError,
        lambda model, registry, name: compile_model(model, precision=name),
    ),
    "load_compiled": (
        RegistryError,
        lambda model, registry, name: registry.load_compiled("m", precision=name),
    ),
    "AdaptiveModel": (
        ValueError,
        lambda model, registry, name: AdaptiveModel(model, precision=name).compiled,
    ),
}


@pytest.mark.parametrize("name", ACCEPTED + REFUSED)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_accept_and_reject_the_same_precisions(setup, entry, name):
    model, registry = setup
    error_type, build = ENTRY_POINTS[entry]
    if name in ACCEPTED:
        assert build(model, registry, name).precision == name
        return
    with pytest.raises(error_type) as raised:
        build(model, registry, name)
    message = str(raised.value)
    assert message.startswith(f"unknown precision {name!r}; ")
    listed = message.split("accepted serving precisions: ")[1]
    assert re.findall(r"'([^']+)'", listed) == list(ACCEPTED)


@pytest.mark.parametrize("name", ACCEPTED)
def test_streaming_service_serves_each_precision_as_compiled(setup, name):
    model, _ = setup
    engine = compile_model(model, precision=name)
    options = {"n_channels": N_CHANNELS, "window_samples": WINDOW}
    service = StreamingService(engine, max_batch=64, **options)
    assert service.scheduler.scorer is engine
    samples = np.random.default_rng(2).normal(size=(N_CHANNELS, 5 * WINDOW))
    service.open_session("s")
    predictions = service.push("s", samples) + service.drain()
    windows = StreamSession("s", **options).push(samples)
    features = np.stack([window.features for window in windows])
    scores, labels = engine.decision_function(features), engine.predict(features)
    assert sorted(p.window_index for p in predictions) == list(range(5))
    for prediction in predictions:
        np.testing.assert_array_equal(prediction.scores, scores[prediction.window_index])
        assert prediction.label == labels[prediction.window_index]


@pytest.mark.parametrize(
    "precision, options",
    [
        ("fixed16", {"threshold": 0.1}),
        ("cascade", {"bogus": 1}),
        ("fixed16", {"score_threads": 2}),
        ("fixed16", {"chunk_size": 7}),
        ("float64", {"cache_size": 8}),
        ("cascade", {"cache_bytes": 1024}),
    ],
)
def test_stray_options_raise_the_same_engine_error(setup, precision, options):
    """Both engine entry points refuse a stray option alike: Python's
    ``TypeError`` naming it, before the precision is even looked up."""
    model, registry = setup
    option = next(iter(options))
    with pytest.raises(TypeError, match=f"unexpected keyword argument {option!r}"):
        compile_model(model, precision=precision, **options)
    with pytest.raises(TypeError, match=f"unexpected keyword argument {option!r}"):
        registry.load_compiled("m", precision=precision, **options)


def test_removed_options_raise_type_error_before_anything_is_built(setup):
    """``threshold`` left the build path, ``dtype`` every serving entry point
    and ``compile_options`` ``AdaptiveModel``: naming one fails as the call
    binds its arguments, before anything is built."""
    model, registry = setup
    components = model_components(model)
    cascade, stray_dtype = "cascade-fixed16", {"dtype": np.float64}
    calls = [
        ("threshold", lambda: compile_model(model, precision=cascade, threshold=0.1)),
        ("threshold", lambda: build_engine(components, cascade, threshold=0.1)),
        ("dtype", lambda: registry.load_compiled("m", **stray_dtype)),
        ("compile_options", lambda: AdaptiveModel(model, compile_options=stray_dtype)),
    ]
    for option, call in calls:
        with pytest.raises(TypeError, match=f"unexpected keyword argument {option!r}"):
            call()


def test_fabric_from_registry_routes_engine_options_to_the_engine(setup, monkeypatch):
    """The precision is the one engine option ``from_registry`` routes: to
    ``load_compiled`` and to the workers' fallback spec.  ``dtype`` and
    ``threshold`` are unexpected keywords, refused before any segment is
    published or worker started."""
    model, registry = setup
    options = {"n_workers": 1, "n_channels": N_CHANNELS, "window_samples": WINDOW}
    published = []
    publish = fabric_module.publish_engine
    monkeypatch.setattr(
        fabric_module,
        "publish_engine",
        lambda *args, **kwargs: published.append(args) or publish(*args, **kwargs),
    )
    for stray in ({"dtype": np.float64}, {"threshold": 0.1}):
        with pytest.raises(TypeError, match=next(iter(stray))):
            ServingFabric.from_registry(
                registry, "m", precision="fixed16", **stray, **options
            )
    assert published == []
    with ServingFabric.from_registry(
        registry, "m", precision="fixed16", **options
    ) as fabric:
        assert fabric.fallback == {
            "root": str(registry.root),
            "name": "m",
            "version": registry.latest("m"),
            "precision": "fixed16",
        }
        assert fabric._shared.manifest["precision"] == "fixed16"
        assert fabric._shared.manifest["dtype"] == np.dtype(np.float32).str
        fabric.open_session("s")
        samples = np.random.default_rng(1).normal(size=(N_CHANNELS, WINDOW))
        predictions = fabric.push("s", samples) + fabric.drain()
    assert len(predictions) == 1
    assert predictions[0].label in model.classes_
