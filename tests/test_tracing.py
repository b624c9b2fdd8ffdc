"""The benchmark's tracer names only functions the package calls.

``bench/tracing.py`` times each layer by wrapping module attributes by name;
a name the package no longer calls through would read 0 in every traced
run. This runs a small session under the tracer and requires a span for
every name ``install()`` wraps, and exactly one ``autodiff.backward`` span
per training epoch, none inside another, so the backward figure counts each
pullback once. Inference runs the same model-level stages, so a traced
``predict`` records them too.
"""

import importlib.util
from pathlib import Path

from ncal import scene, training
from ncal.nn import checkpoint, optim
from ncal.nn import model as model_module
from ncal.nn.model import PtModel, PtModelConfig
from ncal.scene import PerturbationSpec, SceneConfig

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("ncal_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_setup():
    """A T-4/cube8 scene at kappa 0.05 and a d_model 16 model on it."""
    rig, oem = scene.make_rig("T-4")
    sc = SceneConfig(rig, oem, scene.make_object("cube8"),
                     perturbation=PerturbationSpec(0.05, 0.05))
    cfg = PtModelConfig(sc.n_cameras, sc.n_fiducials, d_model=16, n_layers=1, n_heads=2,
                        d_ff=32)
    model = PtModel(cfg, scene.reference_params(rig, oem, sc.radius), rig.image_size,
                    sc.radius, seed=1)
    return sc, model


def test_every_wrapped_name_is_recorded(tmp_path, monkeypatch):
    tracing = load_tracing()
    wrapped = []
    wrap = tracing._wrap

    def recording_wrap(tracer, name, fn, on_result=None):
        wrapped.append(name)
        return wrap(tracer, name, fn, on_result)

    monkeypatch.setattr(tracing, "_wrap", recording_wrap)
    sc, model = tiny_setup()
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        result = training.train(model, sc, training.TrainConfig(epochs=2, phase1_epochs=1,
                                                                batch_size=4, seed=1))
        training.evaluate(model, sc, n_samples=4, trials=2, seed=2)
        threshold = training.calibrate_detection_threshold(model, sc, n_samples=4, seed=3)
        capture = scene.synthesize_batch(sc, 1, 4).observations[0]
        model.predict(capture)
        training.detect_decalibration(model, capture, model.reference_params, threshold)
        path = tmp_path / "model.ckpt"
        checkpoint.save_checkpoint(path, model, result.optimizer)
        checkpoint.load_checkpoint(path)
    finally:
        installed.remove()
    assert [r["loss_reproj"] is None for r in result.records] == [True, False]
    assert len(wrapped) == len(set(wrapped)) > 0
    recorded = {s[tracing.NAME] for s in tracer.spans}
    assert sorted(set(wrapped) - recorded) == []
    backward = [i for i, s in enumerate(tracer.spans) if s[tracing.NAME] == "autodiff.backward"]
    assert len(backward) == len(result.records)
    for i in backward:
        parent = tracer.spans[i][tracing.PARENT]
        while parent >= 0:
            assert tracer.spans[parent][tracing.NAME] != "autodiff.backward"
            parent = tracer.spans[parent][tracing.PARENT]


def test_split_step_closes_every_span_in_order(split_calls, monkeypatch):
    # With the pullback and the Adam update on both cores, the worker thread
    # calls no wrapped name: a span it opened would share the calling
    # thread's one stack and close out of order.
    tracing = load_tracing()
    monkeypatch.setattr(model_module, "_SPLIT_MIN_VALUES", 0)
    monkeypatch.setattr(optim, "_SPLIT_MIN_VALUES", 0)
    sc, model = tiny_setup()
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        result = training.train(model, sc, training.TrainConfig(epochs=2, phase1_epochs=1,
                                                                batch_size=6, seed=1))
    finally:
        installed.remove()
    # Per epoch: the heads, one block and the embedding, then Adam.
    assert len(split_calls) == 2 * 4
    assert tracer._stack == []
    spans = tracer.spans
    START, END, PARENT = tracing.START, tracing.END, tracing.PARENT
    for s in spans:
        assert s[END] is not None and s[START] <= s[END]
        if s[PARENT] >= 0:
            assert spans[s[PARENT]][START] <= s[START] <= s[END] <= spans[s[PARENT]][END]
    backward = [s for s in spans if s[tracing.NAME] == "autodiff.backward"]
    assert len(backward) == len(result.records) == 2


def test_predict_records_embed_and_encode_per_chunk(monkeypatch):
    # Inference runs forward's stages through PtModel.embed and
    # PtModel.encode, so a traced predict is visible at model level: one
    # span of each per PREDICT_CHUNK captures, for one capture and a batch.
    tracing = load_tracing()
    monkeypatch.setattr(model_module, "PREDICT_CHUNK", 2)
    sc, model = tiny_setup()
    observations = scene.synthesize_batch(sc, 5, 1).observations
    for X, chunks in ((observations[0], 1), (observations, 3)):
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
        try:
            model.predict(X)
        finally:
            installed.remove()
        names = [s[tracing.NAME] for s in tracer.spans]
        assert names.count("model.embed") == names.count("model.encode") == chunks
