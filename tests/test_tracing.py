"""The benchmark's tracer names only functions the package calls.

``bench/tracing.py`` times each layer by wrapping module attributes by name;
a name the package no longer calls through would read 0 in every traced
run. This runs a small session under the tracer and requires a span for
every name ``install()`` wraps.
"""

import importlib.util
from pathlib import Path

from ncal import scene, training
from ncal.nn import checkpoint
from ncal.nn.model import PtModel, PtModelConfig
from ncal.scene import PerturbationSpec, SceneConfig

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("ncal_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_recorded(tmp_path, monkeypatch):
    tracing = load_tracing()
    wrapped = []
    wrap = tracing._wrap

    def recording_wrap(tracer, name, fn, on_result=None):
        wrapped.append(name)
        return wrap(tracer, name, fn, on_result)

    monkeypatch.setattr(tracing, "_wrap", recording_wrap)
    rig, oem = scene.make_rig("T-4")
    sc = SceneConfig(rig, oem, scene.make_object("cube8"),
                     perturbation=PerturbationSpec(0.05, 0.05))
    cfg = PtModelConfig(sc.n_cameras, sc.n_fiducials, d_model=16, n_layers=1, n_heads=2,
                        d_ff=32)
    model = PtModel(cfg, scene.reference_params(rig, oem, sc.radius), rig.image_size,
                    sc.radius, seed=1)
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
