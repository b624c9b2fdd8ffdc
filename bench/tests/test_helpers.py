"""Tests of the benchmark's own helpers: python -m pytest bench/tests"""

import numpy as np
import pytest

import stats
import tracing


class TestTailPercentile:
    @pytest.mark.parametrize("n, expected", [
        (10_000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
        (40, 75.0), (20, 50.0), (19, None), (0, None),
    ])
    def test_highest_with_ten_beyond(self, n, expected):
        assert stats.tail_percentile(n) == expected

    @pytest.mark.parametrize("n", [20, 199, 999, 1000, 4321])
    def test_ten_samples_lie_beyond_the_reported_value(self, n):
        samples = np.random.default_rng(n).permutation(n).astype(float)
        value = stats.percentile(samples, stats.tail_percentile(n))
        assert int((samples > value).sum()) >= 10

    def test_nearest_rank(self):
        xs = list(range(1, 101))
        assert stats.percentile(xs, 50) == 50
        assert stats.percentile(xs, 99) == 99
        assert stats.percentile(xs, 100) == 100
        assert stats.percentile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            stats.percentile([], 50)


def span(name, start, end, parent):
    return [name, start, end, parent, None]


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            span("epoch", 0.0, 10.0, -1),
            span("forward", 1.0, 4.0, 0),
            span("linear", 1.5, 2.0, 1),
            span("linear", 2.5, 3.5, 1),
            span("backward", 5.0, 9.0, 0),
        ]
        assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 0.5, 1.0, 4.0])

    def test_overlapping_children_are_counted_once(self):
        spans = [span("p", 0.0, 10.0, -1), span("a", 1.0, 5.0, 0), span("b", 3.0, 6.0, 0)]
        assert tracing.self_times(spans)[0] == pytest.approx(5.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("p", 2.0, 4.0, -1), span("a", 1.0, 3.0, 0)]
        assert tracing.self_times(spans)[0] == pytest.approx(1.0)

    def test_keep_selects_children(self):
        spans = [span("forward", 0.0, 10.0, -1), span("model.encode", 1.0, 7.0, 0),
                 span("functional.linear", 8.0, 9.0, 0)]
        heads = tracing.self_times(spans, keep={"model.encode"}.__contains__)
        assert heads[0] == pytest.approx(4.0)

    def test_tracer_records_parents_and_groups(self):
        tr = tracing.Tracer()
        tr.group = 7
        outer = tr.open("outer")
        inner = tr.open("inner")
        tr.close(inner)
        tr.close(outer)
        assert [s[tracing.PARENT] for s in tr.spans] == [-1, 0]
        assert [s[tracing.GROUP] for s in tr.spans] == [7, 7]
        own = tracing.self_times(tr.spans)
        assert own[0] <= tr.spans[0][tracing.END] - tr.spans[0][tracing.START]

    def test_summarize_uses_only_the_window(self):
        tr = tracing.Tracer()
        tr.close(tr.open("x"))
        tr.window = True
        tr.close(tr.open("x"))
        assert tracing.summarize(tr)["x"]["calls"] == 1


class TestNames:
    @pytest.mark.parametrize("name", [
        "setup_s", "train.epoch_s", "recal.p99_ms", "model.weight_GBps", "9lives", "a-b.c_d",
    ])
    def test_valid(self, name):
        assert stats.valid_name(name)

    @pytest.mark.parametrize("name", [
        "", "_lead", ".lead", "has space", "slash/name", "ünïcode", "x" * 65, "tab\t",
    ])
    def test_invalid(self, name):
        assert not stats.valid_name(name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "GB/s"):
            assert stats.valid_unit(unit)
        assert not stats.valid_unit("milliseconds-per-op")
        assert not stats.valid_unit("m s")


class TestWrappers:
    def _lookups(self):
        from ncal import geometry, training
        from ncal.nn import autodiff, checkpoint, functional
        from ncal.nn.model import PtModel

        return {
            "train.synth": (training, "synthesize_batch"),
            "geometry.project": (geometry, "project_array"),
            "functional.linear": (functional, "linear"),
            "model.forward": (PtModel, "forward"),
            "tensor.backward": (autodiff.Tensor, "backward"),
            "ckpt.save": (checkpoint, "save_checkpoint"),
        }

    def test_install_then_remove_restores_originals(self):
        lookups = self._lookups()
        before = {k: vars(owner)[attr] for k, (owner, attr) in lookups.items()}
        tr = tracing.Tracer()
        installed = tracing.install(tr)
        try:
            for k, (owner, attr) in lookups.items():
                assert vars(owner)[attr] is not before[k], k
        finally:
            installed.remove()
        for k, (owner, attr) in lookups.items():
            assert vars(owner)[attr] is before[k], k

    def test_wrapped_call_records_a_span_and_returns_the_result(self):
        from ncal import geometry

        params = np.zeros(21)
        params[[0, 4, 8]] = 1.0
        params[11] = 2.0
        params[12:16] = [100.0, 100.0, 50.0, 50.0]
        pts = np.array([[0.1, 0.2, 0.0]])
        expected = geometry.project_array(params, pts)[0]
        tr = tracing.Tracer()
        installed = tracing.install(tr)
        try:
            got = geometry.project_array(params, pts)[0]
        finally:
            installed.remove()
        np.testing.assert_array_equal(got, expected)
        assert [s[tracing.NAME] for s in tr.spans] == ["geometry.project_array"]

    def test_inherited_attribute_is_removed_again(self):
        class Base:
            def f(self):
                return 1

        class Child(Base):
            pass

        installed = tracing.Installed()
        installed.wrap(tracing.Tracer(), Child, "f", "child.f")
        assert "f" in vars(Child) and Child().f() == 1
        installed.remove()
        assert "f" not in vars(Child) and Child.f is Base.f

    def test_span_closes_when_the_call_raises(self):
        class Boom:
            @staticmethod
            def f():
                raise KeyError("x")

        tr = tracing.Tracer()
        installed = tracing.Installed()
        installed.wrap(tr, Boom, "f", "boom")
        try:
            with pytest.raises(KeyError):
                Boom.f()
        finally:
            installed.remove()
        assert tr.spans[0][tracing.END] is not None and not tr._stack
