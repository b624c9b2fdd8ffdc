"""Finite-difference verification of every primitive of the tape oracle
(tests/tape.py), and the mechanics of the package's gradient walker."""

import numpy as np
import pytest

import tape
from ncal.errors import GraphCycle, ShapeMismatch


def numeric_grad(fn, x, h=1e-6):
    """Central-difference gradient of scalar fn at x (elementwise)."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn(x)
        flat[i] = orig - h
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * h)
    return g


def check_unary(op, x, h=1e-6, rtol=1e-6):
    t = tape.parameter(x)
    out = op(t)
    loss = (out * out).sum()
    loss.backward()
    num = numeric_grad(lambda a: float((op(tape.constant(a)).data ** 2).sum()), x.copy(), h)
    np.testing.assert_allclose(t.grad, num, rtol=rtol, atol=1e-7)


def check_binary(op, x, y, rtol=1e-6):
    tx, ty = tape.parameter(x), tape.parameter(y)
    (op(tx, ty) ** 2).sum().backward()
    nx = numeric_grad(lambda a: float((op(tape.constant(a), tape.constant(y)).data ** 2).sum()), x.copy())
    ny = numeric_grad(lambda b: float((op(tape.constant(x), tape.constant(b)).data ** 2).sum()), y.copy())
    np.testing.assert_allclose(tx.grad, nx, rtol=rtol, atol=1e-7)
    np.testing.assert_allclose(ty.grad, ny, rtol=rtol, atol=1e-7)


class TestPrimitiveGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_add(self):
        check_binary(lambda a, b: a + b, self.rng.normal(size=(3, 4)), self.rng.normal(size=(3, 4)))

    def test_add_broadcast(self):
        check_binary(lambda a, b: a + b, self.rng.normal(size=(3, 4)), self.rng.normal(size=(4,)))

    def test_sub(self):
        check_binary(lambda a, b: a - b, self.rng.normal(size=(2, 5)), self.rng.normal(size=(2, 5)))

    def test_mul_broadcast(self):
        check_binary(lambda a, b: a * b, self.rng.normal(size=(2, 3, 4)), self.rng.normal(size=(1, 4)))

    def test_div(self):
        y = self.rng.uniform(0.5, 2.0, size=(3, 3))
        check_binary(lambda a, b: a / b, self.rng.normal(size=(3, 3)), y)

    def test_pow(self):
        check_unary(lambda a: a ** 3, self.rng.uniform(0.5, 2.0, size=(4,)))
        check_unary(lambda a: a ** 0.5, self.rng.uniform(0.5, 2.0, size=(4,)))

    def test_relu_away_from_kink(self):
        x = self.rng.normal(size=(10,))
        x[np.abs(x) < 0.1] = 0.5  # keep clear of the non-differentiable point
        check_unary(tape.relu, x)

    def test_acos_interior(self):
        check_unary(tape.acos, self.rng.uniform(-0.9, 0.9, size=(6,)))

    def test_acos_clamps_forward(self):
        t = tape.constant([1.0 + 1e-12, -1.0 - 1e-12])
        out = tape.acos(t)
        np.testing.assert_allclose(out.data, [0.0, np.pi])

    def test_acos_gradient_finite_at_boundary(self):
        t = tape.parameter([1.0])
        tape.acos(t).sum().backward()
        assert np.isfinite(t.grad).all()

    def test_acos_gradient_zero_at_and_past_clamp(self):
        t = tape.parameter([1.0, -1.0, 1.0 + 1e-12, -1.0 - 1e-12, 0.5])
        tape.acos(t).sum().backward()
        np.testing.assert_array_equal(t.grad[:4], 0.0)
        assert t.grad[4] == pytest.approx(-1.0 / np.sqrt(0.75))

    def test_zero_subgradient_at_zero_residual(self):
        # Fractional powers have an infinite derivative at 0; the convention
        # is the zero subgradient there, and the usual one elsewhere.
        for op in (lambda a: a**0.5, lambda a: a**0.25):
            t = tape.parameter([0.0, 4.0])
            with np.errstate(all="raise"):
                op(t).sum().backward()
            assert t.grad[0] == 0.0
            assert np.isfinite(t.grad[1]) and t.grad[1] > 0.0

    def test_integer_power_gradient_at_zero_unchanged(self):
        t = tape.parameter([0.0, 2.0])
        (t**2).sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 4.0])

    def test_matmul(self):
        check_binary(lambda a, b: a @ b, self.rng.normal(size=(3, 4)), self.rng.normal(size=(4, 2)))

    def test_matmul_batched(self):
        check_binary(
            lambda a, b: a @ b,
            self.rng.normal(size=(2, 3, 4)),
            self.rng.normal(size=(2, 4, 5)),
        )

    def test_matmul_broadcast_weight(self):
        check_binary(
            lambda a, b: a @ b, self.rng.normal(size=(2, 3, 4)), self.rng.normal(size=(4, 5))
        )

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeMismatch):
            tape.constant(np.ones((2, 3))) @ tape.constant(np.ones((4, 2)))

    def test_sum_axes(self):
        check_unary(lambda a: a.sum(), self.rng.normal(size=(3, 4)))
        check_unary(lambda a: a.sum(axis=1), self.rng.normal(size=(3, 4)))
        check_unary(lambda a: a.sum(axis=0, keepdims=True), self.rng.normal(size=(3, 4)))

    def test_mean(self):
        check_unary(lambda a: a.mean(), self.rng.normal(size=(6,)))
        check_unary(lambda a: a.mean(axis=-1, keepdims=True), self.rng.normal(size=(2, 3)))

    def test_reshape_transpose_getitem(self):
        check_unary(lambda a: a.reshape((6,)), self.rng.normal(size=(2, 3)))
        check_unary(lambda a: a.transpose((1, 0)), self.rng.normal(size=(2, 3)))
        check_unary(lambda a: a[1:, :2], self.rng.normal(size=(3, 3)))

    def test_concat(self):
        x = self.rng.normal(size=(2, 3))
        y = self.rng.normal(size=(2, 2))
        tx, ty = tape.parameter(x), tape.parameter(y)
        (tape.concat([tx, ty], axis=-1) ** 2).sum().backward()
        nx = numeric_grad(
            lambda a: float(
                (np.concatenate([a, y], axis=-1) ** 2).sum()
            ),
            x.copy(),
        )
        np.testing.assert_allclose(tx.grad, nx, rtol=1e-6)

    def test_softmax(self):
        check_unary(lambda a: tape.softmax(a, axis=-1), self.rng.normal(size=(3, 5)))

    def test_softmax_rows_sum_to_one(self):
        x = self.rng.normal(size=(4, 7)) * 10
        s = tape.softmax(tape.constant(x), axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_uniform_on_equal_logits(self):
        s = tape.softmax(tape.constant(np.zeros((2, 5))), axis=-1)
        np.testing.assert_allclose(s.data, 0.2)

    def test_layer_norm(self):
        x = self.rng.normal(size=(2, 4, 6))
        gain = self.rng.uniform(0.5, 1.5, size=6)
        bias = self.rng.normal(size=6)
        tx, tg, tb = tape.parameter(x), tape.parameter(gain), tape.parameter(bias)
        (tape.layer_norm(tx, tg, tb) ** 2).sum().backward()

        def f_of(x_, gain_, bias_):
            mu = x_.mean(axis=-1, keepdims=True)
            var = ((x_ - mu) ** 2).mean(axis=-1, keepdims=True)
            return float(((gain_ * (x_ - mu) / np.sqrt(var + 1e-5) + bias_) ** 2).sum())

        nx = numeric_grad(lambda a: f_of(a, gain, bias), x.copy())
        ng = numeric_grad(lambda a: f_of(x, a, bias), gain.copy())
        nb = numeric_grad(lambda a: f_of(x, gain, a), bias.copy())
        np.testing.assert_allclose(tx.grad, nx, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(tg.grad, ng, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(tb.grad, nb, rtol=1e-6, atol=1e-8)


class TestGraphMechanics:
    def test_linear_loss_gradient(self):
        # loss = sum(w * x) -> dloss/dw = x
        x = np.array([1.0, 2.0, 3.0])
        w = tape.parameter([0.5, -1.0, 2.0])
        (w * tape.constant(x)).sum().backward()
        np.testing.assert_array_equal(w.grad, x)

    def test_quadratic_loss_gradient(self):
        # loss = ||W x||^2 -> dloss/dW = 2 (W x) x^T
        rng = np.random.default_rng(1)
        W = rng.normal(size=(3, 4))
        x = rng.normal(size=(4, 1))
        tW = tape.parameter(W)
        y = tW @ tape.constant(x)
        (y * y).sum().backward()
        np.testing.assert_allclose(tW.grad, 2 * (W @ x) @ x.T, rtol=1e-12)

    def test_fanout_accumulates(self):
        x = tape.parameter([2.0])
        y = x * x + x * 3.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])

    def test_backward_requires_scalar(self):
        x = tape.parameter(np.ones((2, 2)))
        with pytest.raises(ShapeMismatch):
            (x * 2).backward()

    def test_backward_deterministic(self):
        def run():
            rng = np.random.default_rng(3)
            a = tape.parameter(rng.normal(size=(4, 4)))
            b = tape.parameter(rng.normal(size=(4, 4)))
            ((a @ b + a) ** 2).sum().backward()
            return a.grad.tobytes(), b.grad.tobytes()

        assert run() == run()

    def test_cycle_detection(self):
        a = tape.parameter([1.0])
        b = a * 2.0
        # Forge a cycle (impossible via the public API).
        a._parents = (b,)
        a._backward = lambda: None
        with pytest.raises(GraphCycle):
            b.sum().backward()

    def test_constant_subgraphs_skipped(self):
        c = tape.constant(np.ones(3))
        x = tape.parameter(np.ones(3))
        c2 = c * 2.0
        (c2 * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2.0 * np.ones(3))
        # The product's backward returns a gradient for c2 too; the walker
        # adds it only into tensors that require one.
        assert c.grad is None and c2.grad is None
