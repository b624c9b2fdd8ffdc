"""Tests for the point-based network and its differentiable geometry bridges."""

import threading
import tracemalloc

import numpy as np
import pytest

from ncal import geometry
from ncal.errors import DegenerateRotation, ShapeMismatch
from ncal.nn import autodiff as ad
from ncal.nn import functional as F
from ncal.nn import model as model_module
from ncal.nn.model import PtModel, PtModelConfig, camera_identity_encoding
from ncal.scene import (
    PoseRanges,
    SceneConfig,
    make_object,
    make_rig,
    reference_params,
    synthesize_batch,
)
import tape
from oracle import geodesic_distance, rot6d_to_matrix


# The column blocks of the head's 18 outputs: r6, t, fc, pp, kc.
HEAD_BLOCKS = [slice(0, 6), slice(6, 9), slice(9, 11), slice(11, 13), slice(13, 18)]


def tiny_model(n_cameras=3, n_fiducials=4, d_model=8, n_layers=1, n_heads=2, d_ff=16, seed=0):
    cfg = PtModelConfig(
        n_cameras=n_cameras,
        n_fiducials=n_fiducials,
        d_model=d_model,
        n_layers=n_layers,
        n_heads=n_heads,
        d_ff=d_ff,
    )
    rng = np.random.default_rng(seed + 100)
    ref = np.zeros((n_cameras, 21))
    for i in range(n_cameras):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        w, x, y, z = q
        R = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
            ]
        )
        ref[i, :9] = R.reshape(9)
        ref[i, 9:12] = rng.normal(size=3) * 0.3
        ref[i, 12:14] = [1100.0, 1100.0]
        ref[i, 14:16] = [512.0, 512.0]
        ref[i, 16:21] = 0.01
    return PtModel(cfg, ref, image_size=(1024, 1024), radius=1.5, seed=seed)


class TestRot6dTensor:
    def test_matches_geometry(self):
        rng = np.random.default_rng(0)
        r6 = rng.normal(size=(5, 3, 6))
        out, _ = F.rot6d_to_matrix_t(r6)
        expected = rot6d_to_matrix(r6).reshape(5, 3, 9)
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        r6 = rng.normal(size=(2, 6))
        w = rng.normal(size=(2, 9))
        got = np.concatenate(F.rot6d_grad(w, F.rot6d_to_matrix_t(r6)[1]), axis=-1)
        h = 1e-6
        num = np.zeros_like(r6)
        for idx in np.ndindex(r6.shape):
            hi, lo = r6.copy(), r6.copy()
            hi[idx] += h
            lo[idx] -= h
            fhi = (rot6d_to_matrix(hi).reshape(2, 9) * w).sum()
            flo = (rot6d_to_matrix(lo).reshape(2, 9) * w).sum()
            num[idx] = (fhi - flo) / (2 * h)
        np.testing.assert_allclose(got, num, rtol=1e-5, atol=1e-8)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateRotation):
            F.rot6d_to_matrix_t(np.zeros((1, 6)))


class TestGeodesicTensor:
    def test_matches_geometry(self):
        rng = np.random.default_rng(4)
        r6 = rng.normal(size=(6, 6))
        R = rot6d_to_matrix(r6)
        gt = rot6d_to_matrix(rng.normal(size=(6, 6)))
        angles = tape.geodesic_angles_t(tape.constant(R.reshape(6, 9)), gt.reshape(6, 9))
        expected = geodesic_distance(R, gt)
        np.testing.assert_allclose(angles.data, expected, atol=1e-12)


class TestCIE:
    def test_zero_sigma_one_hot(self):
        rng = np.random.default_rng(0)
        codes = camera_identity_encoding(3, 4, 0.0, rng)
        np.testing.assert_array_equal(codes, np.eye(4)[:3])

    def test_one_hot_pairwise_distance(self):
        rng = np.random.default_rng(0)
        codes = camera_identity_encoding(4, 8, 0.0, rng)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(codes[i] - codes[j]) == pytest.approx(np.sqrt(2))

    def test_noise_disambiguates_wraparound(self):
        rng = np.random.default_rng(1)
        codes = camera_identity_encoding(6, 4, 0.01, rng)
        # rows 0 and 4 share the same one-hot slot but must differ
        assert np.linalg.norm(codes[0] - codes[4]) > 0
        for i in range(6):
            for j in range(i + 1, 6):
                assert np.linalg.norm(codes[i] - codes[j]) > 1e-4

    @pytest.mark.parametrize("sigma", [-0.01, float("nan"), float("inf")])
    def test_bad_noise_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="cie_noise_sigma"):
            PtModelConfig(n_cameras=6, n_fiducials=8, d_model=4, n_heads=2, cie_noise_sigma=sigma)

    @pytest.mark.parametrize("bad", [{"d_model": 64.0}, {"n_layers": 1.0}, {"n_heads": True},
                                     {"d_ff": 0}, {"n_cameras": -1}, {"n_fiducials": 8.5}])
    def test_bad_count_rejected(self, bad):
        name = next(iter(bad))
        with pytest.raises(ValueError, match=name):
            PtModelConfig(**{"n_cameras": 6, "n_fiducials": 8, "d_model": 64, "n_heads": 2,
                             **bad})

    def test_numpy_integer_counts_accepted(self):
        # Stored as Python ints, which a checkpoint's JSON config can hold.
        cfg = PtModelConfig(np.int64(6), np.int32(8), d_model=np.int64(64), n_layers=np.int8(1))
        counts = (cfg.n_cameras, cfg.n_fiducials, cfg.d_model, cfg.n_layers)
        assert counts == (6, 8, 64, 1) and all(type(v) is int for v in counts)

    def test_wraparound_without_noise_rejected(self):
        with pytest.raises(ValueError):
            PtModelConfig(n_cameras=6, n_fiducials=8, d_model=4, n_heads=2, cie_noise_sigma=0.0)

    def test_frozen_at_construction(self):
        m1 = tiny_model(seed=7)
        m2 = tiny_model(seed=7)
        np.testing.assert_array_equal(m1.cie, m2.cie)


class TestEmbed:
    def test_zero_input_zero_bias_gives_zero(self):
        m = tiny_model()
        out, _ = m.embed(np.zeros((2, 3, 4, 2)))
        np.testing.assert_array_equal(out, 0.0)

    def test_identity_passthrough_on_toy(self):
        # 1 camera, 1 fiducial, d_model = 2: identity weights reproduce the input.
        cfg = PtModelConfig(n_cameras=1, n_fiducials=1, d_model=2, n_layers=1, n_heads=1, d_ff=4)
        ref = np.zeros((1, 21))
        ref[0, :9] = np.eye(3).reshape(9)
        ref[0, 12:14] = 1.0
        m = PtModel(cfg, ref, image_size=(2, 2), radius=1.0, seed=0)
        m.params["embed_w"].data = np.eye(2)
        m.params["embed_b"].data = np.zeros(2)
        x = np.array([[[[0.25, -0.5]]]])
        np.testing.assert_allclose(m.embed(x)[0], x.reshape(1, 1, 2))

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(8)
        m = tiny_model()
        x = rng.normal(size=(5, 3, 4, 2))
        out, _ = m.embed(x)
        expected = x.reshape(5, 3, 8) @ m.params["embed_w"].data + m.params["embed_b"].data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_shape_mismatch(self):
        m = tiny_model()
        with pytest.raises(ShapeMismatch):
            m.embed(np.zeros((2, 5, 4, 2)))

    def test_float32_input_computes_in_float32(self):
        # The float64 weights are cast to the input's dtype, so the output
        # and both gradients stay float32; the data gets no gradient.
        rng = np.random.default_rng(9)
        out, backward = tiny_model().embed(rng.normal(size=(5, 3, 4, 2)).astype(np.float32))
        gx, *grads = backward(rng.normal(size=out.shape).astype(np.float32))
        assert gx is None
        assert [a.dtype for a in (out, *grads)] == [np.float32] * 3


def loop_reference_block(x, p, i, n_heads, key_bias=0.0):
    """Straight-line (explicit loops) evaluation of one encoder block, with
    key_bias added to its keys."""
    B, N, D = x.shape
    dh = D // n_heads
    eps = 1e-5

    def ln(v, g, b):
        out = np.empty_like(v)
        for bi in range(v.shape[0]):
            for ni in range(v.shape[1]):
                row = v[bi, ni]
                mu = row.mean()
                var = ((row - mu) ** 2).mean()
                out[bi, ni] = g * (row - mu) / np.sqrt(var + eps) + b
        return out

    a = ln(x, p[f"layer{i}_ln1_g"].data, p[f"layer{i}_ln1_b"].data)
    q = a @ p[f"layer{i}_wq"].data + p[f"layer{i}_bq"].data
    k = a @ p[f"layer{i}_wk"].data + key_bias
    v = a @ p[f"layer{i}_wv"].data + p[f"layer{i}_bv"].data
    o = np.zeros_like(q)
    for bi in range(B):
        for h in range(n_heads):
            sl = slice(h * dh, (h + 1) * dh)
            for ni in range(N):
                logits = np.array(
                    [q[bi, ni, sl] @ k[bi, nj, sl] / np.sqrt(dh) for nj in range(N)]
                )
                w = np.exp(logits - logits.max())
                w /= w.sum()
                o[bi, ni, sl] = sum(w[nj] * v[bi, nj, sl] for nj in range(N))
    x = x + o @ p[f"layer{i}_wo"].data + p[f"layer{i}_bo"].data
    f = ln(x, p[f"layer{i}_ln2_g"].data, p[f"layer{i}_ln2_b"].data)
    hdn = np.maximum(f @ p[f"layer{i}_ff1_w"].data + p[f"layer{i}_ff1_b"].data, 0.0)
    return x + hdn @ p[f"layer{i}_ff2_w"].data + p[f"layer{i}_ff2_b"].data


def tape_block(x, p, i, n_heads):
    """One encoder block composed from tape primitives: the oracle that
    F.encoder_block's values and gradients must equal bit for bit."""
    B, N, D = x.data.shape
    dh = D // n_heads

    def heads(t):
        return t.reshape((B, N, n_heads, dh)).transpose((0, 2, 1, 3))

    a = tape.layer_norm(x, p[f"layer{i}_ln1_g"], p[f"layer{i}_ln1_b"])
    q = heads(tape.linear(a, p[f"layer{i}_wq"], p[f"layer{i}_bq"]))
    k = heads((a.reshape((-1, D)) @ p[f"layer{i}_wk"]).reshape((B, N, D)))
    v = heads(tape.linear(a, p[f"layer{i}_wv"], p[f"layer{i}_bv"]))
    scores = (q @ k.transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    attn = tape.softmax(scores, axis=-1)
    o = (attn @ v).transpose((0, 2, 1, 3)).reshape((B, N, D))
    x = x + tape.linear(o, p[f"layer{i}_wo"], p[f"layer{i}_bo"])

    f = tape.layer_norm(x, p[f"layer{i}_ln2_g"], p[f"layer{i}_ln2_b"])
    f = tape.linear(tape.relu(tape.linear(f, p[f"layer{i}_ff1_w"], p[f"layer{i}_ff1_b"])),
                    p[f"layer{i}_ff2_w"], p[f"layer{i}_ff2_b"])
    return x + f


BLOCK_PARAMS = ("ln1_g", "ln1_b", "wq", "bq", "wk", "wv", "bv", "wo", "bo",
                "ln2_g", "ln2_b", "ff1_w", "ff1_b", "ff2_w", "ff2_b")


def random_block_params(rng, d_model, d_ff):
    """The 15 arrays of one block with random weights, gains and biases,
    keyed as layer 0 of a model."""
    shapes = {"ff1_w": (d_model, d_ff), "ff1_b": (d_ff,), "ff2_w": (d_ff, d_model)}
    out = {}
    for nm in BLOCK_PARAMS:
        shape = shapes.get(nm, (d_model, d_model) if nm.startswith("w") else (d_model,))
        scale = 1.0 / np.sqrt(shape[0]) if len(shape) == 2 else 0.2
        data = rng.normal(size=shape) * scale + (1.0 if nm.endswith("_g") else 0.0)
        out[f"layer0_{nm}"] = data
    return out


def block_outputs(params, x, upstream, n_heads):
    """Output, input gradient and the 15 parameter gradients of F.encoder_block."""
    weights = [params[f"layer0_{nm}"] for nm in BLOCK_PARAMS]
    out, backward = F.encoder_block(x, weights, n_heads)
    return [out, *backward(upstream, weights)]


def tape_block_outputs(params, x, upstream, n_heads):
    """block_outputs() of the block composed on the tape."""
    x = tape.parameter(x)
    params = {k: tape.parameter(a) for k, a in params.items()}
    out = tape_block(x, params, 0, n_heads)
    out.backward(upstream)
    return [out.data, x.grad] + [params[f"layer0_{nm}"].grad for nm in BLOCK_PARAMS]


class TestEncoderBlock:
    @pytest.mark.parametrize("n_cameras, d_model, n_heads, d_ff",
                             [(6, 64, 4, 128), (10, 512, 8, 1024)])
    def test_bitwise_equal_to_tape(self, n_cameras, d_model, n_heads, d_ff):
        rng = np.random.default_rng(d_model)
        params = random_block_params(rng, d_model, d_ff)
        x = rng.normal(size=(4, n_cameras, d_model))
        upstream = rng.normal(size=x.shape)
        got = block_outputs(params, x, upstream, n_heads)
        want = tape_block_outputs(params, x, upstream, n_heads)
        assert len(got) == 17
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_float32_stays_float32(self, monkeypatch):
        # Every scalar constant of the block is a Python float, so under
        # NEP 50 no step promotes a float32 array: the output, every array
        # the forward keeps and every gradient the backward returns.
        rng = np.random.default_rng(23)
        params = random_block_params(rng, 64, 128)
        weights = [params[f"layer0_{nm}"].astype(np.float32) for nm in BLOCK_PARAMS]
        x = rng.normal(size=(4, 6, 64)).astype(np.float32)
        kept = []
        real_backward = F.encoder_block_backward

        def spy(g, saved, weights):
            kept.extend(saved)
            return real_backward(g, saved, weights)

        monkeypatch.setattr(F, "encoder_block_backward", spy)
        out, backward = F.encoder_block(x, weights, 4)
        grads = backward(rng.normal(size=x.shape).astype(np.float32), weights)
        assert len(kept) == 9 and len(grads) == 16
        assert [a.dtype for a in (out, *kept, *grads)] == [np.float32] * 26

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(22)
        d_model, n_heads, d_ff = 8, 2, 12
        params = random_block_params(rng, d_model, d_ff)
        arrays = [params[f"layer0_{nm}"] for nm in BLOCK_PARAMS]
        x = rng.normal(size=(2, 3, d_model))
        w = rng.normal(size=x.shape)

        def loss(x, arrays):
            return float((F.encoder_block(x, arrays, n_heads)[0] * w).sum())

        got = block_outputs(params, x, w, n_heads)[1:]
        h = 1e-6
        for j, base in enumerate([x] + arrays):
            num = np.zeros_like(base)
            for idx in np.ndindex(base.shape):
                hi = [a.copy() for a in [x] + arrays]
                lo = [a.copy() for a in [x] + arrays]
                hi[j][idx] += h
                lo[j][idx] -= h
                num[idx] = (loss(hi[0], hi[1:]) - loss(lo[0], lo[1:])) / (2 * h)
            np.testing.assert_allclose(got[j], num, rtol=1e-6, atol=1e-7)

    def test_single_capture_predict_matches_batched(self):
        # The recal_online check: a batch-1 predict equals its row of a
        # batched predict to 1e-9 * (1 + |x|), at the paper's width.
        m = tiny_model(n_cameras=10, n_fiducials=27, d_model=512, n_layers=4, n_heads=8,
                       d_ff=1024, seed=2)
        rng = np.random.default_rng(24)
        for name, t in m.params.items():
            if name.startswith("head_"):
                t.data = 1e-3 * rng.standard_normal(t.data.shape)
        X = rng.uniform(100, 900, size=(5, 10, 27, 2))
        batched = m.predict(X)
        for x, row in zip(X, batched):
            single = m.predict(x)
            assert np.all(np.abs(single - row) <= 1e-9 * (1 + np.abs(row)))


def randomize_heads(m, rng, scale=0.05):
    """Fill the head with scale * N(0, 1) draws, a weight block then its
    bias per column block r6, t, fc, pp, kc, as the draws fell when each
    block was a head of its own, so the tests keep their data."""
    w, b = m.params["head_w"].data, m.params["head_b"].data
    for cols in HEAD_BLOCKS:
        w[:, cols] = scale * rng.standard_normal(w[:, cols].shape)
        b[cols] = scale * rng.standard_normal(b[cols].shape)


def head_params(m):
    return [m.params["head_w"], m.params["head_b"]]


def stage_heads(m, h):
    return F.heads(h, *(t.data for t in head_params(m)), m._center, m._scale, m._reference_R)


def heads_outputs(m, h, upstream):
    """Output, input gradient and the weight and bias gradients of F.heads."""
    out, backward = stage_heads(m, h)
    return [out, *backward(upstream)]


def tape_heads_outputs(m, h, upstream):
    """heads_outputs() of the heads composed on the tape."""
    tape.on_tape(m)
    h = tape.parameter(h)
    out = tape.heads(m, h)
    out.backward(upstream)
    return [out.data, h.grad] + [t.grad for t in head_params(m)]


class TestHeads:
    @pytest.mark.parametrize("upstream_kind", ["random", "zero", "negative zero"])
    @pytest.mark.parametrize("random_heads", [False, True])
    @pytest.mark.parametrize("n_cameras, d_model", [(6, 16), (10, 64)])
    def test_bitwise_equal_to_tape(self, n_cameras, d_model, random_heads, upstream_kind):
        rng = np.random.default_rng(n_cameras)
        m = tiny_model(n_cameras=n_cameras, d_model=d_model)
        if random_heads:
            randomize_heads(m, rng)
        h = rng.normal(size=(5, n_cameras, d_model))
        upstream = rng.normal(size=(5, n_cameras, 21))
        # Exact zeros in the upstream gradient, as the losses give at their
        # optimum: the tape's zero buffers turn -0.0 into +0.0.
        if upstream_kind == "random":
            upstream[0] = 0.0
            upstream[1] = -0.0
        else:
            upstream[...] = 0.0 if upstream_kind == "zero" else -0.0
        got = heads_outputs(m, h, upstream)
        want = tape_heads_outputs(m, h, upstream)
        assert len(got) == 4
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(31)
        m = tiny_model(n_cameras=3, d_model=4)
        randomize_heads(m, rng, scale=0.3)
        h = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(2, 3, 21))
        got = heads_outputs(m, h, w)[1:]

        def loss():
            return float((stage_heads(m, h)[0] * w).sum())

        step = 1e-6
        for base, g in zip([h] + [t.data for t in head_params(m)], got):
            num = np.zeros_like(base)
            for idx in np.ndindex(base.shape):
                orig = base[idx]
                base[idx] = orig + step
                hi = loss()
                base[idx] = orig - step
                lo = loss()
                base[idx] = orig
                num[idx] = (hi - lo) / (2 * step)
            np.testing.assert_allclose(g, num, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("batch", [128, 512])
    def test_one_head_equals_five_column_block_linears(self, batch):
        # The composition before the head was one map, from the package's
        # kernels and not the tape: five linears over the column blocks of
        # w and b, then the same affine map, Gram-Schmidt and reference
        # product, and in the backward the five input gradients summed last
        # block first. One product sums the 18 columns in BLAS order, so the
        # input gradient may differ by rounding. The rest is bitwise equal
        # at the paper's width, O-10 and d_model 512, where each block's
        # product has over 10^6 multiply-adds. OpenBLAS (0.3.31, SkylakeX
        # kernels) runs smaller ones through its small-matrix kernel, whose
        # sums round differently: at 655 k or fewer the narrow blocks
        # differed from one product in their last bit.
        rng = np.random.default_rng(batch)
        m = tiny_model(n_cameras=10, d_model=512)
        w, b = 0.05 * rng.normal(size=(512, 18)), 0.05 * rng.normal(size=18)
        h = rng.normal(size=(batch, 10, 512))
        g = rng.normal(size=(batch, 10, 21))
        out, backward = F.heads(h, w, b, m._center, m._scale, m._reference_R)
        gh, gw, gb = backward(g)

        raw = np.concatenate([F.linear(h, w[:, c], b[c]) for c in HEAD_BLOCKS], axis=-1)
        five = m._center + m._scale * raw
        r9, saved = F.rot6d_to_matrix_t(five[..., 0:6])
        r9 = (m._reference_R @ r9.reshape(batch, 10, 3, 3)).reshape(batch, 10, 9)
        gr9 = np.swapaxes(m._reference_R, -1, -2) @ g[..., 0:9].reshape(batch, 10, 3, 3)
        ga1, ga2 = F.rot6d_grad(gr9.reshape(batch, 10, 9), saved)
        graw = np.concatenate([ga1, ga2, g[..., 9:]], axis=-1) * m._scale
        parts = [F.linear_grad(graw[..., c], h, w[:, c]) for c in HEAD_BLOCKS]
        want_gh = parts[-1][0]
        for part in reversed(parts[:-1]):
            want_gh = want_gh + part[0]

        assert out.tobytes() == np.concatenate([r9, five[..., 6:]], axis=-1).tobytes()
        assert gw.tobytes() == np.concatenate([p[1] for p in parts], axis=1).tobytes()
        assert gb.tobytes() == np.concatenate([p[2] for p in parts]).tobytes()
        # Relative to the sum of the terms' magnitudes, |graw| @ |w|^T, as
        # the 18-term sums cancel: some entries are far smaller than their
        # terms, and a reordered sum's rounding scales with the terms.
        terms = F.linear(np.abs(graw), np.abs(w).T)
        assert np.all(np.abs(gh - want_gh) <= 1e-14 * terms)

    @pytest.mark.parametrize("bias, message", [
        ([-1.0, 0.0, 0.0, 0.0, 0.0, 0.0], "near-zero norm"),
        ([0.0, 0.0, 0.0, 1.0, -1.0, 0.0], "near parallel"),
    ])
    def test_degenerate_rotation_raises_like_tape(self, bias, message):
        # Zero weights and this r6 bias put the first 6D column at zero, or
        # the second along the first, for every camera.
        m = tape.on_tape(tiny_model())
        m.params["head_b"].data[0:6] = bias
        h = np.ones((2, 3, 8))
        for heads_fn in (stage_heads, tape.heads):
            with pytest.raises(DegenerateRotation, match=message):
                heads_fn(m, h)


class TestLinear:
    @pytest.mark.parametrize("shape", [(7, 5), (3, 4, 5)])
    def test_bitwise_equal_to_tape(self, shape):
        rng = np.random.default_rng(len(shape))
        x, w, b = rng.normal(size=shape), rng.normal(size=(5, 6)), rng.normal(size=6)
        upstream = rng.normal(size=shape[:-1] + (6,))
        ts = [tape.parameter(a) for a in (x, w, b)]
        out = tape.linear(*ts)
        out.backward(upstream)
        want = [out.data] + [t.grad for t in ts]
        got = [F.linear(x, w, b), *F.linear_grad(upstream, x, w)]
        # The embedding of data: no input gradient, then the weight and
        # bias gradients.
        out, backward = F.embed(x, w, b)
        gx, *grads = backward(upstream)
        assert gx is None
        got += [out, *grads]
        want += [want[0], want[2], want[3]]
        assert len(got) == len(want) == 7
        for g, wnt in zip(got, want):
            assert g.shape == wnt.shape and g.tobytes() == wnt.tobytes()


class TestKernelCalls:
    @pytest.mark.parametrize("n_layers", [1, 3])
    def test_forward_calls_each_kernel_through_its_module(self, n_layers, monkeypatch):
        # The benchmark's tracer times these names by wrapping the module
        # attributes, so a forward must reach each kernel through them.
        counts = {}
        for module, name in ((F, "linear"), (F, "layer_norm"), (ad, "softmax"),
                             (F, "rot6d_to_matrix_t")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        m = tiny_model(n_layers=n_layers)
        X = np.random.default_rng(4).uniform(0, 1024, size=(2, 3, 4, 2))
        m.forward(X)
        L = n_layers
        assert counts == {"linear": 6 * L + 2, "layer_norm": 2 * L, "softmax": L,
                          "rot6d_to_matrix_t": 1}


def documented_kept_bytes(cfg, batch, dtype=np.float64):
    """Bytes of the arrays a forward of `batch` captures, with the embedding
    and the encoder in dtype, keeps for its backward, from the shapes: per
    encoder block the set F.encoder_block lists, which is the normalized
    inputs of both norms (2 x D per camera), q, k and v (3 x D), the ReLU
    output (d_ff), the two inverse deviations (2) and the attention weights
    (n_heads x N); the embedding's normalized input (2 x n_fiducials); the
    heads' input (D); all in dtype; in float64, the heads' 18 outputs and
    the 14 Gram-Schmidt intermediates; plus 64 KiB for the Python objects
    that hold them. No weight cast is among them."""
    n, d = cfg.n_cameras, cfg.d_model
    block = n * (5 * d + cfg.d_ff + 2) + cfg.n_heads * n * n
    encoder = cfg.n_layers * block + n * (2 * cfg.n_fiducials + d)
    heads = n * (18 + 14)
    return batch * (np.dtype(dtype).itemsize * encoder + 8 * heads) + 64 * 1024


class TestKeptMemory:
    # Each block keeps five (B, N, d_model) arrays besides its ReLU output;
    # a, o and f are rebuilt in backward. Keeping them too would add
    # 3 * 8 * B * N * d_model bytes per block, 0.79 MB in all here, over the bound.
    CONFIG = dict(n_cameras=4, n_fiducials=8, d_model=32, n_layers=4, n_heads=4, d_ff=64)
    BATCH = 64

    def inputs(self):
        m = tiny_model(**self.CONFIG)
        X = np.random.default_rng(31).uniform(100, 900, size=(self.BATCH, 4, 8, 2))
        return m, X, documented_kept_bytes(m.config, self.BATCH)

    def test_forward_keeps_at_most_the_documented_set(self):
        m, X, bound = self.inputs()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pred = m.forward(X)
            kept = tracemalloc.get_traced_memory()[0] - before - pred.data.nbytes
        finally:
            tracemalloc.stop()
        assert 0 < kept <= bound

    def test_float32_forward_keeps_no_weight_cast(self):
        # A float32 forward keeps its float32 activations, the heads' input
        # among them, not the blocks' float32 weight casts, which the
        # pullback makes again. At this width one block's casts (131 KB)
        # exceed the bound's 64 KiB slack on their own.
        m = tiny_model(n_cameras=4, n_fiducials=8, d_model=64, n_layers=2, n_heads=4, d_ff=128)
        assert 4 * sum(m.params[k].data.size for k in m._block_names(0)) > 64 * 1024
        X = np.random.default_rng(33).uniform(100, 900, size=(self.BATCH, 4, 8, 2))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pred = m.forward(X, np.float32)
            kept = tracemalloc.get_traced_memory()[0] - before - pred.data.nbytes
        finally:
            tracemalloc.stop()
        assert 0 < kept <= documented_kept_bytes(m.config, self.BATCH, np.float32)

    def test_predict_peak_below_what_a_forward_keeps(self):
        # predict drops each stage's backward as the stage returns, so its
        # peak is one block's working set, not every block's saved arrays.
        m, X, bound = self.inputs()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            m.predict(X)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_predict_peak_does_not_grow_with_depth(self):
        # predict drops each block's backward, and the encoder's input,
        # before the next block starts, so a 4-block model peaks where a
        # 1-block one does, within half of one (B, N, d_model) activation.
        # Holding the encoder's input would add that activation, and a
        # backward held into the next block the set its block keeps, ~8 of
        # them.
        X = np.random.default_rng(34).uniform(100, 900, size=(self.BATCH, 4, 8, 2))

        def peak(n_layers):
            m = tiny_model(**dict(self.CONFIG, n_layers=n_layers))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                m.predict(X)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        cfg = self.CONFIG
        activation = 8 * self.BATCH * cfg["n_cameras"] * cfg["d_model"]
        assert abs(peak(4) - peak(1)) < activation / 2

    def backward_memory(self, dtype):
        """Traced bytes of a forward in dtype and its backward: (kept by the
        forward, peak during the backward, left after it, with the
        prediction still referenced, less the prediction and the returned
        gradients, the gradients' bytes)."""
        m, X, _ = self.inputs()
        g = np.random.default_rng(32).normal(size=(self.BATCH, 4, 21))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pred = m.forward(X, dtype)
            kept = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            grads = pred.backward(g)
            left, peak = (v - before for v in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        grad_bytes = sum(a.nbytes for a in grads.values())
        return kept, peak, left - pred.data.nbytes - grad_bytes, grad_bytes

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_backward_leaves_only_the_gradients(self, dtype):
        # Each stage's saved arrays and weight casts are freed as its
        # backward finishes, so nothing the forward kept outlives the
        # backward, even while the prediction is still referenced: only the
        # Python objects that hold the gradients, under 64 KiB.
        kept, _, left, _ = self.backward_memory(dtype)
        assert kept > 1_000_000 and 0 <= left <= 64 * 1024

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_split_backward_leaves_only_the_gradients(self, dtype, split_calls, monkeypatch):
        # The same with every stage's backward in two row halves, the second
        # on the worker thread: neither the worker nor a join keeps a half.
        monkeypatch.setattr(model_module, "_SPLIT_MIN_VALUES", 0)
        kept, _, left, _ = self.backward_memory(dtype)
        assert len(split_calls) == self.CONFIG["n_layers"] + 2
        assert kept > 1_000_000 and 0 <= left <= 64 * 1024

    def test_backward_peak_below_kept_plus_one_gradient_set(self):
        # The backward holds the saved arrays of the stages still to run and
        # the gradients made so far, not every stage's arrays beside every
        # gradient. At the precision train() runs the encoder in; in
        # float64 at this shape one block's backward working set (~0.49 MB)
        # outweighs the whole gradient set (0.28 MB).
        kept, peak, _, grad_bytes = self.backward_memory(np.float32)
        assert peak < kept + grad_bytes


def random_encoder(rng):
    """A two-block tiny model with every encoder weight, bias and gain
    random."""
    m = tiny_model(n_cameras=3, d_model=8, n_layers=2, n_heads=2)
    for k, t in m.params.items():
        if not k.startswith("head_"):
            t.data = rng.normal(size=t.data.shape) * 0.5
    return m


class TestEncoder:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(9)
        m = random_encoder(rng)
        x = rng.normal(size=(2, 3, 8))
        out = m.encode(x)
        ref = x.copy()
        for i in range(2):
            ref = loop_reference_block(ref, m.params, i, n_heads=2)
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_key_bias_cannot_change_the_output(self):
        # Why the blocks have no key bias: one would add q . bk to a whole
        # row of scores, which the softmax over that row cancels. The loop
        # reference with a random key bias equals the bias-free encoder.
        rng = np.random.default_rng(12)
        m = random_encoder(rng)
        x = rng.normal(size=(2, 3, 8))
        out = m.encode(x)
        ref = x.copy()
        for i in range(2):
            ref = loop_reference_block(ref, m.params, i, n_heads=2,
                                       key_bias=rng.normal(size=8) * 2.0)
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_zeroed_weights_residual_identity(self):
        m = tiny_model(n_layers=1)
        for k, t in m.params.items():
            if k.startswith("layer") and not k.endswith("ln1_g") and not k.endswith("ln2_g"):
                t.data = np.zeros_like(t.data)
        x = np.random.default_rng(10).normal(size=(2, 3, 8))
        out = m.encode(x)
        np.testing.assert_allclose(out, x, atol=1e-14)

    def test_shape_mismatch(self):
        m = tiny_model()
        with pytest.raises(ShapeMismatch):
            m.encode(np.zeros((2, 3, 5)))


def glorot_oracle(config, seed):
    """Every Glorot matrix of a fresh model, drawn one after another with
    Generator.uniform from the seed's stream after the identity-code noise."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    if config.cie_noise_sigma > 0:
        rng.standard_normal((config.n_cameras, config.d_model))
    out = {}
    for k, (shape, kind) in model_module._param_spec(config).items():
        if kind == "glorot":
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            out[k] = rng.uniform(-limit, limit, shape)
    return out


class TestInit:
    @pytest.mark.parametrize("split", [False, True])
    def test_weights_match_uniform_oracle(self, split, monkeypatch):
        fills = []
        fill = model_module._fill_glorot

        def recording_fill(rng, arrays):
            fills.append((threading.current_thread() is threading.main_thread(), len(arrays)))
            fill(rng, arrays)

        monkeypatch.setattr(model_module, "_fill_glorot", recording_fill)
        if split:
            monkeypatch.setattr(model_module, "_SPLIT_MIN_DRAWS", 0)
        threads = threading.active_count()
        m = tiny_model(n_layers=2, seed=4)
        assert threading.active_count() == threads
        # 1,088 draws: the first part ends with layer0_ff2_w, the first
        # boundary past 544, and the worker fills layer 1's six matrices.
        assert sorted(fills) == ([(False, 6), (True, 7)] if split else [(True, 13)])
        expected = glorot_oracle(m.config, 4)
        for k, (shape, kind) in model_module._param_spec(m.config).items():
            a = m.params[k].data
            assert a.dtype == np.float64 and a.shape == shape
            if kind == "glorot":
                assert a.tobytes() == expected[k].tobytes(), k
            else:
                assert np.all(a == (1.0 if kind == "ones" else 0.0)), k

    def test_worker_error_reaches_caller(self, monkeypatch):
        fill = model_module._fill_glorot
        on_worker = []

        def failing_fill(rng, arrays):
            if threading.current_thread() is not threading.main_thread():
                on_worker.append(len(arrays))
                raise RuntimeError("fill failed")
            fill(rng, arrays)

        monkeypatch.setattr(model_module, "_fill_glorot", failing_fill)
        monkeypatch.setattr(model_module, "_SPLIT_MIN_DRAWS", 0)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="fill failed"):
            tiny_model(n_layers=2)
        assert on_worker == [6]
        assert threading.active_count() == threads


class TestForward:
    def test_output_shape_and_orthogonality(self):
        rng = np.random.default_rng(11)
        m = tiny_model()
        # random nonzero head weights: rotation blocks must stay orthonormal
        for k, t in m.params.items():
            t.data = rng.normal(size=t.data.shape) * 0.3
        X = rng.uniform(0, 1024, size=(4, 3, 4, 2))
        out = m.forward(X).data
        assert out.shape == (4, 3, 21)
        R = out[..., :9].reshape(4, 3, 3, 3)
        err = np.linalg.norm(np.swapaxes(R, -1, -2) @ R - np.eye(3), axis=(-2, -1))
        assert err.max() < 1e-9
        np.testing.assert_allclose(np.linalg.det(R), 1.0, atol=1e-9)

    def test_zero_init_heads_predict_reference(self):
        m = tiny_model()
        X = np.random.default_rng(12).uniform(0, 1024, size=(2, 3, 4, 2))
        out = m.forward(X).data
        ref = m.reference_params
        for b in range(2):
            np.testing.assert_array_equal(out[b], ref)

    def test_zero_init_matches_scene_reference_and_synthesis(self):
        rig, oem = make_rig("T-4")
        cfg = SceneConfig(
            rig=rig,
            oem=oem,
            obj=make_object("cube8"),
            pose_ranges=PoseRanges(theta=(0.0, 0.0), phi=(0.0, 0.0), alpha=(0.0, 0.0)),
        )
        ref = reference_params(rig, oem, cfg.radius)
        mc = PtModelConfig(n_cameras=4, n_fiducials=8, d_model=8, n_layers=1, n_heads=2, d_ff=16)
        m = PtModel(mc, ref, rig.image_size, cfg.radius, seed=1)
        batch = synthesize_batch(cfg, 3, seed=4)
        np.testing.assert_array_equal(m.reference_params, ref)
        for gt, pred in zip(batch.gt_params, m.predict(batch.observations)):
            np.testing.assert_array_equal(gt, ref)
            np.testing.assert_array_equal(pred, ref)

    def test_rejects_non_rotation_reference(self):
        m = tiny_model()
        ref = m.reference_params
        ref[0, :9] *= 1.01
        with pytest.raises(ValueError):
            PtModel(m.config, ref, m.image_size, m.radius)

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_radius_rejected(self, radius):
        m = tiny_model()
        with pytest.raises(ValueError, match="radius"):
            PtModel(m.config, m.reference_params, m.image_size, radius)

    @pytest.mark.parametrize("size", [(0, 1024), (1024.7, 1024), True, (1024,), (True, 1024)])
    def test_bad_image_size_rejected(self, size):
        m = tiny_model()
        with pytest.raises(ValueError, match="image_size"):
            PtModel(m.config, m.reference_params, size, m.radius)

    def test_unbatched_predict(self):
        m = tiny_model()
        X = np.random.default_rng(13).uniform(0, 1024, size=(3, 4, 2))
        out = m.predict(X)
        assert out.shape == (3, 21)
        assert out.tobytes() == m.forward(X[None]).data[0].tobytes()

    def test_batch_predict_equals_forward_bitwise(self):
        # Within one chunk predict runs forward's stages on the same shapes,
        # so a batch matches bit for bit, not only a single capture. Across
        # chunks the products run at other shapes, where OpenBLAS may round
        # differently (test_predict_in_chunks_matches_one_forward).
        m = tiny_model(n_layers=2)
        rng = np.random.default_rng(18)
        for t in m.params.values():
            t.data = rng.normal(size=t.data.shape) * 0.3
        X = rng.uniform(0, 1024, size=(5, 3, 4, 2))
        assert m.predict(X).tobytes() == m.forward(X).data.tobytes()

    def test_forward_rejects_single_capture(self):
        # forward takes batches; predict is the single-capture path.
        m = tiny_model()
        X = np.random.default_rng(13).uniform(0, 1024, size=(3, 4, 2))
        with pytest.raises(ShapeMismatch, match=r"expected \(B, 3, 4, 2\)"):
            m.forward(X)

    def test_predict_in_chunks_matches_one_forward(self, monkeypatch):
        from ncal.nn import model as model_module

        m = tiny_model()
        X = np.random.default_rng(16).uniform(0, 1024, size=(7, 3, 4, 2))
        monkeypatch.setattr(model_module, "PREDICT_CHUNK", 3)
        out = m.predict(X)
        assert out.shape == (7, 3, 21)
        np.testing.assert_allclose(out, m.forward(X).data, rtol=1e-12, atol=1e-12)

    def test_deterministic(self):
        m1, m2 = tiny_model(seed=3), tiny_model(seed=3)
        X = np.random.default_rng(14).uniform(0, 1024, size=(2, 3, 4, 2))
        assert m1.forward(X).data.tobytes() == m2.forward(X).data.tobytes()

    def test_from_state_arrays_rebuilds_without_copies(self):
        m = tiny_model(seed=5)
        rng = np.random.default_rng(17)
        for t in m.params.values():
            t.data = rng.normal(size=t.data.shape) * 0.3
        arrays = {k: a.copy() for k, a in m.state_arrays().items()}
        m2 = PtModel.from_state_arrays(m.config, arrays, m.image_size, m.radius, seed=m.seed)
        assert list(m2.params) == list(m.params)
        for k, t in m2.params.items():
            assert t.data is arrays[k]
        for attr in ("cie", "_reference", "_reference_R", "_center", "_scale"):
            assert getattr(m2, attr).tobytes() == getattr(m, attr).tobytes()
        X = rng.uniform(0, 1024, size=(2, 3, 4, 2))
        assert m2.forward(X).data.tobytes() == m.forward(X).data.tobytes()

    def test_from_state_arrays_checks_shapes(self):
        m = tiny_model()
        arrays = dict(m.state_arrays(), embed_b=np.zeros(5))
        with pytest.raises(ShapeMismatch, match="embed_b"):
            PtModel.from_state_arrays(m.config, arrays, m.image_size, m.radius)
        arrays = m.state_arrays()
        del arrays["head_b"]
        with pytest.raises(KeyError):
            PtModel.from_state_arrays(m.config, arrays, m.image_size, m.radius)

    def test_end_to_end_gradient_spot_check(self):
        rng = np.random.default_rng(15)
        m = tiny_model()
        for k, t in m.params.items():
            t.data = rng.normal(size=t.data.shape) * 0.2
        X = rng.uniform(200, 800, size=(2, 3, 4, 2))
        w = rng.normal(size=(2, 3, 21))

        def loss_value():
            return float((m.forward(X).data * w).sum())

        grads = m.forward(X).backward(w)
        h = 1e-5
        checked = 0
        # The head's r6 weights and t bias as views of their columns.
        every = slice(None)
        for name, cols in (("embed_w", every), ("layer0_wq", every), ("layer0_ff1_w", every),
                           ("head_w", slice(0, 6)), ("head_b", slice(6, 9))):
            t = m.params[name].data[..., cols]
            flat_idx = rng.integers(0, t.size, size=3)
            for fi in flat_idx:
                idx = np.unravel_index(fi, t.shape)
                orig = t[idx]
                t[idx] = orig + h
                hi = loss_value()
                t[idx] = orig - h
                lo = loss_value()
                t[idx] = orig
                num = (hi - lo) / (2 * h)
                got = grads[name][..., cols][idx]
                assert got == pytest.approx(num, rel=1e-3, abs=1e-6)
                checked += 1
        assert checked == 15
