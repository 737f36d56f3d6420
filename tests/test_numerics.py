import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridkit import numerics as nm


# ---------------------------------------------------------------------------
# scalar-loop oracles
# ---------------------------------------------------------------------------

def rmsnorm_oracle(x, gamma, eps):
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        ms = sum(v * v for v in x[i]) / x.shape[1]
        for j in range(x.shape[1]):
            out[i, j] = x[i, j] / np.sqrt(ms + eps) * gamma[j]
    return out


def attention_oracle(q, k, v, scale, offset):
    """One head, one query row at a time: softmax over keys [0, offset + t],
    weight 0 on every later key. Returns (ctx, probs, lse)."""
    T, S = q.shape[0], k.shape[0]
    probs, lse = np.zeros((T, S)), np.zeros(T)
    for t in range(T):
        n = offset + t + 1
        scores = scale * (k[:n] @ q[t])
        top = scores.max()
        e = np.exp(scores - top)
        probs[t, :n] = e / e.sum()
        lse[t] = top + np.log(e.sum())
    return probs @ v, probs, lse


def full_attention_backward(q, k, v, scale, offset, dctx):
    """Adjoint of softmax attention over the whole (..., T, S) matrix."""
    T, S = q.shape[-2], k.shape[-2]
    scores = scale * q @ np.swapaxes(k, -1, -2)
    scores += np.triu(np.full((T, S), -np.inf), k=1 + offset)
    p = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    dp = dctx @ np.swapaxes(v, -1, -2)
    ds = scale * p * (dp - np.sum(dp * p, axis=-1, keepdims=True))
    return ds @ k, np.swapaxes(ds, -1, -2) @ q, np.swapaxes(p, -1, -2) @ dctx


def conv_oracle(x, kernel):
    T, c = x.shape
    out = np.zeros((T, c))
    for t in range(T):
        for ch in range(c):
            for k in range(4):
                src = t - 3 + k
                if src >= 0:
                    out[t, ch] += kernel[ch, k] * x[src, ch]
    return out


def softmax_oracle(row):
    e = [np.exp(v - max(row)) for v in row]
    s = sum(e)
    return np.array([v / s for v in e])


class TestActivations:
    def test_sigmoid_zero(self):
        assert nm.sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_keeps_relative_precision_for_negative_x(self):
        # e^(x - log(1 + e^x)) is exact to rounding wherever it does not
        # underflow; the tanh form lost all digits below x = -37.
        x = np.linspace(-700.0, 40.0, 20001)
        ref = np.exp(x - np.logaddexp(0.0, x))
        assert np.max(np.abs(nm.sigmoid(x) - ref) / ref) <= 1e-14

    def test_sigmoid_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = nm.sigmoid(np.array([-1000.0, 1000.0]))
        assert 0.0 <= out[0] < 1e-300 and out[1] == 1.0

    def test_softmax_zero_vector_uniform(self):
        out = nm.softmax(np.zeros(7))
        assert np.allclose(out, np.full(7, 1 / 7))

    def test_softmax_matches_oracle(self, rng):
        x = rng.normal(size=12)
        before = x.copy()
        assert np.allclose(nm.softmax(x), softmax_oracle(x), atol=1e-12)
        assert np.array_equal(x, before)

    def test_softmax_sums_to_one_and_shift_invariant(self, rng):
        for seed in range(10):
            x = np.random.default_rng(seed).normal(size=(5, 33)) * 10
            p = nm.softmax(x)
            assert np.allclose(p.sum(-1), 1.0, atol=1e-6)
            assert np.allclose(nm.softmax(x + 123.0), p, atol=1e-9)

    def test_silu_and_softplus_oracle(self, rng):
        x = rng.normal(size=100) * 5
        assert np.allclose(nm.silu(x), x / (1 + np.exp(-x)))
        assert np.allclose(nm.softplus(x), np.log(1 + np.exp(x)))

    def test_softplus_overflow_safe(self):
        assert np.isfinite(nm.softplus(np.array([1000.0]))).all()

    def test_inverse_softplus_roundtrip(self, rng):
        y = rng.uniform(1e-3, 10, size=50)
        assert np.allclose(nm.softplus(nm.inverse_softplus(y)), y, rtol=1e-10)


class TestRmsnorm:
    def test_zero_vector(self):
        out = nm.rmsnorm(np.zeros((3, 8)), np.ones(8), 1e-6)
        assert np.all(out == 0)

    def test_unit_rms(self):
        x = np.ones((1, 4))
        out = nm.rmsnorm(x, np.ones(4), 1e-12)
        assert np.allclose(out, x, atol=1e-6)

    def test_matches_oracle(self, rng):
        x = rng.normal(size=(5, 16))
        gamma = rng.normal(size=16)
        assert np.allclose(nm.rmsnorm(x, gamma, 1e-5),
                           rmsnorm_oracle(x, gamma, 1e-5), atol=1e-7)

    def test_output_rms_is_unit(self, rng):
        x = rng.normal(size=(6, 32))
        out = nm.rmsnorm(x, np.ones(32), 1e-12)
        assert np.allclose(np.sum(out * out, axis=-1) / 32, 1.0, atol=1e-5)

    def test_gamma_length_mismatch(self):
        with pytest.raises(ValueError):
            nm.rmsnorm(np.ones((2, 4)), np.ones(5), 1e-6)

    def test_backward_matches_fd(self, rng):
        # (B, T, H, hv) with a last-axis gamma is the GDN output norm's call.
        for shape in ((3, 8), (2, 3, 2, 5)):
            x = rng.normal(size=shape)
            gamma = rng.normal(size=shape[-1])
            dy = rng.normal(size=shape)
            dx, dgamma = nm.rmsnorm_backward(x, gamma, 1e-5, dy)
            h = 1e-6

            def loss(x, gamma):
                return np.sum(nm.rmsnorm(x, gamma, 1e-5) * dy)

            for flat in range(x.size):
                idx = np.unravel_index(flat, shape)
                xp, xm = x.copy(), x.copy()
                xp[idx] += h
                xm[idx] -= h
                fd = (loss(xp, gamma) - loss(xm, gamma)) / (2 * h)
                assert abs(fd - dx[idx]) < 1e-6
            for j in range(shape[-1]):
                gp, gm = gamma.copy(), gamma.copy()
                gp[j] += h
                gm[j] -= h
                fd = (loss(x, gp) - loss(x, gm)) / (2 * h)
                assert abs(fd - dgamma[j]) < 1e-6


class TestCausalConv:
    def test_zeros(self):
        assert np.all(nm.causal_conv1d(np.zeros((6, 3)), np.ones((3, 4))) == 0)

    def test_delta_kernel_is_identity(self, rng):
        x = rng.normal(size=(1, 5))
        kernel = np.zeros((5, 4))
        kernel[:, 3] = 1.0
        assert np.allclose(nm.causal_conv1d(x, kernel), x)

    def test_matches_oracle(self, rng):
        x = rng.normal(size=(8, 6))
        kernel = rng.normal(size=(6, 4))
        assert np.allclose(nm.causal_conv1d(x, kernel), conv_oracle(x, kernel),
                           atol=1e-7)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            nm.causal_conv1d(np.ones((4, 3)), np.ones((2, 4)))

    def test_history_continuation(self, rng):
        x = rng.normal(size=(10, 3))
        kernel = rng.normal(size=(3, 4))
        full = nm.causal_conv1d(x, kernel)
        part = nm.causal_conv1d(x[6:], kernel, history=x[3:6])
        assert np.allclose(part, full[6:])

    @pytest.mark.parametrize("T", [1, 2])
    def test_history_longer_than_input(self, rng, T):
        # T < CONV_WIDTH - 1: every tap of the first outputs reads history
        # or x, never padding. The oracle convolves history and x as one
        # sequence; its last T rows are the continuation.
        history = rng.normal(size=(nm.CONV_WIDTH - 1, 3))
        x = rng.normal(size=(T, 3))
        kernel = rng.normal(size=(3, 4))
        padded = conv_oracle(np.concatenate([history, x]), kernel)
        assert np.allclose(nm.causal_conv1d(x, kernel, history=history),
                           padded[nm.CONV_WIDTH - 1:], atol=1e-12)

    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("T", [1, 2, 3, 9])
    def test_backward_matches_fd(self, rng, T, lead):
        x = rng.normal(size=lead + (T, 3))
        kernel = rng.normal(size=(3, nm.CONV_WIDTH))
        dy = rng.normal(size=x.shape)
        dx, dkernel = nm.causal_conv1d_backward(x, kernel, dy)
        h = 1e-6

        def loss(x, kernel):
            return np.sum(nm.causal_conv1d(x, kernel) * dy)

        for arr, grad in ((x, dx), (kernel, dkernel)):
            assert grad.shape == arr.shape
            for flat in range(arr.size):
                idx = np.unravel_index(flat, arr.shape)
                base = arr[idx]
                arr[idx] = base + h
                up = loss(x, kernel)
                arr[idx] = base - h
                down = loss(x, kernel)
                arr[idx] = base
                assert abs((up - down) / (2 * h) - grad[idx]) < 1e-7


# Draws for the attention kernel: T runs past three query blocks, with a ragged
# last one, and offset = S - T cached keys before the first query.
ATTENTION_DRAWS = dict(
    B=st.integers(1, 2), H_kv=st.integers(1, 3), group=st.integers(1, 4),
    T=st.integers(1, 3 * nm.ATTN_BLOCK + 5), prior=st.integers(0, 6),
    d=st.integers(1, 6), seed=st.integers(0, 2 ** 16))


def attention_inputs(B, H_kv, group, T, prior, d, seed):
    rng = np.random.default_rng(seed)
    S = T + prior
    q = rng.normal(size=(B, H_kv * group, T, d))
    k = rng.normal(size=(B, H_kv, S, d))
    v = rng.normal(size=(B, H_kv, S, d + 1))
    return rng, q, k, v, 1.0 / np.sqrt(d)


class TestCausalAttention:
    @settings(max_examples=40)
    @given(**ATTENTION_DRAWS)
    def test_grouped_heads_match_per_head_oracle(self, B, H_kv, group, T, prior,
                                                 d, seed):
        _, q, k, v, scale = attention_inputs(B, H_kv, group, T, prior, d, seed)
        S, H = T + prior, H_kv * group
        # Query head h reads KV head h // group through a broadcast axis.
        ctx, lse = nm.causal_attention(q.reshape(B, H_kv, group, T, d),
                                       k[:, :, None], v[:, :, None], scale,
                                       offset=prior)
        ctx = ctx.reshape(B, H, T, d + 1)
        lse = lse.reshape(B, H, T)
        masked = np.triu(np.ones((T, S), dtype=bool), k=1 + prior)
        for b, h in np.ndindex(B, H):
            kh = k[b, h // group]
            want_ctx, want_probs, want_lse = attention_oracle(
                q[b, h], kh, v[b, h // group], scale, prior)
            assert np.allclose(ctx[b, h], want_ctx, rtol=0, atol=1e-12)
            assert np.allclose(lse[b, h], want_lse, rtol=0, atol=1e-12)
            # The probabilities the backward rebuilds from lse.
            scores = np.where(masked, -np.inf, scale * q[b, h] @ kh.T)
            probs = np.exp(scores - lse[b, h][:, None])
            assert np.allclose(probs, want_probs, rtol=0, atol=1e-12)
            assert np.allclose(probs.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
            assert np.all(probs[masked] == 0.0)

    @settings(max_examples=40)
    @given(**ATTENTION_DRAWS)
    def test_backward_matches_full_adjoint_and_central_differences(
            self, B, H_kv, group, T, prior, d, seed):
        rng, q, k, v, scale = attention_inputs(B, H_kv, group, T, prior, d, seed)
        # The backward takes one key and value head per query head.
        k, v = np.repeat(k, group, axis=1), np.repeat(v, group, axis=1)
        weight = rng.normal(size=(B, H_kv * group, T, d + 1))
        ctx, lse = nm.causal_attention(q, k, v, scale, prior)
        delta = np.sum(weight * ctx, axis=-1)
        grads = nm.causal_attention_backward(q, k, v, scale, prior, lse, delta,
                                             weight)
        want = full_attention_backward(q, k, v, scale, prior, weight)
        for name, got, ref in zip(("dq", "dk", "dv"), grads, want):
            assert np.allclose(got, ref, rtol=0, atol=1e-12), name

        def loss(args):
            return np.sum(weight * nm.causal_attention(*args, scale, prior)[0])

        inputs, h = [q, k, v], 1e-6
        for i, name in enumerate(("dq", "dk", "dv")):
            direction = rng.normal(size=inputs[i].shape)
            up, down = list(inputs), list(inputs)
            up[i] = inputs[i] + h * direction
            down[i] = inputs[i] - h * direction
            fd = (loss(up) - loss(down)) / (2 * h)
            an = np.sum(grads[i] * direction)
            assert abs(fd - an) <= 1e-6 * max(abs(fd), abs(an), 1.0), name


class TestRepeatKv:
    def test_group_one_identity(self, rng):
        w = rng.normal(size=(6, 4))
        assert np.array_equal(nm.repeat_kv(w, 3, 1), w)

    def test_tiny_example(self):
        w = np.array([[1.0], [2.0]])
        assert np.array_equal(nm.repeat_kv(w, 1, 2),
                              np.array([[1.0], [1.0], [2.0], [2.0]]))

    def test_composition(self, rng):
        w = rng.normal(size=(8, 5))
        lhs = nm.repeat_kv(nm.repeat_kv(w, 2, 2), 2, 3)
        assert np.array_equal(lhs, nm.repeat_kv(w, 2, 6))

    def test_group_below_one(self):
        with pytest.raises(ValueError):
            nm.repeat_kv(np.ones((4, 2)), 2, 0)


class TestSvd:
    def test_identity(self):
        f = nm.svd(np.eye(3), 3)
        assert np.allclose(f.sigma, 1.0)
        assert np.allclose(f.u @ f.v.T, np.eye(3), atol=1e-10)

    def test_diagonal_spectrum(self):
        f = nm.svd(np.diag([3.0, 1.0]), 2)
        assert np.allclose(f.sigma, [3.0, 1.0])

    def test_reconstruction_vs_eigendecomposition_oracle(self, rng):
        a = rng.normal(size=(8, 5))
        f = nm.svd(a, 5)
        rec = f.u @ (f.sigma[:, None] * f.v.T)
        assert np.linalg.norm(rec - a) < 1e-6
        # independent oracle: singular values from the eigendecomposition of A^T A
        eigvals = np.sort(np.linalg.eigvalsh(a.T @ a))[::-1]
        assert np.allclose(f.sigma, np.sqrt(np.maximum(eigvals, 0)), atol=1e-8)

    def test_orthonormal_columns(self, rng):
        a = rng.normal(size=(10, 7))
        f = nm.svd(a, 4)
        assert np.allclose(f.u.T @ f.u, np.eye(4), atol=1e-5)
        assert np.allclose(f.v.T @ f.v, np.eye(4), atol=1e-5)

    def test_sigma_sorted_nonnegative_and_error_monotone(self, rng):
        a = rng.normal(size=(9, 6))
        prev_err = np.inf
        for r in range(1, 7):
            f = nm.svd(a, r)
            assert np.all(np.diff(f.sigma) <= 1e-12)
            assert np.all(f.sigma >= 0)
            err = np.linalg.norm(a - f.u @ (f.sigma[:, None] * f.v.T))
            assert err <= prev_err + 1e-12
            prev_err = err
        assert prev_err / np.linalg.norm(a) < 1e-5

    def test_deterministic(self, rng):
        a = rng.normal(size=(6, 6))
        f1, f2 = nm.svd(a, 4), nm.svd(a, 4)
        assert np.array_equal(f1.u, f2.u) and np.array_equal(f1.v, f2.v)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            nm.svd(np.eye(3), 4)

    def test_nonfinite_rejected(self):
        a = np.eye(3)
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            nm.svd(a, 2)


class TestRope:
    def test_position_zero_identity(self, rng):
        x = rng.normal(size=(1, 8))
        cos, sin = nm.rope_tables(nm.rope_inv_freq(8, 10000.0), np.array([0]))
        assert np.allclose(nm.apply_rope(x, cos, sin), x)

    def test_norm_preserved(self, rng):
        x = rng.normal(size=(16, 8))
        cos, sin = nm.rope_tables(nm.rope_inv_freq(8, 10000.0), np.arange(16))
        rotated = nm.apply_rope(x, cos, sin)
        assert np.allclose(np.linalg.norm(rotated, axis=-1),
                           np.linalg.norm(x, axis=-1), atol=1e-6)

    def test_backward_is_inverse_rotation(self, rng):
        x = rng.normal(size=(4, 8))
        cos, sin = nm.rope_tables(nm.rope_inv_freq(8, 10000.0), np.arange(4))
        assert np.allclose(nm.apply_rope_backward(nm.apply_rope(x, cos, sin), cos, sin),
                           x, atol=1e-12)

    def test_yarn_factor_one_unchanged(self):
        base = nm.rope_inv_freq(16, 10000.0)
        assert np.array_equal(nm.yarn_inv_freq(16, 10000.0, 1.0, 2048), base)

    def test_yarn_interpolates_low_frequencies(self):
        base = nm.rope_inv_freq(16, 10000.0)
        scaled = nm.yarn_inv_freq(16, 10000.0, 4.0, 2048)
        assert np.all(scaled <= base + 1e-15)
        assert np.isclose(scaled[-1], base[-1] / 4.0)   # slowest dim interpolated
        assert np.isclose(scaled[0], base[0])           # fastest dim untouched
