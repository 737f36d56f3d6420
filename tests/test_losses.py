import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridkit.accounting import track_allocations
from hybridkit.losses import (LossConfig, fused_linear_ce, ild_grads, ild_loss,
                              kl_chunked, kl_hidden, kl_naive, kl_online)
from hybridkit.teacher import Trace


def kl_scalar_oracle(z_s, z_t, eps=1e-12):
    """Reference: per-token softmax with explicit loops and a probability floor."""
    total = 0.0
    for i in range(z_s.shape[0]):
        ps = np.exp(z_s[i] - z_s[i].max())
        ps /= ps.sum()
        pt = np.exp(z_t[i] - z_t[i].max())
        pt /= pt.sum()
        total += float(np.sum(ps * (np.log(ps + eps) - np.log(pt + eps))))
    return total / z_s.shape[0]


def traced(loss, *args):
    """Call `loss`; check that its reported peak is the recorder's peak."""
    with track_allocations() as tracker:
        out = loss(*args)
    assert out.peak_elements == tracker.peak_elements > 0
    return out


def make_trace(hs, as_):
    return Trace(hidden_states=hs, mixer_outputs=as_,
                 final_hidden=hs[-1] if hs else None)


class TestIld:
    def test_identical_traces_zero(self, rng):
        hs = [rng.normal(size=(6, 8)) for _ in range(3)]
        as_ = [rng.normal(size=(6, 8)) for _ in range(3)]
        out = ild_loss(make_trace(hs, as_), make_trace(list(hs), list(as_)))
        assert out.value == 0.0

    def test_unit_residual(self, rng):
        h_t = rng.normal(size=(4, 4))
        a = rng.normal(size=(4, 4))
        h_s = h_t.copy()
        h_s[2, 1] += 1.0
        out = ild_loss(make_trace([h_s], [a.copy()]), make_trace([h_t], [a]))
        assert np.isclose(out.value, 1.0)

    def test_matches_scalar_oracle(self, rng):
        hs_s = [rng.normal(size=(5, 7)) for _ in range(2)]
        as_s = [rng.normal(size=(5, 7)) for _ in range(2)]
        hs_t = [rng.normal(size=(5, 7)) for _ in range(2)]
        as_t = [rng.normal(size=(5, 7)) for _ in range(2)]
        expect = 0.0
        for s, t in zip(hs_s + as_s, hs_t + as_t):
            expect += np.sqrt(sum((s[i, j] - t[i, j]) ** 2
                                  for i in range(5) for j in range(7)))
        out = ild_loss(make_trace(hs_s, as_s), make_trace(hs_t, as_t))
        assert abs(out.value - expect) < 1e-6

    def test_grads_match_fd(self, rng):
        hs_s = [rng.normal(size=(3, 4))]
        as_s = [rng.normal(size=(3, 4))]
        hs_t = [rng.normal(size=(3, 4))]
        as_t = [rng.normal(size=(3, 4))]
        _, dh, da = ild_grads(make_trace(hs_s, as_s), make_trace(hs_t, as_t))
        h = 1e-6
        hp = [hs_s[0].copy()]
        hp[0][1, 2] += h
        up = ild_loss(make_trace(hp, as_s), make_trace(hs_t, as_t)).value
        hm = [hs_s[0].copy()]
        hm[0][1, 2] -= h
        dn = ild_loss(make_trace(hm, as_s), make_trace(hs_t, as_t)).value
        assert abs((up - dn) / (2 * h) - dh[0][1, 2]) < 1e-6

    def test_zero_delta_grad_is_zero(self, rng):
        hs = [rng.normal(size=(3, 4))]
        as_ = [rng.normal(size=(3, 4))]
        _, dh, da = ild_grads(make_trace([hs[0].copy()], [as_[0].copy()]),
                              make_trace(hs, as_))
        assert np.all(dh[0] == 0) and np.all(da[0] == 0)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            ild_loss(make_trace([np.ones((2, 3))], [np.ones((2, 3))]),
                     make_trace([np.ones((2, 4))], [np.ones((2, 4))]))


class TestKlNaive:
    def test_equal_logits_zero(self, rng):
        z = rng.normal(size=(5, 9))
        out = kl_naive(z, z.copy())
        assert out.value == 0.0
        assert np.max(np.abs(out.grad)) < 1e-15

    def test_hand_case(self):
        out = kl_naive(np.array([[0.0, 0.0]]), np.array([[0.0, np.log(3.0)]]))
        assert np.isclose(out.value, 0.5 * np.log(4.0 / 3.0), atol=1e-9)

    def test_matches_scalar_oracle(self, rng):
        z_s = rng.normal(size=(6, 11))
        z_t = rng.normal(size=(6, 11))
        assert np.isclose(kl_naive(z_s, z_t).value, kl_scalar_oracle(z_s, z_t),
                          atol=1e-9)

    def test_grad_matches_central_differences(self, rng):
        z_s = rng.normal(size=(4, 7))
        z_t = rng.normal(size=(4, 7))
        out = kl_naive(z_s, z_t)
        step = 1e-4
        worst = 0.0
        for i in range(4):
            for j in range(7):
                zp, zm = z_s.copy(), z_s.copy()
                zp[i, j] += step
                zm[i, j] -= step
                fd = (kl_naive(zp, z_t).value - kl_naive(zm, z_t).value) / (2 * step)
                worst = max(worst, abs(fd - out.grad[i, j])
                            / max(abs(fd), abs(out.grad[i, j]), 1e-9))
        assert worst < 1e-3

    def test_nonnegative_and_zero_iff_equal(self, rng):
        for seed in range(10):
            r = np.random.default_rng(seed)
            z_s = r.normal(size=(3, 8))
            z_t = z_s + r.normal(size=(3, 8)) * 0.1
            assert kl_naive(z_s, z_t).value > 0
            assert kl_naive(z_s, z_s + 3.0).value < 1e-12  # per-token shift


class TestBoundedPaths:
    def test_chunked_single_chunk_identical(self, rng):
        z_s = rng.normal(size=(10, 12))
        z_t = rng.normal(size=(10, 12))
        cfg = LossConfig(kl_chunk=64)
        assert abs(kl_chunked(z_s, z_t, cfg).value - kl_naive(z_s, z_t).value) < 1e-9

    def test_chunked_long_sequence(self):
        rng = np.random.default_rng(1)
        z_s = rng.normal(size=(10_000, 50))
        z_t = rng.normal(size=(10_000, 50))
        cfg = LossConfig(kl_chunk=4096)
        ref = kl_naive(z_s, z_t)
        out = kl_chunked(z_s, z_t, cfg)
        assert abs(out.value - ref.value) < 1e-6
        assert np.max(np.abs(out.grad - ref.grad)) < 1e-9
        assert out.peak_elements <= 2 * 4096 * 50 + 2 * 10_000

    def test_online_single_tile_matches(self, rng):
        z_s = rng.normal(size=(8, 16))
        z_t = rng.normal(size=(8, 16))
        cfg = LossConfig(vocab_tile=64)
        assert abs(kl_online(z_s, z_t, cfg).value - kl_naive(z_s, z_t).value) < 1e-7

    def test_online_many_tiles(self, rng):
        z_s = rng.normal(size=(40, 1000))
        z_t = rng.normal(size=(40, 1000))
        cfg = LossConfig(vocab_tile=64)
        ref = kl_naive(z_s, z_t)
        out = kl_online(z_s, z_t, cfg)
        assert abs(out.value - ref.value) < 1e-5
        assert np.max(np.abs(out.grad - ref.grad)) < 1e-9

    def test_online_overflow_stress_shift_invariance(self, rng):
        z_s = rng.normal(size=(6, 50))
        z_t = rng.normal(size=(6, 50))
        cfg = LossConfig(vocab_tile=16)
        base = kl_online(z_s, z_t, cfg).value
        shifted = kl_online(z_s + 1000.0, z_t - 500.0, cfg).value
        assert np.isfinite(shifted)
        assert abs(shifted - base) < 1e-5

    def test_hidden_zero_hidden_states_uniform(self):
        h = np.zeros((4, 6))
        w = np.random.default_rng(0).normal(size=(10, 6))
        out = kl_hidden(h, w, np.zeros((4, 8)),
                        np.random.default_rng(1).normal(size=(10, 8)))
        assert abs(out.value) < 1e-12

    def test_hidden_accepts_different_widths(self, rng):
        out = kl_hidden(rng.normal(size=(5, 8)), rng.normal(size=(12, 8)),
                        rng.normal(size=(5, 12)), rng.normal(size=(12, 12)))
        assert np.isfinite(out.value)

    def test_hidden_matches_logit_path(self, rng):
        T, V = 300, 40
        h_s = rng.normal(size=(T, 8))
        w_s = rng.normal(size=(V, 8))
        h_t = rng.normal(size=(T, 12))
        w_t = rng.normal(size=(V, 12))
        cfg = LossConfig(kl_chunk=128, vocab_tile=16)
        ref = kl_naive(h_s @ w_s.T, h_t @ w_t.T)
        out = kl_hidden(h_s, w_s, h_t, w_t, cfg)
        assert abs(out.value - ref.value) < 1e-6
        assert np.max(np.abs(out.grad - ref.grad @ w_s)) < 1e-9
        assert out.peak_elements < T * V

    def test_hidden_vocab_mismatch(self, rng):
        with pytest.raises(ValueError, match="vocab"):
            kl_hidden(np.ones((3, 4)), np.ones((7, 4)),
                      np.ones((3, 4)), np.ones((8, 4)))

    def test_swapped_direction_matches_oracle_and_paths(self, rng):
        T, V, d_s, d_t = 40, 25, 6, 9
        h_s = rng.normal(size=(T, d_s))
        w_s = rng.normal(size=(V, d_s))
        h_t = rng.normal(size=(T, d_t))
        w_t = rng.normal(size=(V, d_t))
        z_s, z_t = h_s @ w_s.T, h_t @ w_t.T
        cfg = LossConfig(kl_chunk=16, vocab_tile=8, swap_direction=True)
        # scalar oracle for KL(teacher || student)
        expect = 0.0
        for i in range(T):
            ps = np.exp(z_s[i] - z_s[i].max())
            ps /= ps.sum()
            pt = np.exp(z_t[i] - z_t[i].max())
            pt /= pt.sum()
            expect += float(np.sum(pt * (np.log(pt) - np.log(ps)))) / T
        ref = kl_naive(z_s, z_t, cfg)
        assert abs(ref.value - expect) < 1e-9
        for out in (kl_chunked(z_s, z_t, cfg), kl_online(z_s, z_t, cfg)):
            assert abs(out.value - ref.value) < 1e-9
            assert np.max(np.abs(out.grad - ref.grad)) < 1e-12
        hid = kl_hidden(h_s, w_s, h_t, w_t, cfg)
        assert abs(hid.value - ref.value) < 1e-9
        assert np.max(np.abs(hid.grad - ref.grad @ w_s)) < 1e-12

    def test_swapped_grad_is_probability_difference(self, rng):
        z_s = rng.normal(size=(3, 7))
        z_t = rng.normal(size=(3, 7))
        out = kl_naive(z_s, z_t, LossConfig(swap_direction=True))
        from hybridkit.numerics import softmax

        assert np.allclose(out.grad, (softmax(z_s) - softmax(z_t)) / 3, atol=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_all_paths_agree(self, seed):
        r = np.random.default_rng(seed)
        T = int(r.integers(2, 60))
        V = int(r.integers(4, 80))
        d_s, d_t = int(r.integers(3, 10)), int(r.integers(3, 10))
        h_s = r.normal(size=(T, d_s)) * r.uniform(0.5, 3)
        w_s = r.normal(size=(V, d_s))
        h_t = r.normal(size=(T, d_t))
        w_t = r.normal(size=(V, d_t))
        z_s, z_t = h_s @ w_s.T, h_t @ w_t.T
        cfg = LossConfig(kl_chunk=16, vocab_tile=8)
        ref = kl_naive(z_s, z_t)
        for out in (kl_chunked(z_s, z_t, cfg), kl_online(z_s, z_t, cfg)):
            assert abs(out.value - ref.value) < 1e-5
            assert np.max(np.abs(out.grad - ref.grad)) < 1e-4
        hid = kl_hidden(h_s, w_s, h_t, w_t, cfg)
        assert abs(hid.value - ref.value) < 1e-5
        assert np.max(np.abs(hid.grad - ref.grad @ w_s)) < 1e-4

    @staticmethod
    def rescale_case(case, r):
        """Heads whose logits carry a last column: 30 on the vocabulary
        columns where the max of every even row should land (odd rows keep
        theirs where it falls), or a shift of +700 (student) and -700
        (teacher) on every logit. Returns the heads and (C, B)."""
        T, V, C, B, cols = {"max_in_first_tile": (48, 64, 16, 16, slice(0, 16)),
                            "max_in_last_tile": (48, 64, 16, 16, slice(48, 64)),
                            "max_in_ragged_last_tile": (37, 70, 16, 16, slice(64, 70)),
                            "logits_near_700": (37, 70, 16, 16, None)}[case]
        heads = []
        for shift in (700.0, -700.0):
            d = int(r.integers(3, 8))
            h = np.hstack([r.normal(size=(T, d)), np.ones((T, 1))])
            w = np.hstack([r.normal(size=(V, d)) * 0.3, np.zeros((V, 1))])
            if cols is None:
                w[:, -1] = shift
            else:
                h[1::2, -1] = 0.0
                w[cols, -1] = 30.0
                assert np.all(np.isin(np.argmax(h @ w.T, axis=1)[::2],
                                      np.arange(V)[cols]))
            heads += [h, w]
        return heads, C, B

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("case", ["max_in_first_tile", "max_in_last_tile",
                                      "max_in_ragged_last_tile", "logits_near_700"])
    def test_tiled_paths_rescale_under_the_running_max(self, rng, case, swap):
        (h_s, w_s, h_t, w_t), C, B = self.rescale_case(case, rng)
        z_s, z_t = h_s @ w_s.T, h_t @ w_t.T
        cfg = LossConfig(kl_chunk=C, vocab_tile=B, swap_direction=swap)
        ref = kl_naive(z_s, z_t, cfg)
        online = kl_online(z_s, z_t, cfg)
        assert abs(online.value - ref.value) < 1e-10
        assert np.max(np.abs(online.grad - ref.grad)) < 1e-12
        hidden = kl_hidden(h_s, w_s, h_t, w_t, cfg)
        assert abs(hidden.value - ref.value) < 1e-10
        assert np.max(np.abs(hidden.grad - ref.grad @ w_s)) < 1e-10

    @settings(max_examples=80)
    @given(T=st.integers(1, 60), V=st.integers(1, 80), C=st.integers(1, 70),
           B=st.integers(1, 90), swap=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_paths_agree_and_report_their_peak(self, T, V, C, B, swap, seed):
        r = np.random.default_rng(seed)
        d_s, d_t = int(r.integers(1, 10)), int(r.integers(1, 10))
        h_s = r.normal(size=(T, d_s)) * r.uniform(0.5, 3)
        w_s = r.normal(size=(V, d_s))
        h_t = r.normal(size=(T, d_t))
        w_t = r.normal(size=(V, d_t))
        z_s, z_t = h_s @ w_s.T, h_t @ w_t.T
        cfg = LossConfig(kl_chunk=C, vocab_tile=B, swap_direction=swap)
        ref = traced(kl_naive, z_s, z_t, cfg)
        chunked = traced(kl_chunked, z_s, z_t, cfg)
        online = traced(kl_online, z_s, z_t, cfg)
        hidden = traced(kl_hidden, h_s, w_s, h_t, w_t, cfg)
        traced(fused_linear_ce, h_s, w_s, r.integers(0, V, size=T), cfg)
        for out in (chunked, online):
            assert abs(out.value - ref.value) < 1e-10
            assert np.max(np.abs(out.grad - ref.grad)) < 1e-12
        assert abs(hidden.value - ref.value) < 1e-10
        assert np.max(np.abs(hidden.grad - ref.grad @ w_s)) < 1e-10


class TestFusedLinearCe:
    def test_saturated_logits_zero_loss(self):
        w = np.eye(4)
        h = np.zeros((3, 4))
        targets = np.array([1, 2, 0])
        for i, t in enumerate(targets):
            h[i, t] = 50.0
        out = fused_linear_ce(h, w, targets)
        assert out.value < 1e-6

    def test_matches_naive_ce(self, rng):
        T, V, d = 500, 64, 16
        h = rng.normal(size=(T, d))
        w = rng.normal(size=(V, d))
        targets = rng.integers(0, V, size=T)
        cfg = LossConfig(kl_chunk=128)
        z = h @ w.T
        z -= z.max(axis=-1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(-1, keepdims=True)
        naive = -np.mean(np.log(p[np.arange(T), targets]))
        out = fused_linear_ce(h, w, targets, cfg)
        assert abs(out.value - naive) < 1e-6
        assert out.peak_elements <= 128 * V

    def test_grad_matches_central_differences(self, rng):
        h = rng.normal(size=(6, 5))
        w = rng.normal(size=(9, 5))
        targets = rng.integers(0, 9, size=6)
        out = fused_linear_ce(h, w, targets)
        step = 1e-4
        worst = 0.0
        for _ in range(20):
            i, j = rng.integers(0, 6), rng.integers(0, 5)
            hp, hm = h.copy(), h.copy()
            hp[i, j] += step
            hm[i, j] -= step
            fd = (fused_linear_ce(hp, w, targets).value
                  - fused_linear_ce(hm, w, targets).value) / (2 * step)
            worst = max(worst, abs(fd - out.grad[i, j])
                        / max(abs(fd), abs(out.grad[i, j]), 1e-9))
        assert worst < 1e-3

    def test_target_out_of_range(self, rng):
        with pytest.raises(ValueError, match="out of range"):
            fused_linear_ce(np.ones((2, 3)), np.ones((4, 3)), np.array([0, 4]))


class TestDeclaredMemory:
    """The transient memory a loss reports is the memory it holds: the
    traced peak stays within its peak_elements plus its output, in float64
    bytes, and 64 KiB of per-row vectors and interpreter objects. V is the
    benchmark's vocabulary. (Rows narrower than numpy's 8192-element ufunc
    buffer add that 64 KiB buffer to every broadcast operation: the tiled
    paths' rows are one vocabulary tile wide.)"""

    @staticmethod
    def traced_peak_bytes(loss, *args):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = loss(*args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("loss", [kl_naive, kl_chunked])
    def test_kl_row_blocks(self, rng, loss, swap):
        T, V, C = 100, 8192, 32         # T is not a multiple of C
        z_s, z_t = rng.normal(size=(T, V)) * 3, rng.normal(size=(T, V)) * 3
        cfg = LossConfig(kl_chunk=C, swap_direction=swap)
        out, peak = self.traced_peak_bytes(loss, z_s, z_t, cfg)
        assert peak <= 8 * (out.peak_elements + out.grad.size) + 64 * 1024

    def test_fused_linear_ce(self, rng):
        T, V, d, C = 100, 8192, 16, 32
        h, w = rng.normal(size=(T, d)), rng.normal(size=(V, d))
        targets = rng.integers(0, V, size=T)
        out, peak = self.traced_peak_bytes(fused_linear_ce, h, w, targets,
                                           LossConfig(kl_chunk=C))
        assert peak <= 8 * (out.peak_elements + out.grad.size) + 64 * 1024

    @pytest.mark.parametrize("swap", [False, True])
    def test_kl_online(self, rng, swap):
        """The gradient's own columns hold each student tile's exp, so the
        (T, B_V) scratch and the T V / B_V tile maxes fit in the second
        recorded tile; the column tiles reach the elementwise operations
        through copies into the scratch, one 64 KiB ufunc buffer at most."""
        T, V = 100, 8192
        z_s, z_t = rng.normal(size=(T, V)) * 3, rng.normal(size=(T, V)) * 3
        cfg = LossConfig(vocab_tile=128, swap_direction=swap)
        out, peak = self.traced_peak_bytes(kl_online, z_s, z_t, cfg)
        assert peak <= 8 * (out.peak_elements + out.grad.size) + 64 * 1024

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("d", [128, 512])           # d = B_V and d > B_V
    def test_kl_hidden(self, rng, d, swap):
        """Twice the recorded tiles (the stacked logits and their exps), two
        (C, d) buffers (the back-projection's product and one accumulator)
        and the output gradient, whose rows hold the other accumulator; its
        tile-wide broadcast operations add numpy's 64 KiB ufunc buffer."""
        T, V, C, B = 300, 8192, 128, 128              # T is not a multiple of C
        h_s, h_t = rng.normal(size=(T, d)), rng.normal(size=(T, d))
        w_s, w_t = rng.normal(size=(V, d)) * 0.1, rng.normal(size=(V, d)) * 0.1
        cfg = LossConfig(kl_chunk=C, vocab_tile=B, swap_direction=swap)
        out, peak = self.traced_peak_bytes(kl_hidden, h_s, w_s, h_t, w_t, cfg)
        held = 2 * out.peak_elements + 2 * C * d + out.grad.size
        assert peak <= 8 * held + 2 * 64 * 1024
