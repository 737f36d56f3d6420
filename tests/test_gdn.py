import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridkit.checkpoint import TransformerConfig, gen_toy_teacher
from hybridkit.gdn import (CHUNK, GdnBlockWeights, GdnConfig, GdnState,
                           delta_rule_chunked, delta_rule_chunked_backward,
                           delta_rule_sequential, gdn_backward,
                           gdn_forward_chunked, gdn_forward_sequential,
                           gdn_forward_train, gdn_param_count,
                           init_gdn_from_teacher, l2norm)
from hybridkit.numerics import repeat_kv, rmsnorm, silu

from conftest import distinct_elements


@pytest.fixture
def weights(toy_teacher, toy_gdn_config):
    return init_gdn_from_teacher(toy_teacher.layers[0], toy_teacher.config,
                                 toy_gdn_config, seed=1)


def random_core_inputs(seed, T, H=2, dk=6, dv=12, scale=0.5):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(H, T, dk)) * scale,
            rng.normal(size=(H, T, dk)) * scale,
            rng.normal(size=(H, T, dv)) * scale,
            -np.abs(rng.normal(size=(H, T)) * 0.1) - 1e-3,
            1.0 / (1.0 + np.exp(-rng.normal(size=(H, T)))),
            np.zeros((H, dk, dv)))


class TestRecurrenceCore:
    def test_decay_strictly_negative_gate(self, weights, toy_gdn_config, rng):
        from hybridkit.numerics import softplus

        x = rng.normal(size=(32, 32)) * 3
        g = -np.exp(weights.a_log) * softplus(x @ weights.w_alpha.T + weights.dt_bias)
        assert np.all(g < 0)
        assert np.all(np.exp(g) > 0) and np.all(np.exp(g) < 1)

    def test_beta_in_open_interval(self, weights, rng):
        from hybridkit.numerics import sigmoid

        beta = sigmoid(rng.normal(size=(16, 32)) @ weights.w_beta.T)
        assert np.all(beta > 0) and np.all(beta < 1)

    def test_single_step_outer_product(self):
        q, k, v, g, beta, s0 = random_core_inputs(3, T=1, H=1)
        o, s = delta_rule_sequential(q, k, v, g, beta, s0)
        # decay of a zero state leaves zero; the write is k (beta v)^T
        expect_s = k[0][0][:, None] * (beta[0, 0] * v[0][0])[None, :]
        assert np.allclose(s[0], expect_s, atol=1e-12)
        assert np.allclose(o[0, 0], expect_s.T @ q[0, 0] / np.sqrt(6), atol=1e-12)

    def test_repeated_write_idempotent_with_unit_key(self, rng):
        # writing (k, v) twice at beta=1 with a unit-norm key: reading with
        # q = k returns v (pre-normalization delta-rule property)
        dk, dv = 6, 12
        k1 = rng.normal(size=dk)
        k1 /= np.linalg.norm(k1)
        v1 = rng.normal(size=dv)
        q = np.stack([k1, k1])[None]
        k = np.stack([k1, k1])[None]
        v = np.stack([v1, v1])[None]
        g = np.zeros((1, 2)) - 1e-9
        beta = np.ones((1, 2))
        o, _ = delta_rule_sequential(q, k, v, g, beta, np.zeros((1, dk, dv)))
        assert np.max(np.abs(o[0, 1] * np.sqrt(dk) - v1)) < 1e-5

    @pytest.mark.parametrize("T", [64, 70, 256, 512])
    def test_chunked_equals_sequential_core(self, T):
        worst = 0.0
        for seed in range(25):
            q, k, v, g, beta, s0 = random_core_inputs(seed, T)
            o_seq, s_seq = delta_rule_sequential(q, k, v, g, beta, s0)
            o_chk, s_chk = delta_rule_chunked(q, k, v, g, beta, s0, chunk=64)
            scale = np.max(np.abs(o_seq)) + 1e-30
            worst = max(worst, np.max(np.abs(o_seq - o_chk)) / scale,
                        np.max(np.abs(s_seq - s_chk)) / scale)
        assert worst < 1e-4


class TestLayerForward:
    def test_zero_key_zero_output(self, weights, toy_gdn_config, rng):
        w = copy.deepcopy(weights)
        w.w_k[:] = 0.0
        w.conv_k[:] = 0.0
        x = rng.normal(size=(12, 32))
        y, state = gdn_forward_sequential(w, toy_gdn_config, x)
        assert np.all(state.s == 0)
        assert np.max(np.abs(y)) == 0.0

    def test_causality_exact(self, weights, toy_gdn_config, rng):
        x = rng.normal(size=(20, 32))
        base, _ = gdn_forward_sequential(weights, toy_gdn_config, x)
        x2 = x.copy()
        x2[15] += 1.0
        pert, _ = gdn_forward_sequential(weights, toy_gdn_config, x2)
        assert np.max(np.abs(pert[:15] - base[:15])) == 0.0

    @pytest.mark.parametrize("T", [64, 70, 256])
    def test_chunked_equals_sequential_layer(self, weights, toy_gdn_config, T, rng):
        x = rng.normal(size=(T, 32))
        y_seq, _ = gdn_forward_sequential(weights, toy_gdn_config, x)
        y_chk, _ = gdn_forward_chunked(weights, toy_gdn_config, x)
        rel = np.max(np.abs(y_seq - y_chk)) / (np.max(np.abs(y_seq)) + 1e-30)
        assert rel < 1e-5

    def test_state_continuation(self, weights, toy_gdn_config, rng):
        x = rng.normal(size=(128, 32))
        full, _ = gdn_forward_sequential(weights, toy_gdn_config, x)
        y1, st = gdn_forward_sequential(weights, toy_gdn_config, x[:64])
        y2, _ = gdn_forward_sequential(weights, toy_gdn_config, x[64:], state=st)
        assert np.max(np.abs(np.concatenate([y1, y2]) - full)) < 1e-6

    def test_single_token_decode_continuation(self, weights, toy_gdn_config, rng):
        x = rng.normal(size=(10, 32))
        full, _ = gdn_forward_sequential(weights, toy_gdn_config, x)
        state = None
        outs = []
        for t in range(10):
            y, state = gdn_forward_sequential(weights, toy_gdn_config, x[t:t + 1],
                                              state=state)
            outs.append(y)
        assert np.max(np.abs(np.concatenate(outs) - full)) < 1e-10

    def test_step_leaves_its_input_state_unchanged(self, weights, toy_gdn_config, rng):
        x = rng.normal(size=(6, 32))
        _, state = gdn_forward_chunked(weights, toy_gdn_config, x[:5])
        first, after_first = gdn_forward_sequential(weights, toy_gdn_config, x[5:],
                                                    state=state)
        second, after_second = gdn_forward_sequential(weights, toy_gdn_config, x[5:],
                                                      state=state)
        assert np.array_equal(first, second)
        for name in ("s", "conv_q", "conv_k", "conv_v"):
            assert np.array_equal(getattr(after_first, name), getattr(after_second, name))

    def test_batch_equals_its_sequences(self, toy_teacher, rng):
        # Batch and heads fold into the core's leading axis; nothing may mix
        # sequences. Each taped chunk holds its inverse, its corrections and
        # the state it started from, and nothing the inputs give back.
        cfg = GdnConfig(d=32, n_heads=2)
        w = init_gdn_from_teacher(toy_teacher.layers[0], toy_teacher.config, cfg,
                                  seed=4)
        B, T = 3, 2 * CHUNK + 5
        x = rng.normal(size=(B, T, 32))
        dy = rng.normal(size=(B, T, 32))
        tape = {}
        y, _ = gdn_forward_train(w, cfg, x, tape)
        dx, grads = gdn_backward(w, cfg, tape, dy)
        assert len(tape["core"]) == 3
        for chunk in tape["core"]:
            assert set(chunk) == {"a_inv", "u", "s_in", "span"}

        summed = {name: np.zeros_like(g) for name, g in grads.items()}
        for b in range(B):
            one_tape = {}
            y_b, _ = gdn_forward_train(w, cfg, x[b], one_tape)
            dx_b, grads_b = gdn_backward(w, cfg, one_tape, dy[b])
            assert np.max(np.abs(y[b] - y_b)) < 1e-12
            assert np.max(np.abs(dx[b] - dx_b)) < 1e-12
            for name, g in grads_b.items():
                summed[name] += g
        for name, g in grads.items():
            assert np.max(np.abs(g - summed[name])) < 1e-12, name

    def test_hand_evaluated_single_token(self, toy_teacher):
        tc = TransformerConfig(d_model=4, n_layers=1, n_q_heads=1, n_kv_heads=1,
                               head_dim=4, vocab=16, mlp_hidden=8)
        teacher = gen_toy_teacher(tc, 4)
        cfg = GdnConfig(d=4, n_heads=1)
        w = init_gdn_from_teacher(teacher.layers[0], tc, cfg, seed=9)
        x = np.random.default_rng(1).normal(size=(1, 4))
        y, state = gdn_forward_sequential(w, cfg, x)

        from hybridkit.gdn import l2norm
        from hybridkit.numerics import causal_conv1d, sigmoid, softplus

        q = l2norm(silu(causal_conv1d(x @ w.w_q.T, w.conv_q)))[0]
        k = l2norm(silu(causal_conv1d(x @ w.w_k.T, w.conv_k)))[0]
        v = silu(causal_conv1d(x @ w.w_v.T, w.conv_v))[0]
        beta = sigmoid(x @ w.w_beta.T)[0, 0]
        s1 = k[:, None] * (beta * v)[None, :]
        read = s1.T @ q / np.sqrt(cfg.d_k)
        gate = silu(x @ w.w_g.T)[0]
        expect = (rmsnorm(read, w.o_norm, 1e-6) * gate) @ w.w_o.T
        assert np.allclose(y[0], expect, atol=1e-10)
        assert np.allclose(state.s[0], s1, atol=1e-12)


class TestTape:
    def test_holds_inputs_and_carried_state_only(self, rng):
        # The benchmark's mixer (d 128, 4 heads) on a 512-token training
        # sequence: x, the raw and conv projections, the gate inputs, the
        # read, and per chunk the inverse, the corrections and S_in. The
        # tape that also held the rebuildable terms was 3,624 per token.
        cfg = GdnConfig(d=128, n_heads=4)
        w = GdnBlockWeights(**{name: rng.normal(size=shape) * 0.1
                               for name, shape in GdnBlockWeights.shapes(cfg).items()})
        B, T = 1, 16 * CHUNK
        tape = {}
        gdn_forward_train(w, cfg, rng.normal(size=(B, T, cfg.d)), tape)
        assert distinct_elements(tape) / (B * T) <= 1812


class TestProperties:
    @settings(max_examples=60)
    @given(T=st.integers(1, 200), chunk=st.integers(1, 96),
           H=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_chunked_core_equals_sequential(self, T, chunk, H, seed):
        q, k, v, g, beta, _ = random_core_inputs(seed, T, H=H)
        q, k = l2norm(q), l2norm(k)     # as the layer feeds the core
        s0 = np.random.default_rng(seed + 1).normal(size=(H, 6, 12))
        o_seq, s_seq = delta_rule_sequential(q, k, v, g, beta, s0)
        o_chk, s_chk = delta_rule_chunked(q, k, v, g, beta, s0, chunk=chunk)
        scale = np.max(np.abs(o_seq)) + np.max(np.abs(s_seq))
        assert np.max(np.abs(o_chk - o_seq)) / scale < 1e-10
        assert np.max(np.abs(s_chk - s_seq)) / scale < 1e-10

    @settings(max_examples=40)
    @given(T=st.integers(2, 40), chunk=st.integers(1, 16), H=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_chunked_backward_matches_central_differences(self, T, chunk, H, seed):
        # Chunks shorter than T, the last one often ragged, so the adjoint
        # carried across chunk boundaries is checked along with each chunk's.
        inputs = list(random_core_inputs(seed, T, H=H))
        rng = np.random.default_rng(seed + 1)
        inputs[5] = rng.normal(size=(H, 6, 12))         # non-zero s0
        weight = rng.normal(size=(H, T, 12))

        def loss(args):
            return np.sum(weight * delta_rule_chunked(*args, chunk=chunk)[0])

        tape = []
        delta_rule_chunked(*inputs, chunk=chunk, tape=tape)
        grads = delta_rule_chunked_backward(*inputs[:5], tape, weight)
        h = 1e-6
        for i, name in enumerate(("dq", "dk", "dv", "dg", "dbeta")):
            direction = rng.normal(size=inputs[i].shape)
            up, down = list(inputs), list(inputs)
            up[i] = inputs[i] + h * direction
            down[i] = inputs[i] - h * direction
            fd = (loss(up) - loss(down)) / (2 * h)
            an = np.sum(grads[i] * direction)
            assert abs(fd - an) <= 1e-6 * max(abs(fd), abs(an), 1.0), name

    @settings(max_examples=30)
    @given(data=st.data(), T=st.integers(2, 150),
           H=st.sampled_from([1, 2, 3, 4, 6]), seed=st.integers(0, 2**32 - 1))
    def test_chunked_continuation_equals_sequential(self, toy_teacher, data, T,
                                                    H, seed):
        split = data.draw(st.integers(1, T - 1), label="split")
        cfg = GdnConfig(d=32, n_heads=H)
        w = init_gdn_from_teacher(toy_teacher.layers[0], toy_teacher.config, cfg,
                                  seed=seed % 1000)
        x = np.random.default_rng(seed).normal(size=(T, 32))
        full, end = gdn_forward_sequential(w, cfg, x)
        y1, mid = gdn_forward_chunked(w, cfg, x[:split])
        y2, last = gdn_forward_chunked(w, cfg, x[split:], state=mid)
        scale = np.max(np.abs(full))
        assert np.max(np.abs(np.concatenate([y1, y2]) - full)) / scale < 1e-10
        assert np.max(np.abs(last.s - end.s)) < 1e-10
        for name in ("conv_q", "conv_k", "conv_v"):
            assert np.allclose(getattr(last, name), getattr(end, name),
                               rtol=0, atol=1e-12)

    @settings(max_examples=30)
    @given(data=st.data(), n_steps=st.integers(1, 12), H=st.sampled_from([1, 2, 4]),
           seed=st.integers(0, 2**32 - 1))
    def test_chunked_prefix_then_decode_steps_equal_chunked(self, toy_teacher, data,
                                                            n_steps, H, seed):
        # P = 0 starts the steps from no state, P < 3 from a conv history the
        # prefix only partly filled, and P near CHUNK from a prefix that ends
        # on either side of a chunk boundary.
        P = data.draw(st.one_of(st.sampled_from([0, 1, 2]),
                                st.integers(CHUNK - 2, 2 * CHUNK + 2)), label="P")
        cfg = GdnConfig(d=32, n_heads=H)
        w = init_gdn_from_teacher(toy_teacher.layers[0], toy_teacher.config, cfg,
                                  seed=seed % 1000)
        x = np.random.default_rng(seed).normal(size=(P + n_steps, 32))
        full, end = gdn_forward_chunked(w, cfg, x)
        outs, state = [], None
        if P:
            y, state = gdn_forward_chunked(w, cfg, x[:P])
            outs.append(y)
        for t in range(P, P + n_steps):
            y, state = gdn_forward_sequential(w, cfg, x[t:t + 1], state=state)
            outs.append(y)
        scale = np.max(np.abs(full))
        assert np.max(np.abs(np.concatenate(outs) - full)) / scale < 1e-10
        for name in ("s", "conv_q", "conv_k", "conv_v"):
            assert np.max(np.abs(getattr(state, name) - getattr(end, name))) < 1e-10


class TestInit:
    def test_no_expansion_when_heads_match(self):
        tc = TransformerConfig(d_model=32, n_layers=1, n_q_heads=4, n_kv_heads=4,
                               head_dim=8, vocab=64, mlp_hidden=64)
        teacher = gen_toy_teacher(tc, 0)
        cfg = GdnConfig(d=32, n_heads=2)
        w = init_gdn_from_teacher(teacher.layers[0], tc, cfg, seed=0)
        assert np.array_equal(w.w_q[:24], teacher.layers[0].wq[:24])
        assert np.array_equal(w.w_k[:24], teacher.layers[0].wk[:24])

    def test_llama_1b_shapes_with_group_expansion(self):
        tc = TransformerConfig(d_model=2048, n_layers=1, n_q_heads=32, n_kv_heads=8,
                               head_dim=64, vocab=1000, mlp_hidden=128)
        teacher = gen_toy_teacher(tc, 0)
        cfg = GdnConfig(d=2048, n_heads=6)
        w = init_gdn_from_teacher(teacher.layers[0], tc, cfg, seed=0)
        assert w.w_q.shape == (1536, 2048)
        assert w.w_v.shape == (3072, 2048)
        expanded = repeat_kv(teacher.layers[0].wk, 64, 4)
        assert np.array_equal(w.w_k, expanded[:1536].astype(np.float32).astype(np.float64))

    def test_value_rows_beyond_d_stay_random(self, toy_teacher, toy_gdn_config):
        tc = toy_teacher.config
        w = init_gdn_from_teacher(toy_teacher.layers[0], tc, toy_gdn_config, seed=1)
        expanded = repeat_kv(toy_teacher.layers[0].wv, tc.head_dim, tc.group)
        n_copy = min(tc.d_model, toy_gdn_config.d_v, expanded.shape[0])
        assert np.array_equal(w.w_v[:n_copy], expanded[:n_copy])
        assert not np.allclose(w.w_v[n_copy:], 0.0)

    def test_seeded_and_deterministic(self, toy_teacher, toy_gdn_config):
        a = init_gdn_from_teacher(toy_teacher.layers[0], toy_teacher.config,
                                  toy_gdn_config, seed=5)
        b = init_gdn_from_teacher(toy_teacher.layers[0], toy_teacher.config,
                                  toy_gdn_config, seed=5)
        assert np.array_equal(a.w_g, b.w_g) and np.array_equal(a.a_log, b.a_log)

    def test_a_log_and_dt_bias_ranges(self, weights):
        from hybridkit.numerics import softplus

        assert np.all(np.exp(weights.a_log) >= 1.0 - 1e-6)
        assert np.all(np.exp(weights.a_log) <= 16.0 + 1e-6)
        sp = softplus(weights.dt_bias)
        assert np.all(sp >= 1e-3 - 1e-9) and np.all(sp <= 1e-1 + 1e-9)

    def test_dk_exceeding_teacher_rows_rejected(self):
        tc = TransformerConfig(d_model=32, n_layers=1, n_q_heads=2, n_kv_heads=1,
                               head_dim=8, vocab=64, mlp_hidden=64)
        teacher = gen_toy_teacher(tc, 0)
        with pytest.raises(ValueError, match="fewer rows"):
            init_gdn_from_teacher(teacher.layers[0], tc, GdnConfig(d=32, n_heads=2),
                                  seed=0)


class TestParamCount:
    def test_reference_config(self):
        # 2*(1536*2048) + 3*(3072*2048) + 2*(6*2048) + 12 + 24,576 conv + 512 norm
        assert gdn_param_count(GdnConfig(d=2048, n_heads=6)) == 25_215_500

    def test_toy_matches_enumerated_tensors(self, toy_teacher, toy_gdn_config):
        w = init_gdn_from_teacher(toy_teacher.layers[0], toy_teacher.config,
                                  toy_gdn_config, seed=0)
        total = sum(t.size for t in w.named_tensors("x").values())
        assert gdn_param_count(toy_gdn_config) == total

    def test_quadratic_scaling(self):
        small = GdnConfig(d=64, n_heads=2)
        big = GdnConfig(d=128, n_heads=2)
        def quad(cfg):
            d = cfg.d
            return 2 * cfg.d_k * d + 3 * cfg.d_v * d
        assert quad(big) == 4 * quad(small)
