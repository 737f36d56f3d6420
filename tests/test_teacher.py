import numpy as np
import pytest

from hybridkit.accounting import track_allocations
from hybridkit.checkpoint import TransformerConfig, gen_toy_teacher
from hybridkit.numerics import repeat_kv, rmsnorm, softmax
from hybridkit.hybrid import teacher_forward
from hybridkit.teacher import gqa_attention


def mha_attention_oracle(attn, cfg, x, cos, sin):
    """GQA oracle: expand KV weights to full heads, run plain multi-head attention."""
    from hybridkit.numerics import apply_rope

    T = x.shape[0]
    d_h, H = cfg.head_dim, cfg.n_q_heads
    wk = repeat_kv(attn.wk, d_h, cfg.group)
    wv = repeat_kv(attn.wv, d_h, cfg.group)
    q = (x @ attn.wq.T).reshape(T, H, d_h)
    k = (x @ wk.T).reshape(T, H, d_h)
    v = (x @ wv.T).reshape(T, H, d_h)
    q = apply_rope(q, cos[:, None, :], sin[:, None, :])
    k = apply_rope(k, cos[:, None, :], sin[:, None, :])
    mask = np.triu(np.full((T, T), -np.inf), k=1)
    ctx = np.empty((T, H, d_h))
    for h in range(H):
        ctx[:, h] = softmax(q[:, h] @ k[:, h].T / np.sqrt(d_h) + mask) @ v[:, h]
    return ctx.reshape(T, H * d_h) @ attn.wo.T


class TestTeacherForward:
    def test_single_token_attention_is_identity_weighting(self, toy_teacher):
        out = teacher_forward(toy_teacher, [5], want_trace=True)
        layer = toy_teacher.layers[0]
        cfg = toy_teacher.config
        x = rmsnorm(toy_teacher.embedding[[5]], layer.norm_attn, cfg.eps)
        v = (x @ layer.mixer.wv.T).reshape(1, cfg.n_kv_heads, cfg.head_dim)
        v_full = np.repeat(v, cfg.group, axis=1).reshape(1, -1)
        assert np.allclose(out.mixer_outputs[0], v_full @ layer.mixer.wo.T, atol=1e-12)

    def test_causality_exact(self, toy_teacher, rng):
        toks = rng.integers(0, 64, size=12)
        base = teacher_forward(toy_teacher, toks).logits
        toks2 = toks.copy()
        toks2[8] = (toks2[8] + 1) % 64
        pert = teacher_forward(toy_teacher, toks2).logits
        assert np.max(np.abs(pert[:8] - base[:8])) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_gqa_equals_expanded_mha_oracle(self, toy_config, seed):
        from hybridkit.numerics import rope_inv_freq, rope_tables

        teacher = gen_toy_teacher(toy_config, seed)
        rng = np.random.default_rng(seed + 100)
        x = rng.normal(size=(7, toy_config.d_model))
        cos, sin = rope_tables(rope_inv_freq(toy_config.head_dim,
                                             toy_config.rope_theta), np.arange(7))
        ours, _ = gqa_attention(teacher.layers[0].mixer, toy_config, x, cos, sin)
        oracle = mha_attention_oracle(teacher.layers[0].mixer, toy_config, x, cos, sin)
        assert np.max(np.abs(ours - oracle)) < 1e-6

    def test_attention_rows_sum_to_one(self, toy_teacher, rng):
        # softmax invariant holds by construction; checked via the probs of a
        # directly evaluated layer
        from hybridkit.numerics import apply_rope, rope_inv_freq, rope_tables

        cfg = toy_teacher.config
        layer = toy_teacher.layers[0].mixer
        x = rng.normal(size=(9, cfg.d_model))
        cos, sin = rope_tables(rope_inv_freq(cfg.head_dim, cfg.rope_theta), np.arange(9))
        q = apply_rope((x @ layer.wq.T).reshape(9, 4, 8), cos[:, None, :], sin[:, None, :])
        k = apply_rope((x @ layer.wk.T).reshape(9, 2, 8), cos[:, None, :], sin[:, None, :])
        mask = np.triu(np.full((9, 9), -np.inf), k=1)
        p = softmax(q[:, 0] @ k[:, 0].T / np.sqrt(8) + mask)
        assert np.allclose(p.sum(-1), 1.0, atol=1e-6)

    def test_logit_free_path_skips_lm_head(self, toy_teacher, rng):
        toks = rng.integers(0, 64, size=10)
        with track_allocations() as tracker:
            out = teacher_forward(toy_teacher, toks, want_logits=False)
        assert out.logits is None
        assert tracker.largest("teacher_logits") == 0
        with track_allocations() as tracker:
            teacher_forward(toy_teacher, toks, want_logits=True)
        assert tracker.largest("teacher_logits") == 10 * 64

    def test_finite_logits_and_trace_shapes(self, toy_teacher, rng):
        toks = rng.integers(0, 64, size=16)
        out = teacher_forward(toy_teacher, toks, want_trace=True)
        assert np.all(np.isfinite(out.logits))
        assert len(out.hidden_states) == 4 and len(out.mixer_outputs) == 4
        assert all(h.shape == (16, 32) for h in out.hidden_states)

    def test_id_out_of_range(self, toy_teacher):
        with pytest.raises(ValueError, match="out of range"):
            teacher_forward(toy_teacher, [64])

    def test_qk_norm_variant_runs(self):
        cfg = TransformerConfig(d_model=32, n_layers=2, n_q_heads=4, n_kv_heads=2,
                                head_dim=8, vocab=64, mlp_hidden=64, qk_norm=True)
        teacher = gen_toy_teacher(cfg, 3)
        out = teacher_forward(teacher, [1, 2, 3])
        assert np.all(np.isfinite(out.logits))
