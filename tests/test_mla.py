import copy
from dataclasses import replace

import numpy as np
import pytest

from hybridkit.checkpoint import TransformerConfig, gen_toy_teacher
from hybridkit.mla import (MlaConfig, default_mla_config, init_mla_from_teacher,
                           mla_backward, mla_forward, yarn_scale)
from hybridkit.numerics import repeat_kv, rmsnorm


@pytest.fixture
def weights(toy_teacher, toy_mla_config):
    return init_mla_from_teacher(toy_teacher.layers[0], toy_teacher.config,
                                 toy_mla_config)


def interleave_query_factors(w, cfg, d_h):
    """Stack w_qb / w_qr rows back into per-head d_h blocks."""
    H, dn, dr = cfg.n_heads, cfg.d_qk_nope, cfg.d_qk_rope
    stack = np.zeros((H * d_h, cfg.r_q))
    for h in range(H):
        stack[h * d_h: h * d_h + dn] = w.w_qb[h * dn: (h + 1) * dn]
        stack[(h + 1) * d_h - dr: (h + 1) * d_h] = w.w_qr[h * dr: (h + 1) * dr]
    return stack


class TestForward:
    def test_zero_input(self, weights, toy_mla_config):
        y, cache = mla_forward(weights, toy_mla_config, np.zeros((5, 32)))
        assert np.all(y == 0)
        assert np.all(cache.latents == 0)

    def test_single_token_nope_single_head(self, toy_teacher):
        cfg = MlaConfig(r_q=8, r_kv=8, d_qk_nope=4, d_qk_rope=4, d_v=8, n_heads=1,
                        nope_mode=True)
        tc = TransformerConfig(d_model=32, n_layers=1, n_q_heads=1, n_kv_heads=1,
                               head_dim=8, vocab=64, mlp_hidden=64)
        teacher = gen_toy_teacher(tc, 2)
        w = init_mla_from_teacher(teacher.layers[0], tc, cfg)
        x = np.random.default_rng(0).normal(size=(1, 32))
        y, _ = mla_forward(w, cfg, x)
        latent = rmsnorm(x @ w.w_kva.T, w.norm_kv, cfg.eps)
        expected = (latent @ w.w_vb.T) @ w.w_o.T
        assert np.allclose(y, expected, atol=1e-10)

    def test_prefill_equals_prefill_plus_decode(self, weights, toy_mla_config, rng):
        x = rng.normal(size=(16, 32))
        full, _ = mla_forward(weights, toy_mla_config, x)
        part, cache = mla_forward(weights, toy_mla_config, x[:8])
        outs = [part]
        for t in range(8, 16):
            y, cache = mla_forward(weights, toy_mla_config, x[t:t + 1],
                                   cache=cache, position_offset=t)
            outs.append(y)
        assert np.max(np.abs(np.concatenate(outs) - full)) < 1e-5

    @pytest.mark.parametrize("flags", [
        {}, {"nope_mode": True}, {"gate_mode": True},
        {"yarn_factor": 4.0, "orig_context": 4}])
    def test_single_token_step_matches_prefill_rows(self, toy_teacher, toy_mla_config,
                                                    rng, flags):
        # The cached one-token step attends in latent space; prefill expands
        # per-head keys and values. Both compute the same attention.
        cfg = replace(toy_mla_config, **flags)
        w = init_mla_from_teacher(toy_teacher.layers[0], toy_teacher.config, cfg)
        x = rng.normal(size=(12, 32))
        full, _ = mla_forward(w, cfg, x)
        _, cache = mla_forward(w, cfg, x[:1])
        for t in range(1, 12):
            y, cache = mla_forward(w, cfg, x[t:t + 1], cache=cache, position_offset=t)
            assert np.max(np.abs(y - full[t:t + 1])) < 1e-12

    def test_cache_stores_exactly_budgeted_elements(self, weights, toy_mla_config, rng):
        cfg = toy_mla_config
        x = rng.normal(size=(7, 32))
        _, cache = mla_forward(weights, cfg, x[:6])
        _, stepped = mla_forward(weights, cfg, x[6:], cache=cache, position_offset=6)
        for n, c in ((6, cache), (7, stepped)):
            per_token = c.latents.shape[1] + c.rope_keys.shape[1]
            assert per_token == cfg.cache_per_token
            assert c.latents.shape[0] == n
            # One array holds both parts, with no spare capacity.
            assert c.latents.base is c.rope_keys.base
            assert c.latents.base.size == n * cfg.cache_per_token
            # Latents are stored normalized, so a step never re-normalizes them.
            assert np.allclose(c.latents, rmsnorm(x[:n] @ weights.w_kva.T,
                                                  weights.norm_kv, cfg.eps),
                               rtol=0, atol=1e-14)

    def test_nope_mode_shift_equivariant(self, toy_teacher, toy_mla_config, rng):
        cfg = copy.deepcopy(toy_mla_config)
        cfg.nope_mode = True
        w = init_mla_from_teacher(toy_teacher.layers[0], toy_teacher.config, cfg)
        x = rng.normal(size=(6, 32))
        base, _ = mla_forward(w, cfg, x, position_offset=0)
        shifted, _ = mla_forward(w, cfg, x, position_offset=37)
        assert np.max(np.abs(base - shifted)) < 1e-5

    def test_gate_zero_halves_output(self, toy_teacher, toy_mla_config, rng):
        cfg = copy.deepcopy(toy_mla_config)
        cfg.gate_mode = True
        w = init_mla_from_teacher(toy_teacher.layers[0], toy_teacher.config, cfg)
        w.w_gate[:] = 0.0
        x = rng.normal(size=(4, 32))
        gated, _ = mla_forward(w, cfg, x)
        cfg2 = copy.deepcopy(cfg)
        cfg2.gate_mode = False
        w2 = copy.deepcopy(w)
        w2.w_gate = None
        ungated, _ = mla_forward(w2, cfg2, x)
        assert np.allclose(gated, 0.5 * ungated, atol=1e-12)

    def test_position_overflow_rejected(self, weights, toy_mla_config, rng):
        cfg = copy.deepcopy(toy_mla_config)
        cfg.orig_context = 8
        with pytest.raises(ValueError, match="exceeds"):
            mla_forward(weights, cfg, rng.normal(size=(9, 32)))


class TestInit:
    def test_rank1_exact(self, toy_teacher):
        tc = toy_teacher.config
        layer = copy.deepcopy(toy_teacher.layers[0])
        rng = np.random.default_rng(5)
        u = rng.normal(size=(tc.n_q_heads * tc.head_dim, 1))
        v = rng.normal(size=(1, tc.d_model))
        layer.wq = u @ v
        cfg = MlaConfig(r_q=1, r_kv=8, d_qk_nope=4, d_qk_rope=4, d_v=8, n_heads=4)
        w = init_mla_from_teacher(layer, tc, cfg)
        stack = interleave_query_factors(w, cfg, tc.head_dim)
        assert np.linalg.norm(stack @ w.w_qa - layer.wq) / np.linalg.norm(layer.wq) < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_full_rank_reconstruction(self, toy_config, seed):
        teacher = gen_toy_teacher(toy_config, seed)
        tc = toy_config
        cfg = MlaConfig(r_q=min(tc.n_q_heads * tc.head_dim, tc.d_model),
                        r_kv=min(2 * tc.n_q_heads * tc.head_dim, tc.d_model),
                        d_qk_nope=4, d_qk_rope=4, d_v=8, n_heads=4)
        w = init_mla_from_teacher(teacher.layers[0], tc, cfg)
        stack = interleave_query_factors(w, cfg, tc.head_dim)
        err_q = (np.linalg.norm(stack @ w.w_qa - teacher.layers[0].wq)
                 / np.linalg.norm(teacher.layers[0].wq))
        assert err_q < 1e-5
        kv = np.concatenate([repeat_kv(teacher.layers[0].wk, tc.head_dim, tc.group),
                             repeat_kv(teacher.layers[0].wv, tc.head_dim, tc.group)])
        rows = tc.n_q_heads * tc.head_dim
        kv_stack = np.zeros((2 * rows, cfg.r_kv))
        for h in range(tc.n_q_heads):
            kv_stack[h * 8: h * 8 + 4] = w.w_kb[h * 4: (h + 1) * 4]
        kv_stack[rows:] = w.w_vb
        rec = kv_stack @ w.w_kva
        # rope rows of each key head were deliberately discarded; compare kept rows
        kept = np.ones(2 * rows, dtype=bool)
        for h in range(tc.n_q_heads):
            kept[h * 8 + 4: (h + 1) * 8] = False
        err_kv = (np.linalg.norm(rec[kept] - kv[kept]) / np.linalg.norm(kv[kept]))
        assert err_kv < 1e-5

    def test_llama_1b_cache_constant(self):
        tc = TransformerConfig(d_model=2048, n_layers=16, n_q_heads=32, n_kv_heads=8,
                               head_dim=64, vocab=128256, mlp_hidden=8192)
        cfg = default_mla_config(tc, cache_per_token=160)
        assert cfg.cache_per_token == 160
        assert cfg.d_qk_rope == 32 and cfg.r_kv == 128

    def test_rank_too_large_rejected(self, toy_teacher):
        cfg = MlaConfig(r_q=999, r_kv=8, d_qk_nope=4, d_qk_rope=4, d_v=8, n_heads=4)
        with pytest.raises(ValueError, match="r_q"):
            init_mla_from_teacher(toy_teacher.layers[0], toy_teacher.config, cfg)

    def test_kr_is_head_averaged_tail_rows(self, toy_teacher, toy_mla_config, weights):
        tc = toy_teacher.config
        wk_full = repeat_kv(toy_teacher.layers[0].wk, tc.head_dim, tc.group)
        avg = wk_full.reshape(tc.n_q_heads, tc.head_dim, tc.d_model).mean(axis=0)
        expected = avg[tc.head_dim - toy_mla_config.d_qk_rope:]
        assert np.allclose(weights.w_kr, expected.astype(np.float32), atol=1e-7)


class TestYarn:
    def test_identity_factor(self, toy_mla_config):
        assert yarn_scale(toy_mla_config, 1.0).max_context == 2048

    def test_factor_four(self, toy_mla_config):
        assert yarn_scale(toy_mla_config, 4.0).max_context == 8192

    def test_factor_thirty_two(self, toy_mla_config):
        assert yarn_scale(toy_mla_config, 32.0).max_context == 65536

    def test_scaled_model_runs_past_original_context(self, toy_teacher, rng):
        cfg = MlaConfig(r_q=16, r_kv=8, d_qk_nope=4, d_qk_rope=4, d_v=8, n_heads=4,
                        orig_context=16)
        w = init_mla_from_teacher(toy_teacher.layers[0], toy_teacher.config, cfg)
        x = rng.normal(size=(32, 32))
        with pytest.raises(ValueError):
            mla_forward(w, cfg, x)
        y, _ = mla_forward(w, yarn_scale(cfg, 4.0), x)
        assert np.all(np.isfinite(y))
