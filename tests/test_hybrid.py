from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridkit.accounting import track_allocations
from hybridkit.checkpoint import TransformerConfig, gen_toy_teacher
from hybridkit.container import read_container, write_container
from hybridkit.hybrid import (HybridLayout, assemble_hybrid,
                              convert_teacher_to_gdn, convert_teacher_to_mla,
                              format_gb, hybrid_forward, kv_cache_report,
                              load_hybrid, memory_plan, save_hybrid)
from hybridkit.mla import MlaConfig, default_mla_config


@pytest.fixture(scope="module")
def pure_models(toy_teacher, toy_mla_config, toy_gdn_config):
    return (convert_teacher_to_mla(toy_teacher, toy_mla_config, seed=10),
            convert_teacher_to_gdn(toy_teacher, toy_gdn_config, seed=20))


@pytest.fixture(scope="module")
def hybrid(pure_models):
    return assemble_hybrid(*pure_models, HybridLayout(4, (1, 3)))


class TestAssembly:
    def test_all_mla_layout_equals_pure_mla(self, pure_models):
        pure_mla, pure_gdn = pure_models
        model = assemble_hybrid(pure_mla, pure_gdn, HybridLayout(4, (0, 1, 2, 3)))
        for name, t in pure_mla.named_tensors().items():
            assert np.array_equal(model.named_tensors()[name], t), name

    def test_empty_layout_equals_pure_gdn(self, pure_models):
        pure_mla, pure_gdn = pure_models
        model = assemble_hybrid(pure_mla, pure_gdn, HybridLayout(4, ()),
                                donor="gdn")
        for name, t in pure_gdn.named_tensors().items():
            assert np.array_equal(model.named_tensors()[name], t), name

    def test_paper_style_layout_shape_audit(self, pure_models):
        pure_mla, pure_gdn = pure_models
        model = assemble_hybrid(pure_mla, pure_gdn, HybridLayout(4, (1, 3)))
        kinds = [ly.kind for ly in model.layers]
        assert kinds == ["gdn", "mla", "gdn", "mla"]

    def test_assembly_lossless_reextraction(self, pure_models, hybrid):
        pure_mla, pure_gdn = pure_models
        for i, ly in enumerate(hybrid.layers):
            src = pure_mla if ly.kind == "mla" else pure_gdn
            for name, t in ly.mixer.named_tensors(f"{ly.kind}.{i}").items():
                assert np.array_equal(src.named_tensors()[name], t)

    def test_config_mismatch_rejected(self, pure_models, toy_gdn_config,
                                      toy_mla_config):
        from hybridkit.checkpoint import gen_toy_teacher

        other = gen_toy_teacher(TransformerConfig(
            d_model=32, n_layers=4, n_q_heads=4, n_kv_heads=2, head_dim=8,
            vocab=32, mlp_hidden=64), 0)
        pure_gdn2 = convert_teacher_to_gdn(other, toy_gdn_config)
        with pytest.raises(ValueError, match="base config"):
            assemble_hybrid(pure_models[0], pure_gdn2, HybridLayout(4, (1,)))

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            HybridLayout(4, (1, 1))
        with pytest.raises(ValueError):
            HybridLayout(4, (4,))

    def test_layout_files_with_or_without_linear_kind_load(self):
        for d in ({"n_layers": 4, "mla_indices": [3, 1], "linear_kind": "gdn"},
                  {"n_layers": 4, "mla_indices": [1, 3]}):
            layout = HybridLayout.from_dict(d)
            assert layout.mla_indices == (1, 3)
            assert layout.to_dict() == {"n_layers": 4, "mla_indices": [1, 3],
                                        "linear_kind": "gdn"}

    def test_qk_norm_teacher_rejected(self, toy_config, toy_mla_config,
                                      toy_gdn_config):
        teacher = gen_toy_teacher(replace(toy_config, qk_norm=True), 0)
        with pytest.raises(ValueError, match="qk_norm"):
            convert_teacher_to_mla(teacher, toy_mla_config)
        with pytest.raises(ValueError, match="qk_norm"):
            convert_teacher_to_gdn(teacher, toy_gdn_config)

    def test_layout_with_other_linear_kind_rejected(self):
        with pytest.raises(ValueError, match="linear_kind"):
            HybridLayout.from_dict({"n_layers": 4, "mla_indices": [1],
                                    "linear_kind": "mamba"})


class TestForward:
    def test_causality_end_to_end(self, hybrid, rng):
        toks = rng.integers(0, 64, size=20)
        base = hybrid_forward(hybrid, toks).logits
        toks2 = toks.copy()
        toks2[12] = (toks2[12] + 9) % 64
        pert = hybrid_forward(hybrid, toks2).logits
        assert np.max(np.abs(pert[:12] - base[:12])) == 0.0

    def test_prefill_plus_64_decode_steps(self, hybrid, rng):
        toks = rng.integers(0, 64, size=96)
        full = hybrid_forward(hybrid, toks).logits
        pre = hybrid_forward(hybrid, toks[:32])
        caches = pre.caches
        outs = [pre.logits]
        for t in range(32, 96):
            step = hybrid_forward(hybrid, toks[t:t + 1], caches=caches,
                                  position_offset=t)
            caches = step.caches
            outs.append(step.logits)
        assert np.max(np.abs(np.concatenate(outs) - full)) < 1e-5

    def test_gdn_caches_continue_at_offset_zero(self, pure_models, rng):
        # Without rotary positions a pure-GDN stack can resume a supplied
        # cache at offset 0; the state must carry over, not be dropped.
        gdn = pure_models[1]
        toks = rng.integers(0, 64, size=40)
        full = hybrid_forward(gdn, toks).logits
        pre = hybrid_forward(gdn, toks[:24])
        cont = hybrid_forward(gdn, toks[24:], caches=pre.caches)
        assert np.max(np.abs(cont.logits - full[24:])) < 1e-9

    @pytest.fixture(scope="class")
    def hybrid_for_flags(self, toy_teacher, toy_mla_config, pure_models):
        built = {}

        def get(nope, gate, yarn):
            key = (nope, gate, yarn)
            if key not in built:
                # With yarn, the sequence runs past the original context.
                cfg = replace(toy_mla_config, nope_mode=nope, gate_mode=gate,
                              yarn_factor=4.0 if yarn else 1.0,
                              orig_context=16 if yarn else 2048)
                pure_mla = convert_teacher_to_mla(toy_teacher, cfg, seed=10)
                built[key] = assemble_hybrid(pure_mla, pure_models[1],
                                             HybridLayout(4, (1, 3)))
            return built[key]
        return get

    @settings(max_examples=24)
    @given(split=st.integers(1, 32), steps=st.integers(1, 12),
           nope=st.booleans(), gate=st.booleans(), yarn=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_decode_matches_prefill(self, hybrid_for_flags, split, steps, nope,
                                    gate, yarn, seed):
        model = hybrid_for_flags(nope, gate, yarn)
        rng = np.random.default_rng(seed)
        prompt = rng.integers(0, 64, size=split)
        pre = hybrid_forward(model, prompt)
        # Two continuations branch from the same prefill caches: extending
        # the caches for one must leave them valid for the other.
        for _ in range(2):
            toks = np.concatenate([prompt, rng.integers(0, 64, size=steps)])
            full = hybrid_forward(model, toks).logits
            caches = pre.caches
            for t in range(split, split + steps):
                step = hybrid_forward(model, toks[t:t + 1], caches=caches,
                                      position_offset=t)
                caches = step.caches
                assert np.max(np.abs(step.logits - full[t:t + 1])) < 1e-5
            assert np.max(np.abs(pre.logits - full[:split])) < 1e-5

    def test_mla_cache_budget_exact(self, hybrid, rng):
        toks = rng.integers(0, 64, size=10)
        out = hybrid_forward(hybrid, toks)
        cfg = hybrid.mla_cfg
        for ly, cache in zip(hybrid.layers, out.caches):
            if ly.kind == "mla":
                per_token = cache.latents.shape[1] + cache.rope_keys.shape[1]
                assert per_token == cfg.cache_per_token

    def test_logit_free_mode_never_allocates_t_by_v(self, hybrid, rng):
        toks = rng.integers(0, 64, size=16)
        with track_allocations() as tracker:
            out = hybrid_forward(hybrid, toks, want_logits=False, want_trace=True)
        assert out.logits is None
        big = 16 * hybrid.config.vocab
        assert all(e.elements < big for e in tracker.events
                   if e.tag.endswith("logits"))

    def test_trace_shapes(self, hybrid, rng):
        toks = rng.integers(0, 64, size=8)
        out = hybrid_forward(hybrid, toks, want_trace=True)
        assert len(out.hidden_states) == 4
        assert all(a.shape == (8, 32) for a in out.mixer_outputs)

    def test_token_range_validated(self, hybrid):
        with pytest.raises(ValueError, match="out of range"):
            hybrid_forward(hybrid, [70])


class TestKvReport:
    @pytest.fixture(scope="class")
    def llama_1b(self):
        return TransformerConfig(d_model=2048, n_layers=16, n_q_heads=32,
                                 n_kv_heads=8, head_dim=64, vocab=128256,
                                 mlp_hidden=8192)

    def test_llama_1b_four_mla(self, llama_1b):
        cfg = default_mla_config(llama_1b, cache_per_token=160)
        rep = kv_cache_report(HybridLayout(16, (1, 5, 10, 14)), llama_1b, cfg)
        assert rep.percent == "3.9%"
        assert rep.hybrid_per_token == 4 * 160

    def test_llama_1b_eight_mla(self, llama_1b):
        cfg = default_mla_config(llama_1b, cache_per_token=160)
        rep = kv_cache_report(HybridLayout(16, tuple(range(0, 16, 2))), llama_1b, cfg)
        assert rep.percent == "7.8%"

    def test_llama_3b_layouts(self):
        tc = TransformerConfig(d_model=3072, n_layers=28, n_q_heads=24,
                               n_kv_heads=8, head_dim=128, vocab=128256,
                               mlp_hidden=8192)
        cfg = default_mla_config(tc, cache_per_token=192)
        rep14 = kv_cache_report(HybridLayout(28, tuple(range(0, 28, 2))), tc, cfg)
        rep6 = kv_cache_report(HybridLayout(28, (0, 5, 10, 16, 21, 26)), tc, cfg)
        assert rep14.percent == "4.7%" and rep6.percent == "2.0%"

    def test_ratio_additive_in_layer_count(self, llama_1b):
        cfg = default_mla_config(llama_1b, cache_per_token=160)
        r4 = kv_cache_report(HybridLayout(16, (1, 5, 10, 14)), llama_1b, cfg)
        r8 = kv_cache_report(HybridLayout(16, tuple(range(0, 16, 2))), llama_1b, cfg)
        assert np.isclose(r8.ratio, 2 * r4.ratio)

    def test_uncompressed_all_attention_ratio_one(self, llama_1b):
        cfg = MlaConfig(r_q=1, r_kv=2 * 8 * 64 - 32, d_qk_nope=32, d_qk_rope=32,
                        d_v=64, n_heads=32)
        rep = kv_cache_report(HybridLayout(16, tuple(range(16))), llama_1b, cfg)
        assert np.isclose(rep.ratio, 1.0)


class TestMemoryPlan:
    def test_logit_tensor_bytes_and_display(self):
        plan = memory_plan(65536, 128256)
        assert plan.logit_tensor_bytes == 65536 * 128256 * 2 == 16_810_770_432
        assert format_gb(plan.logit_tensor_bytes) == "≈16 GB"

    def test_small_context_formula(self):
        assert memory_plan(2048, 128256).logit_tensor_bytes == 525_336_576

    def test_hidden_kl_removes_both_logit_tensors(self):
        plan = memory_plan(65536, 128256, ["hidden-kl"])
        assert plan.rows["student_logits"] == 0
        assert plan.rows["teacher_logits"] == 0
        assert plan.rows["softmax_transients"] > 0

    def test_fused_kl_removes_softmax_and_grad(self):
        plan = memory_plan(1024, 1000, ["fused-kl"])
        assert plan.rows["softmax_transients"] == 0
        assert plan.rows["gradient_transients"] == 0

    def test_technique_aliases(self):
        a = memory_plan(64, 64, ["chunked-ce"])
        b = memory_plan(64, 64, ["fused-ce"])
        assert a.rows == b.rows

    def test_unknown_technique_rejected(self):
        with pytest.raises(ValueError, match="unknown memory technique"):
            memory_plan(64, 64, ["quantum-compression"])


class TestSerialization:
    def test_round_trip_bit_exact(self, hybrid, tmp_path):
        path = tmp_path / "h.ckpt"
        save_hybrid(hybrid, path)
        loaded = load_hybrid(path)
        for name, t in hybrid.named_tensors().items():
            assert np.array_equal(loaded.named_tensors()[name], t), name
        assert loaded.layout.to_dict() == hybrid.layout.to_dict()

    def test_missing_tensor_named(self, hybrid, tmp_path):
        path = tmp_path / "h.ckpt"
        save_hybrid(hybrid, path)
        tensors, meta = read_container(path)
        del tensors["mla.1.w_kb"]
        write_container(path, tensors, meta)
        with pytest.raises(ValueError, match=r"h\.ckpt.*mla\.1\.w_kb"):
            load_hybrid(path)

    def test_extra_tensor_warns_and_loads(self, hybrid, tmp_path):
        path = tmp_path / "h.ckpt"
        save_hybrid(hybrid, path)
        tensors, meta = read_container(path)
        write_container(path, {**tensors, "mystery": np.ones(3)}, meta)
        with pytest.warns(UserWarning, match="mystery"):
            loaded = load_hybrid(path)
        assert loaded.named_tensors().keys() == hybrid.named_tensors().keys()

    def test_forward_identical_after_reload(self, hybrid, tmp_path, rng):
        path = tmp_path / "h.ckpt"
        save_hybrid(hybrid, path)
        loaded = load_hybrid(path)
        toks = rng.integers(0, 64, size=12)
        assert np.array_equal(hybrid_forward(hybrid, toks).logits,
                              hybrid_forward(loaded, toks).logits)
