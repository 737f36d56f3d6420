import json
from dataclasses import replace

import numpy as np
import pytest

from hybridkit.accounting import track_allocations
from hybridkit.gdn import CHUNK
from hybridkit.hybrid import (HybridLayout, assemble_hybrid,
                              convert_teacher_to_gdn, convert_teacher_to_mla,
                              hybrid_backward, hybrid_forward)
from hybridkit.losses import kl_naive
from hybridkit.numerics import ATTN_BLOCK
from hybridkit.synthetic import gen_ngram_corpus, niah_generate
from hybridkit.teacher import teacher_forward
from hybridkit.train import (MAX_CONSECUTIVE_SKIPS, Adam, TrainConfig, grad_audit,
                             train_stage1_ild, train_stage2_sft)


LONG = 2 * ATTN_BLOCK + 5


@pytest.fixture
def pure_models(toy_teacher, toy_mla_config, toy_gdn_config):
    return (convert_teacher_to_mla(toy_teacher, toy_mla_config, seed=10),
            convert_teacher_to_gdn(toy_teacher, toy_gdn_config, seed=20))


@pytest.fixture
def data():
    return gen_ngram_corpus(64, 8, 48, seed=1)


def snapshot(model):
    return {k: v.copy() for k, v in model.named_tensors().items()}


class TestStage1:
    def test_zero_steps_leaves_weights_unchanged(self, pure_models, toy_teacher, data):
        _, student = pure_models
        before = snapshot(student)
        cfg = TrainConfig(stage=1, context_len=48, steps=0, batch=2, seed=0)
        train_stage1_ild(student, toy_teacher, data, cfg)
        for k, v in student.named_tensors().items():
            assert np.array_equal(v, before[k])

    def test_loss_decreases(self, pure_models, toy_teacher, data):
        _, student = pure_models
        cfg = TrainConfig(stage=1, context_len=48, lr=3e-3, steps=25, batch=2, seed=0)
        rep = train_stage1_ild(student, toy_teacher, data, cfg)
        assert rep.losses[-1] < rep.losses[0]
        assert all(np.isfinite(v) for v in rep.losses)

    def test_teacher_weights_untouched(self, pure_models, toy_teacher, data):
        _, student = pure_models
        before = snapshot(toy_teacher)
        cfg = TrainConfig(stage=1, context_len=48, lr=3e-3, steps=5, batch=2, seed=0)
        train_stage1_ild(student, toy_teacher, data, cfg)
        for k, v in toy_teacher.named_tensors().items():
            assert np.array_equal(v, before[k])

    def test_deterministic_loss_series(self, toy_teacher, toy_gdn_config, data):
        reports = []
        for _ in range(2):
            student = convert_teacher_to_gdn(toy_teacher, toy_gdn_config, seed=20)
            cfg = TrainConfig(stage=1, context_len=48, lr=1e-3, steps=8, batch=2,
                              seed=5)
            reports.append(train_stage1_ild(student, toy_teacher, data, cfg))
        assert reports[0].losses == reports[1].losses

    def test_fixed_point_stays_at_zero(self, toy_teacher, toy_gdn_config, data):
        import copy

        # a teacher whose attention contributes nothing, and a student whose
        # mixers output zero, have identical traces: the loss starts and
        # stays at (numerically) zero
        teacher = copy.deepcopy(toy_teacher)
        for ly in teacher.layers:
            ly.wo[:] = 0.0
        student = convert_teacher_to_gdn(teacher, toy_gdn_config, seed=20)
        for ly in student.layers:
            ly.mixer.w_o[:] = 0.0
        cfg = TrainConfig(stage=1, context_len=48, lr=1e-3, steps=5, batch=2, seed=0)
        rep = train_stage1_ild(student, teacher, data, cfg)
        assert all(v < 1e-9 for v in rep.losses)

    def test_layer_count_mismatch_rejected(self, toy_teacher, toy_gdn_config, data):
        from hybridkit.checkpoint import TransformerConfig, gen_toy_teacher

        short = gen_toy_teacher(TransformerConfig(
            d_model=32, n_layers=2, n_q_heads=4, n_kv_heads=2, head_dim=8,
            vocab=64, mlp_hidden=64), 0)
        student = convert_teacher_to_gdn(short, toy_gdn_config, seed=0)
        with pytest.raises(ValueError, match="layer counts"):
            train_stage1_ild(student, toy_teacher, data,
                             TrainConfig(stage=1, steps=1))


class TestStage2:
    def test_self_distillation_stays_at_zero(self, pure_models, data):
        pure_mla, pure_gdn = pure_models
        student = assemble_hybrid(pure_mla, pure_gdn, HybridLayout(4, (1, 3)))
        cfg = TrainConfig(stage=2, context_len=48, lr=1e-3, steps=4, batch=2, seed=0)
        rep = train_stage2_sft(student, student, data, cfg)
        assert all(v < 1e-12 for v in rep.losses)

    def test_clip_that_drops_every_scored_position_raises(self, pure_models):
        # 48-token retrieval examples score only the answer, at position 46.
        data = niah_generate(45, 1, seed=0, vocab=64, n_items=4)
        student = assemble_hybrid(*pure_models, HybridLayout(4, (1, 3)))
        cfg = TrainConfig(stage=2, context_len=40, steps=5, batch=2, seed=0)
        with pytest.raises(ValueError, match="context_len 40"):
            train_stage2_sft(student, None, data, cfg)
        rep = train_stage2_sft(student, None, data, replace(cfg, context_len=48))
        assert all(loss > 0.0 for loss in rep.losses)

    def test_kd_loss_decreases(self, pure_models, toy_teacher, data):
        student = assemble_hybrid(*pure_models, HybridLayout(4, (1, 3)))
        cfg = TrainConfig(stage=2, context_len=48, lr=2e-3, steps=25, batch=2, seed=0)
        rep = train_stage2_sft(student, toy_teacher, data, cfg)
        assert rep.losses[-1] < rep.losses[0]

    @pytest.mark.parametrize("path", ["chunked", "online", "hidden"])
    def test_loss_paths_match_naive_series(self, toy_teacher, toy_mla_config,
                                           toy_gdn_config, data, path):
        def fresh():
            return assemble_hybrid(
                convert_teacher_to_mla(toy_teacher, toy_mla_config, seed=10),
                convert_teacher_to_gdn(toy_teacher, toy_gdn_config, seed=20),
                HybridLayout(4, (1, 3)))

        kw = dict(stage=2, context_len=48, lr=1e-3, steps=4, batch=2, seed=3,
                  kl_chunk=16, vocab_tile=16)
        ref = train_stage2_sft(fresh(), toy_teacher, data,
                               TrainConfig(loss_path="naive", **kw))
        out = train_stage2_sft(fresh(), toy_teacher, data,
                               TrainConfig(loss_path=path, **kw))
        assert max(abs(a - b) for a, b in zip(ref.losses, out.losses)) < 1e-4

    def test_hidden_path_never_materializes_teacher_logits(self, pure_models,
                                                           toy_teacher, data):
        student = assemble_hybrid(*pure_models, HybridLayout(4, (1, 3)))
        cfg = TrainConfig(stage=2, context_len=48, lr=1e-3, steps=2, batch=2,
                          seed=0, loss_path="hidden")
        T, V = 48, toy_teacher.config.vocab
        with track_allocations() as tracker:
            train_stage2_sft(student, toy_teacher, data, cfg)
        logit_allocs = [n for tag, n in tracker.sizes.items()
                        if tag.endswith("logits")]
        assert all(n < T * V for n in logit_allocs)

    def test_nonfinite_weight_skips_and_counts_every_step(self, pure_models, data):
        student = assemble_hybrid(*pure_models, HybridLayout(4, (1, 3)))
        student.layers[0].mixer.w_o[0, 0] = np.nan
        cfg = TrainConfig(stage=2, context_len=48, lr=1e-3, steps=3, batch=2, seed=0)
        with np.errstate(invalid="ignore", over="ignore"):
            rep = train_stage2_sft(student, None, data, cfg)
        assert rep.skipped == [True, True, True]
        assert rep.summary()["skipped_steps"] == 3
        assert [r["skipped"] for r in rep.step_records()] == [True] * 3

    def test_consecutive_skips_abort_the_run(self, pure_models, data):
        student = assemble_hybrid(*pure_models, HybridLayout(4, (1, 3)))
        student.layers[0].mixer.w_o[0, 0] = np.nan
        cfg = TrainConfig(stage=2, context_len=48, lr=1e-3, steps=6, batch=2, seed=0)
        last = MAX_CONSECUTIVE_SKIPS - 1
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
                ValueError, match=f"{MAX_CONSECUTIVE_SKIPS} consecutive .* step {last}$"):
            train_stage2_sft(student, None, data, cfg)

    def test_step_records_explain_the_schedule(self, pure_models, data):
        student = assemble_hybrid(*pure_models, HybridLayout(4, (1, 3)))
        cfg = TrainConfig(stage=2, context_len=48, lr=1e-3, steps=3, batch=2, seed=0)
        records = list(train_stage2_sft(student, None, data, cfg).step_records())
        schedule = Adam({}, cfg.lr, cfg.steps)
        for i, rec in enumerate(records):
            assert rec["lr"] == schedule.lr_at(i)
            assert np.isfinite(rec["grad_norm"]) and rec["grad_norm"] > 0
            assert 0 < rec["clip_scale"] <= 1
        student.layers[0].mixer.w_o[0, 0] = np.nan
        with np.errstate(invalid="ignore", over="ignore"):
            records = list(train_stage2_sft(student, None, data, cfg).step_records())
        for rec in records:
            assert rec["skipped"] and rec["grad_norm"] is None
            assert rec["clip_scale"] is None
            assert '"grad_norm": null' in json.dumps(rec)

    def test_teacherless_batch_without_a_target_raises(self, pure_models, data):
        student = assemble_hybrid(*pure_models, HybridLayout(4, (1, 3)))
        cfg = TrainConfig(stage=2, context_len=1, steps=1, batch=2, seed=0)
        with pytest.raises(ValueError, match="no scored next-token target"):
            train_stage2_sft(student, None, data, cfg)

    def test_vocab_mismatch_rejected(self, pure_models, data):
        from hybridkit.checkpoint import TransformerConfig, gen_toy_teacher

        student = assemble_hybrid(*pure_models, HybridLayout(4, (1, 3)))
        other = gen_toy_teacher(TransformerConfig(
            d_model=32, n_layers=4, n_q_heads=4, n_kv_heads=2, head_dim=8,
            vocab=32, mlp_hidden=64), 0)
        with pytest.raises(ValueError, match="vocab"):
            train_stage2_sft(student, other, data, TrainConfig(stage=2, steps=1))


class TestAdam:
    def test_warmup_then_cosine(self):
        p = {"w": np.zeros(3)}
        opt = Adam(p, lr=1.0, total_steps=1000)     # 1% warmup: 10 steps
        assert opt.lr_at(0) == pytest.approx(0.1)
        assert opt.lr_at(9) == pytest.approx(1.0)
        assert opt.lr_at(10) == pytest.approx(1.0)
        assert opt.lr_at(999) < 0.01

    def test_updates_stay_on_f32_grid(self, rng):
        w = rng.normal(size=(4, 4)).astype(np.float32).astype(np.float64)
        p = {"w": w}
        opt = Adam(p, lr=1e-2, total_steps=10)
        opt.step({"w": rng.normal(size=(4, 4))})
        assert np.array_equal(p["w"], p["w"].astype(np.float32).astype(np.float64))

    def test_nonfinite_grads_skip_step(self, rng):
        w = np.ones((2, 2))
        p = {"w": w}
        opt = Adam(p, lr=1e-2, total_steps=10)
        assert opt.step({"w": np.full((2, 2), np.nan)}) is False
        assert np.array_equal(p["w"], np.ones((2, 2)))
        assert opt.step({"w": np.ones((2, 2))}) is True

    def test_global_norm_clip(self):
        p = {"w": np.zeros(2)}
        opt = Adam(p, lr=1.0, total_steps=10)
        opt.step({"w": np.array([30.0, 40.0])})   # norm 50 -> scaled by 1/50
        assert np.all(np.isfinite(p["w"]))

    @pytest.mark.parametrize("grads, named", [({"w": np.ones(2)}, "'b'"),
                                              ({"w": np.ones(2), "b": np.ones(1),
                                                "x": np.ones(1)}, "'x'")],
                             ids=["missing", "unknown"])
    def test_missing_or_unknown_gradient_raises(self, grads, named):
        p = {"w": np.zeros(2), "b": np.zeros(1)}
        opt = Adam(p, lr=1.0, total_steps=10)
        with pytest.raises(ValueError, match=named):
            opt.step(grads)
        assert opt.t == 0 and not p["w"].any()


    @pytest.mark.parametrize("grad_size", [0.05, 10.0])
    def test_three_steps_match_the_reference_formula(self, rng, grad_size):
        # grad_size 10 puts every step's global norm above GRAD_CLIP.
        shapes = {"w": (3, 4), "b": (5,)}
        params = {n: rng.normal(size=s).astype(np.float32).astype(np.float64)
                  for n, s in shapes.items()}
        ref = {n: p.copy() for n, p in params.items()}
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        lr, total, b1, b2, eps = 1e-2, 10, 0.9, 0.999, 1e-8
        opt = Adam(params, lr=lr, total_steps=total)
        clipped = []
        for t in range(1, 4):
            grads = {n: grad_size * rng.normal(size=s) for n, s in shapes.items()}
            before = {n: g.copy() for n, g in grads.items()}
            assert opt.step(grads) is True
            for n, g in grads.items():
                assert np.array_equal(g, before[n]), n

            # Reference: global-norm clip to 1, Adam moments with bias
            # correction, no warmup at 10 steps, cosine lr, f32 snap.
            norm = np.sqrt(sum(np.sum(g * g) for g in before.values()))
            scale = min(1.0, 1.0 / norm)
            clipped.append(scale < 1.0)
            lr_t = lr * 0.5 * (1.0 + np.cos(np.pi * (t - 1) / total))
            for n, g in before.items():
                g = g * scale
                m[n] = b1 * m[n] + (1 - b1) * g
                v[n] = b2 * v[n] + (1 - b2) * g * g
                update = (m[n] / (1 - b1 ** t)) / (np.sqrt(v[n] / (1 - b2 ** t)) + eps)
                ref[n] = (ref[n] - lr_t * update).astype(np.float32).astype(np.float64)
                np.testing.assert_allclose(opt.m[n], m[n], rtol=1e-12)
                np.testing.assert_allclose(opt.v[n], v[n], rtol=1e-12)
                # One float32 step of slack for a last-bit change in the norm.
                np.testing.assert_allclose(params[n], ref[n], rtol=2.5e-7, atol=0)
            assert opt.last_stats["clip_scale"] == pytest.approx(scale, rel=1e-12)
        assert clipped == [grad_size > 1.0] * 3


class TestGradAudit:
    def test_linear_model_with_ce_is_tight(self, rng):
        from hybridkit.losses import fused_linear_ce

        w = {"lm": rng.normal(size=(9, 5))}
        x = rng.normal(size=(12, 5))
        targets = rng.integers(0, 9, size=12)

        def loss_fn():
            out = fused_linear_ce(x, w["lm"], targets)
            # grad wrt the weight via the chain rule of the projection
            z = x @ w["lm"].T
            z -= z.max(-1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(-1, keepdims=True)
            p[np.arange(12), targets] -= 1.0
            return out.value, {"lm": (p / 12).T @ x}

        err = grad_audit(loss_fn, w, n_params=32, seed=0)
        assert err < 1e-4

    def test_gdn_block_through_kd(self, toy_teacher, toy_gdn_config, rng):
        # One chunk, then three with a ragged last one, single and batched:
        # the adjoint carried across chunk boundaries is audited too.
        student = convert_teacher_to_gdn(toy_teacher, toy_gdn_config, seed=20)
        params = {k: v for k, v in student.named_tensors().items()
                  if k.startswith("gdn.")}
        V = toy_teacher.config.vocab
        T = 2 * CHUNK + 5
        for shape in ((16,), (T,), (2, T)):
            toks = rng.integers(0, V, size=shape)
            t_logits = teacher_forward(toy_teacher, toks).logits.reshape(-1, V)

            def loss_fn():
                tapes = []
                s = hybrid_forward(student, toks, want_logits=True, tapes=tapes)
                out = kl_naive(s.logits.reshape(-1, V), t_logits)
                d_final = out.grad.reshape(s.logits.shape) @ student.lm_head
                return out.value, hybrid_backward(student, tapes, d_final)

            assert grad_audit(loss_fn, params, n_params=32, seed=1) < 1e-2, shape

    @pytest.mark.parametrize("flags, shape", [
        ({}, (16,)), ({"gate_mode": True}, (16,)), ({"nope_mode": True}, (16,)),
        # yarn x4, with the sequence running past the original context
        ({"yarn_factor": 4.0, "orig_context": 8}, (16,)),
        ({}, (2, 16)),
        # Three attention blocks, the last one ragged: the key and value
        # gradients accumulated across blocks are audited too.
        ({}, (LONG,)), ({}, (2, LONG))],
        ids=["plain", "gate", "nope", "yarn", "batched", f"plain-{LONG}",
             f"batched-{LONG}"])
    def test_mla_block_through_kd(self, toy_teacher, toy_mla_config, rng, flags,
                                  shape):
        cfg = replace(toy_mla_config, **flags)
        student = convert_teacher_to_mla(toy_teacher, cfg, seed=10)
        toks = rng.integers(0, 64, size=shape)
        V = toy_teacher.config.vocab
        t_logits = teacher_forward(toy_teacher, toks).logits.reshape(-1, V)

        def loss_fn():
            tapes = []
            s = hybrid_forward(student, toks, want_logits=True, tapes=tapes)
            out = kl_naive(s.logits.reshape(-1, V), t_logits)
            d_final = out.grad.reshape(s.logits.shape) @ student.lm_head
            grads = hybrid_backward(student, tapes, d_final)
            return out.value, grads

        params = {k: v for k, v in student.named_tensors().items()
                  if k.startswith("mla.")}
        assert grad_audit(loss_fn, params, n_params=32, seed=2) < 1e-2
