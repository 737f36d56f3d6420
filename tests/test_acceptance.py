"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run as `pytest tests/test_acceptance.py -v -s`. Criterion 10 is the
end-to-end desk training run and dominates the runtime.
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest

from hybridkit.accounting import track_allocations
from hybridkit.checkpoint import TransformerConfig, gen_toy_teacher, load_teacher
from hybridkit.cli import main
from hybridkit.gdn import (CHUNK, GdnConfig, gdn_forward_chunked,
                           gdn_forward_sequential, gdn_param_count,
                           init_gdn_from_teacher)
from hybridkit.hybrid import (HybridLayout, assemble_hybrid,
                              convert_teacher_to_gdn, convert_teacher_to_mla,
                              format_gb, hybrid_backward, hybrid_forward,
                              kv_cache_report, load_hybrid, memory_plan)
from hybridkit.losses import (LossConfig, fused_linear_ce, kl_chunked,
                              kl_hidden, kl_naive, kl_online)
from hybridkit.mla import MlaConfig, default_mla_config, init_mla_from_teacher
from hybridkit.numerics import ATTN_BLOCK, f32_resolution, repeat_kv
from hybridkit.synthetic import gen_ngram_corpus
from hybridkit.teacher import teacher_forward
from hybridkit.train import (TrainConfig, argmax_agreement, grad_audit,
                             train_stage1_ild, train_stage2_sft)


def report(n, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion-{n}: {detail}")
    assert ok, detail


TOY = TransformerConfig(d_model=32, n_layers=4, n_q_heads=4, n_kv_heads=2,
                        head_dim=8, vocab=64, mlp_hidden=64)


def test_criterion_01_kv_cache_tables():
    t0 = time.time()
    llama1b = TransformerConfig(d_model=2048, n_layers=16, n_q_heads=32,
                                n_kv_heads=8, head_dim=64, vocab=128256,
                                mlp_hidden=8192)
    llama3b = TransformerConfig(d_model=3072, n_layers=28, n_q_heads=24,
                                n_kv_heads=8, head_dim=128, vocab=128256,
                                mlp_hidden=8192)
    qwen17 = TransformerConfig(d_model=2048, n_layers=28, n_q_heads=16,
                               n_kv_heads=8, head_dim=128, vocab=151936,
                               mlp_hidden=6144)
    cases = [
        (llama1b, 160, (1, 5, 10, 14), "3.9%"),
        (llama1b, 160, tuple(range(0, 16, 2)), "7.8%"),
        (llama3b, 192, (0, 5, 10, 16, 21, 26), "2.0%"),
        (llama3b, 192, tuple(range(0, 28, 2)), "4.7%"),
        (qwen17, 320, (1, 5, 9, 13, 17, 21, 25), "3.9%"),
        (qwen17, 320, tuple(range(0, 28, 2)), "7.8%"),
    ]
    got = []
    for cfg, per_token, indices, want in cases:
        mla = default_mla_config(cfg, cache_per_token=per_token)
        rep = kv_cache_report(HybridLayout(cfg.n_layers, indices), cfg, mla)
        got.append((rep.percent, want))
    ok = all(g == w for g, w in got) and time.time() - t0 < 1.0
    report(1, ok, f"KV cache percents {[g for g, _ in got]} match tables "
                  f"(expected {[w for _, w in got]}) in {time.time() - t0:.2f}s")


def test_criterion_02_logit_memory():
    t0 = time.time()
    plan = memory_plan(65536, 128256)
    want = 65536 * 128256 * 2  # = 16,810,770,432 at 2 bytes/element
    ok = (plan.logit_tensor_bytes == want == 16_810_770_432
          and format_gb(plan.logit_tensor_bytes) == "≈16 GB"
          and time.time() - t0 < 1.0)
    report(2, ok, f"logit tensor {plan.logit_tensor_bytes:,} bytes displayed "
                  f"{format_gb(plan.logit_tensor_bytes)}")


def test_criterion_03_gdn_param_count():
    t0 = time.time()
    count = gdn_param_count(GdnConfig(d=2048, n_heads=6))
    ok = abs(count - 25_190_000) <= 50_000 and time.time() - t0 < 1.0
    report(3, ok, f"mixer parameters {count:,} within 25.19M +/- 0.05M")


def test_criterion_04_chunked_equals_sequential():
    t0 = time.time()
    worst = 0.0
    for seed in range(100):
        T = (64, 70, 256, 512)[seed % 4]
        teacher = gen_toy_teacher(TOY, seed)
        cfg = GdnConfig(d=32, n_heads=2)
        w = init_gdn_from_teacher(teacher.layers[seed % 4], TOY, cfg, seed=seed)
        x = np.random.default_rng(seed + 10_000).normal(size=(T, 32))
        y_seq, _ = gdn_forward_sequential(w, cfg, x)
        y_chk, _ = gdn_forward_chunked(w, cfg, x)
        worst = max(worst, np.max(np.abs(y_seq - y_chk))
                    / (np.max(np.abs(y_seq)) + 1e-30))
    dt = time.time() - t0
    ok = worst < 1e-4 and dt < 60
    report(4, ok, f"chunked vs sequential max rel err {worst:.2e} over 100 seeds, "
                  f"T in {{64,70,256,512}}, {dt:.1f}s")


def test_criterion_05_kl_path_agreement():
    t0 = time.time()
    cfg = LossConfig(kl_chunk=256, vocab_tile=64)
    worst_v = worst_g = 0.0
    peaks_ok = True
    for seed in range(50):
        r = np.random.default_rng(seed)
        if seed < 4:
            T, V = 2048, 512
        else:
            T, V = int(r.integers(8, 600)), int(r.integers(8, 512))
        d_s, d_t = int(r.integers(4, 24)), int(r.integers(4, 24))
        h_s = r.normal(size=(T, d_s)) * r.uniform(0.5, 2.0)
        w_s = r.normal(size=(V, d_s))
        h_t = r.normal(size=(T, d_t))
        w_t = r.normal(size=(V, d_t))
        z_s, z_t = h_s @ w_s.T, h_t @ w_t.T
        ref = kl_naive(z_s, z_t)
        chunked = kl_chunked(z_s, z_t, cfg)
        online = kl_online(z_s, z_t, cfg)
        hidden = kl_hidden(h_s, w_s, h_t, w_t, cfg)
        for out in (chunked, online):
            worst_v = max(worst_v, abs(out.value - ref.value))
            worst_g = max(worst_g, np.max(np.abs(out.grad - ref.grad)))
        worst_v = max(worst_v, abs(hidden.value - ref.value))
        worst_g = max(worst_g, np.max(np.abs(hidden.grad - ref.grad @ w_s)))
        # the bounded-memory claim is meaningful once the chunk/tile sizes sit
        # genuinely below the instance (the chunked path holds 2 (C, V) slices)
        if T > 2 * cfg.kl_chunk and V > 2 * cfg.vocab_tile:
            peaks_ok &= all(out.peak_elements < T * V
                            for out in (chunked, online, hidden))
    dt = time.time() - t0
    ok = worst_v < 1e-5 and worst_g < 1e-4 and peaks_ok and dt < 120
    report(5, ok, f"50 instances: value diff {worst_v:.2e} (<1e-5), grad diff "
                  f"{worst_g:.2e} (<1e-4), bounded peaks {peaks_ok}, {dt:.1f}s")


def test_criterion_06_gradient_audits():
    t0 = time.time()
    r = np.random.default_rng(0)
    # losses at 1e-3
    z_s = r.normal(size=(6, 40))
    z_t = r.normal(size=(6, 40))
    box = {"z": z_s}

    def kl_loss():
        out = kl_naive(box["z"], z_t)
        return out.value, {"z": out.grad}

    err_kl = grad_audit(kl_loss, box, n_params=32, seed=1, rel_step=1e-4)

    h = r.normal(size=(10, 8))
    w_lm = r.normal(size=(30, 8))
    targets = r.integers(0, 30, size=10)
    hbox = {"h": h}

    def ce_loss():
        out = fused_linear_ce(hbox["h"], w_lm, targets)
        return out.value, {"h": out.grad}

    err_ce = grad_audit(ce_loss, hbox, n_params=32, seed=2, rel_step=1e-4)

    # full blocks through KD at 1e-2, on tokens that span three attention
    # blocks and three GDN chunks, so the gradients carried across both count
    teacher = gen_toy_teacher(TOY, 0)
    toks = r.integers(0, 64, size=2 * max(ATTN_BLOCK, CHUNK) + 5)
    t_logits = teacher_forward(teacher, toks).logits
    errs_block = {}
    for kind in ("mla", "gdn"):
        if kind == "mla":
            student = convert_teacher_to_mla(
                teacher, MlaConfig(r_q=16, r_kv=8, d_qk_nope=4, d_qk_rope=4,
                                   d_v=8, n_heads=4), seed=10)
        else:
            student = convert_teacher_to_gdn(teacher, GdnConfig(d=32, n_heads=2),
                                             seed=20)

        def loss_fn():
            tapes = []
            s = hybrid_forward(student, toks, want_logits=True, tapes=tapes)
            out = kl_naive(s.logits, t_logits)
            return out.value, hybrid_backward(student, tapes,
                                              out.grad @ student.lm_head)

        params = {k: v for k, v in student.named_tensors().items()
                  if k.startswith(f"{kind}.")}
        errs_block[kind] = grad_audit(loss_fn, params, n_params=32, seed=3)
    dt = time.time() - t0
    ok = (err_kl < 1e-3 and err_ce < 1e-3 and errs_block["mla"] < 1e-2
          and errs_block["gdn"] < 1e-2 and dt < 120)
    report(6, ok, f"FD audit: kl {err_kl:.1e}, ce {err_ce:.1e} (<1e-3); "
                  f"mla {errs_block['mla']:.1e}, gdn {errs_block['gdn']:.1e} "
                  f"(<1e-2); {dt:.1f}s")


def test_criterion_07_svd_init_reconstruction():
    t0 = time.time()
    worst = 0.0
    cfg = MlaConfig(r_q=32, r_kv=32, d_qk_nope=4, d_qk_rope=4, d_v=8, n_heads=4)
    for seed in range(20):
        teacher = gen_toy_teacher(TOY, seed)
        layer = teacher.layers[seed % 4]
        w = init_mla_from_teacher(layer, TOY, cfg)
        stack = np.zeros((32, cfg.r_q))
        for h in range(4):
            stack[h * 8: h * 8 + 4] = w.w_qb[h * 4: (h + 1) * 4]
            stack[h * 8 + 4: (h + 1) * 8] = w.w_qr[h * 4: (h + 1) * 4]
        err_q = (np.linalg.norm(stack @ w.w_qa - layer.wq)
                 / np.linalg.norm(layer.wq))
        kv = np.concatenate([repeat_kv(layer.wk, 8, 2), repeat_kv(layer.wv, 8, 2)])
        kv_stack = np.zeros((64, cfg.r_kv))
        kept = np.ones(64, dtype=bool)
        for h in range(4):
            kv_stack[h * 8: h * 8 + 4] = w.w_kb[h * 4: (h + 1) * 4]
            kept[h * 8 + 4: (h + 1) * 8] = False  # discarded rope rows
        kv_stack[32:] = w.w_vb
        rec = kv_stack @ w.w_kva
        err_kv = np.linalg.norm(rec[kept] - kv[kept]) / np.linalg.norm(kv[kept])
        worst = max(worst, err_q, err_kv)
    dt = time.time() - t0
    ok = worst < 1e-5 and dt < 60
    report(7, ok, f"full-rank factor reconstruction rel err {worst:.2e} over 20 "
                  f"toy teachers, {dt:.1f}s")


def test_criterion_08_gqa_fidelity():
    from hybridkit.numerics import apply_rope, rope_inv_freq, rope_tables, softmax
    from hybridkit.teacher import gqa_attention

    t0 = time.time()
    worst = 0.0
    for seed in range(10):
        teacher = gen_toy_teacher(TOY, seed)
        layer = teacher.layers[0]
        r = np.random.default_rng(seed + 500)
        x = r.normal(size=(12, 32))
        cos, sin = rope_tables(rope_inv_freq(8, TOY.rope_theta), np.arange(12))
        ours = gqa_attention(layer, TOY, x, cos, sin)
        # oracle: expand KV heads, run plain multi-head attention
        wk = repeat_kv(layer.wk, 8, 2)
        wv = repeat_kv(layer.wv, 8, 2)
        q = apply_rope((x @ layer.wq.T).reshape(12, 4, 8),
                       cos[:, None, :], sin[:, None, :])
        k = apply_rope((x @ wk.T).reshape(12, 4, 8),
                       cos[:, None, :], sin[:, None, :])
        v = (x @ wv.T).reshape(12, 4, 8)
        mask = np.triu(np.full((12, 12), -np.inf), k=1)
        ctx = np.stack([softmax(q[:, h] @ k[:, h].T / np.sqrt(8) + mask) @ v[:, h]
                        for h in range(4)], axis=1)
        oracle = ctx.reshape(12, 32) @ layer.wo.T
        worst = max(worst, np.max(np.abs(ours - oracle)))
    dt = time.time() - t0
    ok = worst < 1e-6 and dt < 30
    report(8, ok, f"GQA vs expanded-MHA oracle max abs diff {worst:.2e} "
                  f"over 10 seeds, {dt:.1f}s")


def test_criterion_09_decode_consistency():
    t0 = time.time()
    teacher = gen_toy_teacher(TOY, 0)
    mla_cfg = MlaConfig(r_q=16, r_kv=8, d_qk_nope=4, d_qk_rope=4, d_v=8, n_heads=4)
    hybrid = assemble_hybrid(
        convert_teacher_to_mla(teacher, mla_cfg, seed=10),
        convert_teacher_to_gdn(teacher, GdnConfig(d=32, n_heads=2), seed=20),
        HybridLayout(4, (1, 3)))
    r = np.random.default_rng(0)
    toks = r.integers(0, 64, size=96)
    full = hybrid_forward(hybrid, toks).logits
    pre = hybrid_forward(hybrid, toks[:32])
    caches = pre.caches
    outs = [pre.logits]
    for t in range(32, 96):
        step = hybrid_forward(hybrid, toks[t:t + 1], caches=caches,
                              position_offset=t)
        caches = step.caches
        outs.append(step.logits)
    diff = np.max(np.abs(np.concatenate(outs) - full))
    budget_ok = all(
        cache.latents.shape[1] + cache.rope_keys.shape[1] == mla_cfg.cache_per_token
        and cache.latents.shape[0] == 96
        for ly, cache in zip(hybrid.layers, caches) if ly.kind == "mla")
    dt = time.time() - t0
    ok = diff < 1e-5 and budget_ok and dt < 60
    report(9, ok, f"prefill+64-step decode vs one-shot max abs diff {diff:.2e}; "
                  f"cache stores exactly {mla_cfg.cache_per_token} elems/token; {dt:.1f}s")


def _desk_run(d, seed: int) -> dict:
    """gen-teacher -> convert -> stage 1 on the gated-delta model -> assemble
    -> stage 2 with hidden-state KL, all through the CLI in directory `d`."""
    d.mkdir()
    (d / "teacher.json").write_text(json.dumps(TOY.to_dict()))
    (d / "layout.json").write_text(json.dumps({"n_layers": 4, "mla_indices": [1, 3]}))
    (d / "mla.json").write_text(json.dumps(
        {"r_q": 16, "r_kv": 8, "d_qk_nope": 4, "d_qk_rope": 4, "d_v": 8, "n_heads": 4}))

    def p(name):
        return str(d / name)

    train = ["--teacher", p("t.ckpt"), "--context-len", "64", "--batch", "4",
             "--data-size", "64", "--seed", str(seed), "--data-seed", str(seed)]
    commands = [
        ["gen-teacher", "--config", p("teacher.json"), "--seed", str(seed),
         "--out", p("t.ckpt")],
        ["convert-mla", "--teacher", p("t.ckpt"), "--mla-config", p("mla.json"),
         "--out", p("mla.ckpt")],
        ["convert-gdn", "--teacher", p("t.ckpt"), "--heads", "2", "--out", p("gdn.ckpt")],
        ["assemble", "--mla", p("mla.ckpt"), "--gdn", p("gdn.ckpt"),
         "--layout", p("layout.json"), "--out", p("raw.ckpt")],
        ["train", "--stage", "1", "--student", p("gdn.ckpt"), "--steps", "20",
         "--lr", "6e-3", "--out", p("gdn1.ckpt"), "--report", p("s1.jsonl"), *train],
        ["assemble", "--mla", p("mla.ckpt"), "--gdn", p("gdn1.ckpt"),
         "--layout", p("layout.json"), "--out", p("hybrid.ckpt")],
        ["train", "--stage", "2", "--student", p("hybrid.ckpt"), "--steps", "40",
         "--lr", "2e-3", "--loss-path", "hidden", "--out", p("kd.ckpt"),
         "--report", p("s2.jsonl"), *train],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    reports = {}
    for stage in ("s1", "s2"):
        lines = [json.loads(line)
                 for line in (d / f"{stage}.jsonl").read_text().splitlines()]
        reports[stage] = (lines[:-1], lines[-1]["summary"])
    return reports


def test_criterion_10_desk_training_run(tmp_path):
    t0 = time.time()
    seed = 0
    run, rerun = _desk_run(tmp_path / "a", seed), _desk_run(tmp_path / "b", seed)
    s1 = [r["loss"] for r in run["s1"][0]]
    s1_falls = np.mean(s1[-5:]) < np.mean(s1[:5])
    same_series = all(run[s][0] == rerun[s][0] for s in ("s1", "s2"))
    no_skips = all(run[s][1]["skipped_steps"] == 0 for s in ("s1", "s2"))

    # Held-out sequences: the same bigram language, past the 64 trained on.
    held = gen_ngram_corpus(TOY.vocab, 64 + 16, 64, seed=seed)[64:]
    teacher = load_teacher(tmp_path / "a" / "t.ckpt")
    t_logits = [teacher_forward(teacher, ex.tokens).logits for ex in held]

    def held_out(name):
        model = load_hybrid(tmp_path / "a" / name)
        s_logits = [hybrid_forward(model, ex.tokens).logits for ex in held]
        kl = np.mean([kl_naive(s, t).value for s, t in zip(s_logits, t_logits)])
        agree = np.mean([np.mean(s.argmax(-1) == t.argmax(-1))
                         for s, t in zip(s_logits, t_logits)])
        return kl, agree

    (kl_raw, ag_raw), (kl_kd, ag_kd) = held_out("raw.ckpt"), held_out("kd.ckpt")
    drop = 1.0 - kl_kd / kl_raw
    dt = time.time() - t0
    ok = s1_falls and same_series and no_skips and drop >= 0.2 and dt < 90
    report(10, ok, f"stage-1 loss {np.mean(s1[:5]):.1f} -> {np.mean(s1[-5:]):.1f} "
                   f"(mean of first/last 5 steps); held-out KL {kl_raw:.3f} -> "
                   f"{kl_kd:.3f} ({drop:.0%} lower, >= 20%); argmax agreement "
                   f"{ag_raw:.1%} -> {ag_kd:.1%} (not gated); identical loss series "
                   f"over two runs {same_series}; no skipped steps {no_skips}; "
                   f"{dt:.1f}s (< 90s) for two runs")
