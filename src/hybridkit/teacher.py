"""Reference GQA transformer forward pass.

Pre-norm residual blocks: h' = h + Attn(RMSNorm(h)), h'' = h' + MLP(RMSNorm(h')).
Causal grouped-query attention with rotary embeddings over the full head dim;
optional per-head Q/K RMSNorm. Query heads are grouped against their KV head
on a broadcast axis, through the `numerics.causal_attention` that latent
attention also runs. Serves as the distillation teacher and the weight source
for conversion, so the forward exposes per-layer hidden states and attention
outputs, and can skip the LM head entirely.
"""

from dataclasses import dataclass

import numpy as np

from .accounting import record_alloc
from .checkpoint import TeacherCheckpoint, TeacherLayer
from .mlp import swiglu_forward
from .numerics import (apply_rope, causal_attention, rmsnorm, rope_inv_freq,
                       rope_tables)


@dataclass
class Trace:
    """What a teacher or hybrid forward exposes for distillation."""
    hidden_states: list   # per layer, (T, d) after the full block
    mixer_outputs: list   # per layer, (T, d) mixer sublayer output
    final_hidden: np.ndarray
    logits: np.ndarray | None = None
    caches: list | None = None   # hybrid only: per-layer state for continuation


def gqa_attention(layer: TeacherLayer, cfg, x: np.ndarray, cos, sin) -> np.ndarray:
    """Causal grouped-query attention on normed input x (T, d) or (B, T, d)."""
    single = x.ndim == 2
    xb = x[None] if single else x
    B, T = xb.shape[0], xb.shape[1]
    d_h, H_q, H_kv = cfg.head_dim, cfg.n_q_heads, cfg.n_kv_heads

    q = (xb @ layer.wq.T).reshape(B, T, H_q, d_h)
    k = (xb @ layer.wk.T).reshape(B, T, H_kv, d_h)
    v = (xb @ layer.wv.T).reshape(B, T, H_kv, d_h)
    if cfg.qk_norm:
        q = rmsnorm(q, layer.q_norm, cfg.eps)
        k = rmsnorm(k, layer.k_norm, cfg.eps)
    q = apply_rope(q, cos[:, None, :], sin[:, None, :])
    k = apply_rope(k, cos[:, None, :], sin[:, None, :])

    # Query head h reads KV head h // group, broadcast over the group axis.
    q = q.transpose(0, 2, 1, 3).reshape(B, H_kv, cfg.group, T, d_h)
    k = k.transpose(0, 2, 1, 3)[:, :, None]                     # (B, H_kv, 1, T, d_h)
    v = v.transpose(0, 2, 1, 3)[:, :, None]
    ctx, _ = causal_attention(q, k, v, 1.0 / np.sqrt(d_h))
    out = ctx.transpose(0, 3, 1, 2, 4).reshape(B, T, H_q * d_h) @ layer.wo.T
    return out[0] if single else out


def teacher_forward(ckpt: TeacherCheckpoint, tokens, want_logits: bool = True,
                    want_trace: bool = False) -> Trace:
    cfg = ckpt.config
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim not in (1, 2) or tokens.size < 1:
        raise ValueError("tokens must be a non-empty 1-D or (B, T) id array")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab:
        raise ValueError(f"token id out of range [0, {cfg.vocab})")

    T = tokens.shape[-1]
    inv_freq = rope_inv_freq(cfg.head_dim, cfg.rope_theta)
    cos, sin = rope_tables(inv_freq, np.arange(T))

    h = ckpt.embedding[tokens]
    hidden_states, mixer_outputs = [], []
    for layer in ckpt.layers:
        a = gqa_attention(layer, cfg, rmsnorm(h, layer.norm_attn, cfg.eps), cos, sin)
        h = h + a
        h = h + swiglu_forward(rmsnorm(h, layer.norm_mlp, cfg.eps),
                               layer.mlp_gate, layer.mlp_up, layer.mlp_down)
        if want_trace:
            mixer_outputs.append(a)
            hidden_states.append(h)

    final = rmsnorm(h, ckpt.final_norm, cfg.eps)
    logits = None
    if want_logits:
        record_alloc("teacher_logits", tokens.size * cfg.vocab)
        logits = final @ ckpt.lm_head.T
    return Trace(hidden_states, mixer_outputs, final, logits)
