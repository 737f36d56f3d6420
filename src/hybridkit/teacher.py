"""The teacher config and GQA mixer: attention weights, KV cache and forward.

`TransformerConfig` sizes every model's stack. A teacher is a
`checkpoint.HybridModel` whose layers all have kind "gqa"; `hybrid.hybrid_forward`
runs its pre-norm residual stack as it runs the hybrid's. Causal grouped-query
attention with rotary embeddings over the full head dim; optional per-head Q/K
RMSNorm. Query heads are grouped against their KV head on a broadcast axis,
through the `numerics.causal_attention` that latent attention also runs. The
cache holds each token's rotated keys and its values, 2 * H_kv * d_h elements.
The teacher is the weight source for conversion and runs forward only.
"""

from dataclasses import dataclass, fields

import numpy as np

from .numerics import apply_rope, causal_attention, rmsnorm


@dataclass
class TransformerConfig:
    d_model: int
    n_layers: int
    n_q_heads: int
    n_kv_heads: int
    head_dim: int
    vocab: int
    mlp_hidden: int
    rope_theta: float = 10000.0
    eps: float = 1e-5
    qk_norm: bool = False

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name != "qk_norm" and (not isinstance(v, (int, float)) or v <= 0):
                raise ValueError(f"config field {f.name} must be positive, got {v}")
        if self.n_q_heads % self.n_kv_heads != 0:
            raise ValueError("n_q_heads must be divisible by n_kv_heads")

    @property
    def group(self) -> int:
        return self.n_q_heads // self.n_kv_heads

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "TransformerConfig":
        return cls(**d)


@dataclass
class Trace:
    """What a teacher or hybrid forward exposes for distillation."""
    hidden_states: list   # per layer, (T, d) after the full block
    mixer_outputs: list   # per layer, (T, d) mixer sublayer output
    final_hidden: np.ndarray
    logits: np.ndarray | None = None
    caches: list | None = None   # single sequence: per-layer state for continuation


@dataclass
class GqaWeights:
    wq: np.ndarray        # (H_q*d_h, d)
    wk: np.ndarray        # (H_kv*d_h, d)
    wv: np.ndarray        # (H_kv*d_h, d)
    wo: np.ndarray        # (d, H_q*d_h)
    q_norm: np.ndarray | None = None  # (d_h,) when config.qk_norm
    k_norm: np.ndarray | None = None

    def named_tensors(self, prefix: str) -> dict:
        """Field order; the norms only when qk_norm."""
        return {f"{prefix}.{f.name}": getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}

    @staticmethod
    def shapes(cfg: TransformerConfig) -> dict:
        """Field -> shape for a teacher config, as in the field comments."""
        d, q, kv = cfg.d_model, cfg.n_q_heads * cfg.head_dim, cfg.n_kv_heads * cfg.head_dim
        out = {"wq": (q, d), "wk": (kv, d), "wv": (kv, d), "wo": (d, q)}
        if cfg.qk_norm:
            out["q_norm"] = out["k_norm"] = (cfg.head_dim,)
        return out


@dataclass
class GqaCache:
    k: np.ndarray  # (H_kv, T, d_h) rotated keys
    v: np.ndarray  # (H_kv, T, d_h)

    def __len__(self) -> int:
        return self.k.shape[1]


def gqa_attention(w: GqaWeights, cfg, x: np.ndarray, cos, sin,
                  cache: GqaCache | None = None):
    """Causal grouped-query attention on normed input x (T, d), or a fresh
    batch (B, T, d), with rope tables (cos, sin) at its positions. Returns
    (output, cache extended by x's tokens); with a cache, x holds the tokens
    after the cached ones. A batch returns no cache."""
    single = x.ndim == 2
    xb = x[None] if single else x
    B, T = xb.shape[0], xb.shape[1]
    d_h, H_q, H_kv = cfg.head_dim, cfg.n_q_heads, cfg.n_kv_heads

    q = (xb @ w.wq.T).reshape(B, T, H_q, d_h)
    k = (xb @ w.wk.T).reshape(B, T, H_kv, d_h)
    v = (xb @ w.wv.T).reshape(B, T, H_kv, d_h)
    if cfg.qk_norm:
        q = rmsnorm(q, w.q_norm, cfg.eps)
        k = rmsnorm(k, w.k_norm, cfg.eps)
    q = apply_rope(q, cos[:, None, :], sin[:, None, :])
    k = apply_rope(k, cos[:, None, :], sin[:, None, :])

    # Query head h reads KV head h // group, broadcast over the group axis.
    q = q.transpose(0, 2, 1, 3).reshape(B, H_kv, cfg.group, T, d_h)
    k = k.transpose(0, 2, 1, 3)                                 # (B, H_kv, T, d_h)
    v = v.transpose(0, 2, 1, 3)
    n_prior = 0 if cache is None else len(cache)
    if n_prior:
        k = np.concatenate((cache.k[None], k), axis=2)
        v = np.concatenate((cache.v[None], v), axis=2)
    ctx, _ = causal_attention(q, k[:, :, None], v[:, :, None], 1.0 / np.sqrt(d_h),
                              n_prior)
    out = ctx.transpose(0, 3, 1, 2, 4).reshape(B, T, H_q * d_h) @ w.wo.T
    if single:
        return out[0], GqaCache(k[0], v[0])
    return out, None
