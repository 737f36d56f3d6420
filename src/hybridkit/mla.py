"""Multi-head latent attention block.

Queries and keys/values pass through low-rank bottlenecks:

    c^Q = W_qa x            c^KV = W_kva x           k^rope = W_kr x
    q^nope = W_qb Norm(c^Q)              k^nope = W_kb Norm(c^KV)
    q^rope = W_qr Norm(c^Q)              v      = W_vb Norm(c^KV)

Per head the query/key are [nope; RoPE(rope)] with the rope key shared across
heads, and standard causal attention runs at scale 1/sqrt(d_nope + d_rope).
The cache holds one row of r_kv + d_rope elements per token,
[Norm(c^KV) | RoPE(k^rope)], normalized once when the token is appended.
Prefill and training expand per-head keys [k^nope | k^rope] and values from
it and run `numerics.causal_attention`, as the teacher's GQA does. The
training tape keeps x, each query row's log-sum-exp and the context before
W_o; the backward rebuilds the projections from x through the forward's own
`_project`, and `causal_attention_backward` recomputes the attention
probabilities block by block from the log-sum-exp. A decode step
attends in latent space instead (weight absorption, DeepSeek-V2 §2.1): its
query becomes [W_kb[h]^T q^nope[h] | q^rope[h]], scores are one product with
the cached rows, and W_vb[h] maps the attended latent back to head h's value.

Initialization from a teacher attention layer factorizes the teacher's
projections with truncated SVD: the query path from W_q directly, the joint
KV path from the row-concatenated, GQA-expanded [W_k; W_v]; the shared rope
key takes the last d_rope rows of the head-averaged key projection, and the
output projection is truncated column-wise.
"""

from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from .accounting import record_alloc
from .numerics import (apply_rope, apply_rope_backward, causal_attention,
                       causal_attention_backward, f32_resolution, repeat_kv,
                       rmsnorm, rmsnorm_backward, rope_tables, sigmoid, softmax,
                       svd, yarn_inv_freq, yarn_mscale)
from .teacher import GqaWeights, TransformerConfig


@dataclass
class MlaConfig:
    r_q: int
    r_kv: int
    d_qk_nope: int
    d_qk_rope: int
    d_v: int
    n_heads: int
    rope_theta: float = 10000.0
    eps: float = 1e-5
    nope_mode: bool = False
    gate_mode: bool = False
    yarn_factor: float = 1.0
    orig_context: int = 2048

    def __post_init__(self):
        for name in ("r_q", "r_kv", "d_qk_nope", "d_qk_rope", "d_v", "n_heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.yarn_factor < 1.0:
            raise ValueError("yarn_factor must be >= 1")

    @property
    def d_qk(self) -> int:
        return self.d_qk_nope + self.d_qk_rope

    @property
    def cache_per_token(self) -> int:
        return self.r_kv + self.d_qk_rope

    @property
    def max_context(self) -> int:
        return int(self.orig_context * self.yarn_factor)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "MlaConfig":
        return cls(**d)


def default_mla_config(teacher: TransformerConfig, cache_per_token: int | None = None,
                       **flags) -> MlaConfig:
    """Derive a latent-attention config from a teacher: half the head dim is
    rotary, value dim matches the teacher head dim, and the KV latent rank is
    set from the per-token cache budget (r_kv = budget - d_rope)."""
    d_rope = teacher.head_dim // 2
    if cache_per_token is None:
        cache_per_token = 2 * teacher.head_dim
    r_kv = cache_per_token - d_rope
    if r_kv < 1:
        raise ValueError("cache_per_token too small for the rope dimension")
    return MlaConfig(
        r_q=2 * r_kv, r_kv=r_kv,
        d_qk_nope=teacher.head_dim - d_rope, d_qk_rope=d_rope,
        d_v=teacher.head_dim, n_heads=teacher.n_q_heads,
        rope_theta=teacher.rope_theta, eps=teacher.eps, **flags)


def yarn_scale(cfg: MlaConfig, factor: float) -> MlaConfig:
    """Rescale rotary frequencies for a `factor`x (>= 1) longer context."""
    return replace(cfg, yarn_factor=factor)


@dataclass
class MlaBlockWeights:
    w_qa: np.ndarray     # (r_q, d)
    norm_q: np.ndarray   # (r_q,)
    w_qb: np.ndarray     # (H*d_nope, r_q)
    w_qr: np.ndarray     # (H*d_rope, r_q)
    w_kva: np.ndarray    # (r_kv, d)
    norm_kv: np.ndarray  # (r_kv,)
    w_kb: np.ndarray     # (H*d_nope, r_kv)
    w_vb: np.ndarray     # (H*d_v, r_kv)
    w_kr: np.ndarray     # (d_rope, d)
    w_o: np.ndarray      # (d, H*d_v)
    w_gate: np.ndarray | None = None  # (d, d) when gate_mode

    def named_tensors(self, prefix: str) -> dict:
        """Field order; `w_gate` only when gate_mode."""
        return {f"{prefix}.{f.name}": getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}

    @staticmethod
    def shapes(cfg: MlaConfig, d: int) -> dict:
        """Field -> shape for model width `d`, as in the field comments."""
        H, r_q, r_kv = cfg.n_heads, cfg.r_q, cfg.r_kv
        out = {"w_qa": (r_q, d), "norm_q": (r_q,), "w_qb": (H * cfg.d_qk_nope, r_q),
               "w_qr": (H * cfg.d_qk_rope, r_q), "w_kva": (r_kv, d),
               "norm_kv": (r_kv,), "w_kb": (H * cfg.d_qk_nope, r_kv),
               "w_vb": (H * cfg.d_v, r_kv), "w_kr": (cfg.d_qk_rope, d),
               "w_o": (d, H * cfg.d_v)}
        if cfg.gate_mode:
            out["w_gate"] = (d, d)
        return out


@dataclass
class MlaCache:
    kv: np.ndarray  # (T, r_kv + d_rope): [Norm(c^KV) | rotated k^rope] per token
    r_kv: int

    @classmethod
    def empty(cls, cfg: MlaConfig) -> "MlaCache":
        return cls(np.zeros((0, cfg.cache_per_token)), cfg.r_kv)

    @property
    def latents(self) -> np.ndarray:
        """(T, r_kv) normalized c^KV, a view of `kv`."""
        return self.kv[:, :self.r_kv]

    @property
    def rope_keys(self) -> np.ndarray:
        """(T, d_rope) rotated rope keys, a view of `kv`."""
        return self.kv[:, self.r_kv:]

    def __len__(self) -> int:
        return self.kv.shape[0]


@lru_cache
def _yarn_frequencies(dim: int, theta: float, factor: float, orig_context: int):
    """(read-only inverse frequencies, mscale), computed once per rope setup."""
    inv_freq = yarn_inv_freq(dim, theta, factor, orig_context)
    inv_freq.flags.writeable = False
    return inv_freq, yarn_mscale(factor)


def _mla_rope_tables(cfg: MlaConfig, positions: np.ndarray):
    inv_freq, mscale = _yarn_frequencies(cfg.d_qk_rope, cfg.rope_theta,
                                         cfg.yarn_factor, cfg.orig_context)
    return rope_tables(inv_freq, positions, mscale)


def _check_position(cfg: MlaConfig, cache: MlaCache, position_offset: int,
                    T: int) -> None:
    if len(cache) and len(cache) != position_offset:
        raise ValueError(f"cache holds {len(cache)} tokens, expected {position_offset}")
    if not cfg.nope_mode and position_offset + T > cfg.max_context:
        raise ValueError(
            f"position {position_offset + T} exceeds rope table range {cfg.max_context}")


def _mla_decode_step(w: MlaBlockWeights, cfg: MlaConfig, x: np.ndarray,
                     cache: MlaCache, pos: int):
    """One token x (d,) at position `pos` in latent space (weight absorption):
    w_kb folds into the query, so scores read the cached rows directly, and
    w_vb maps the attended latent to each head's value. Returns (output
    (1, d), cache extended by this token's row)."""
    H, dn, r_kv = cfg.n_heads, cfg.d_qk_nope, cfg.r_kv
    _check_position(cfg, cache, pos, 1)
    cq = rmsnorm(w.w_qa @ x, w.norm_q, cfg.eps)
    qn = (w.w_qb @ cq).reshape(H, 1, dn)
    # Rows 0..H-1 are the query heads' rope parts, row H the shared rope key.
    rope = np.concatenate((w.w_qr @ cq, w.w_kr @ x)).reshape(H + 1, -1)
    if not cfg.nope_mode:
        rope = apply_rope(rope, *_mla_rope_tables(cfg, np.array([pos])))
    record_alloc("mla_cache", (len(cache) + 1) * cfg.cache_per_token)
    row = np.concatenate((rmsnorm(w.w_kva @ x, w.norm_kv, cfg.eps), rope[H]))
    kv = np.concatenate((cache.kv, row[None]))                  # (S, r_kv + dr)
    q = np.concatenate((np.matmul(qn, w.w_kb.reshape(H, dn, r_kv))[:, 0], rope[:H]),
                       axis=-1)
    q *= 1.0 / np.sqrt(cfg.d_qk)
    probs = softmax(q @ kv.T)                                   # (H, S)
    ctx_lat = probs @ kv[:, :r_kv]                              # (H, r_kv)
    ctx = np.matmul(w.w_vb.reshape(H, cfg.d_v, r_kv), ctx_lat[:, :, None])
    out = w.w_o @ ctx.reshape(-1)
    if cfg.gate_mode:
        out *= sigmoid(w.w_gate @ x)
    return out[None], MlaCache(kv, r_kv)


def _project(w: MlaBlockWeights, cfg: MlaConfig, xb: np.ndarray, cache: MlaCache,
             position_offset: int):
    """Prefill/training projections of xb (B, T, d), the tokens after the
    cached ones from `position_offset`. Returns (cq_raw, cq, ckv_raw, kv, q_h,
    k_h, v_h, cos, sin): the query latent before and after its norm, the KV
    latent before it, the cache rows kv (B, S, r_kv + d_rope) with the prior
    first, and the attention inputs (B, H, T|S, d_qk|d_v)."""
    B, T = xb.shape[0], xb.shape[1]
    H, dn, dr, dv = cfg.n_heads, cfg.d_qk_nope, cfg.d_qk_rope, cfg.d_v
    cos, sin = _mla_rope_tables(cfg, np.arange(position_offset, position_offset + T))

    cq_raw = xb @ w.w_qa.T
    cq = rmsnorm(cq_raw, w.norm_q, cfg.eps)
    qn = (cq @ w.w_qb.T).reshape(B, T, H, dn)
    qr_pre = (cq @ w.w_qr.T).reshape(B, T, H, dr)
    qr = qr_pre if cfg.nope_mode else apply_rope(qr_pre, cos[:, None, :], sin[:, None, :])

    ckv_raw = xb @ w.w_kva.T
    kr_pre = xb @ w.w_kr.T
    kr_new = kr_pre if cfg.nope_mode else apply_rope(kr_pre, cos, sin)
    kv_new = np.concatenate(
        [rmsnorm(ckv_raw, w.norm_kv, cfg.eps), kr_new], axis=-1)
    kv = np.concatenate([np.broadcast_to(cache.kv, (B,) + cache.kv.shape), kv_new],
                        axis=1)
    S = kv.shape[1]
    ckv, rope_keys = kv[..., :cfg.r_kv], kv[..., cfg.r_kv:]

    # Per-head keys [k^nope | shared k^rope] and values.
    kn = (ckv @ w.w_kb.T).reshape(B, S, H, dn)
    kr = np.broadcast_to(rope_keys[:, :, None], (B, S, H, dr))
    q_h = np.concatenate([qn, qr], axis=-1).transpose(0, 2, 1, 3)  # (B, H, T, d_qk)
    k_h = np.concatenate([kn, kr], axis=-1).transpose(0, 2, 1, 3)  # (B, H, S, d_qk)
    v_h = (ckv @ w.w_vb.T).reshape(B, S, H, dv).transpose(0, 2, 1, 3)
    return cq_raw, cq, ckv_raw, kv, q_h, k_h, v_h, cos, sin


def mla_forward(w: MlaBlockWeights, cfg: MlaConfig, x: np.ndarray,
                cache: MlaCache | None = None, position_offset: int = 0,
                tape: dict | None = None):
    """Causal latent attention over x (T, d), or a fresh batch (B, T, d);
    returns (output, extended cache). With a cache, x holds new tokens
    starting at position_offset and attends over cached tokens plus itself;
    caching and decode are single-sequence only (batched calls return None).
    One token without a tape takes the absorbed decode step. A tape (x, lse,
    ctx2) needs a fresh sequence: no cached tokens and offset 0."""
    single = x.ndim == 2
    if not single and (cache is not None or position_offset):
        raise ValueError("cached decode requires a single sequence")
    if cache is None:
        cache = MlaCache.empty(cfg)
    if tape is not None and (len(cache) or position_offset):
        raise ValueError("a gradient tape requires a fresh sequence "
                         "(no cached tokens, position_offset 0)")
    if single and x.shape[0] == 1 and tape is None:
        return _mla_decode_step(w, cfg, x[0], cache, position_offset)
    xb = x[None] if single else x
    B, T = xb.shape[0], xb.shape[1]
    _check_position(cfg, cache, position_offset, T)
    n_prior = len(cache)
    record_alloc("mla_cache", (n_prior + T) * cfg.cache_per_token)
    _, _, _, kv, q_h, k_h, v_h, _, _ = _project(w, cfg, xb, cache, position_offset)
    ctx, lse = causal_attention(q_h, k_h, v_h, 1.0 / np.sqrt(cfg.d_qk), n_prior)
    ctx2 = ctx.transpose(0, 2, 1, 3).reshape(B, T, cfg.n_heads * cfg.d_v)
    out = ctx2 @ w.w_o.T
    if cfg.gate_mode:
        out *= sigmoid(xb @ w.w_gate.T)
    if tape is not None:
        tape.update(x=xb, lse=lse, ctx2=ctx2)
    if single:
        return out[0], MlaCache(kv[0], cfg.r_kv)
    return out, None


def mla_backward(w: MlaBlockWeights, cfg: MlaConfig, tape: dict, dout: np.ndarray):
    """Reverse-mode pass of the prefill forward; returns (dx, grads dict)."""
    single = dout.ndim == 2
    dout_b = dout[None] if single else dout
    x, ctx2 = tape["x"], tape["ctx2"]
    cq_raw, cq, ckv_raw, kv, q_h, k_h, v_h, cos, sin = _project(
        w, cfg, x, MlaCache.empty(cfg), 0)
    B, T = x.shape[0], x.shape[1]
    H, dn, dr, dv = cfg.n_heads, cfg.d_qk_nope, cfg.d_qk_rope, cfg.d_v
    x_flat = x.reshape(B * T, -1)
    grads = {}
    dx = np.zeros_like(x)

    if cfg.gate_mode:
        s = sigmoid(x @ w.w_gate.T)
        dgate_pre = dout_b * (ctx2 @ w.w_o.T) * s * (1.0 - s)   # ctx2 @ w_o.T: ungated
        grads["w_gate"] = dgate_pre.reshape(B * T, -1).T @ x_flat
        dx += dgate_pre @ w.w_gate
        dout_b = dout_b * s

    dctx2 = dout_b @ w.w_o
    grads["w_o"] = dout_b.reshape(B * T, -1).T @ ctx2.reshape(B * T, -1)
    dctx = dctx2.reshape(B, T, H, dv)
    delta = np.sum(dctx * ctx2.reshape(B, T, H, dv), axis=-1)
    dq, dk, dv_h = causal_attention_backward(
        q_h, k_h, v_h, 1.0 / np.sqrt(cfg.d_qk), 0, tape["lse"],
        delta.transpose(0, 2, 1), dctx.transpose(0, 2, 1, 3))
    dq = dq.transpose(0, 2, 1, 3)                               # (B, T, H, d_qk)
    dqr, dkr = dq[..., dn:], dk[..., dn:].sum(axis=1)           # (B, T, dr)

    if not cfg.nope_mode:
        dqr = apply_rope_backward(dqr, cos[:, None, :], sin[:, None, :])
        dkr = apply_rope_backward(dkr, cos, sin)
    grads["w_kr"] = dkr.reshape(B * T, -1).T @ x_flat
    dx += dkr @ w.w_kr

    dkn = dk[..., :dn].transpose(0, 2, 1, 3).reshape(B, T, H * dn)
    dv_flat = dv_h.transpose(0, 2, 1, 3).reshape(B, T, H * dv)
    dckv = dv_flat @ w.w_vb + dkn @ w.w_kb
    ckv_flat = kv[..., :cfg.r_kv].reshape(B * T, -1)
    grads["w_vb"] = dv_flat.reshape(B * T, -1).T @ ckv_flat
    grads["w_kb"] = dkn.reshape(B * T, -1).T @ ckv_flat
    dckv_raw, grads["norm_kv"] = rmsnorm_backward(ckv_raw, w.norm_kv, cfg.eps, dckv)
    grads["w_kva"] = dckv_raw.reshape(B * T, -1).T @ x_flat
    dx += dckv_raw @ w.w_kva

    dqn = dq[..., :dn].reshape(B, T, H * dn)
    dqr_flat = dqr.reshape(B, T, H * dr)
    dcq = dqr_flat @ w.w_qr + dqn @ w.w_qb
    cq_flat = cq.reshape(B * T, -1)
    grads["w_qr"] = dqr_flat.reshape(B * T, -1).T @ cq_flat
    grads["w_qb"] = dqn.reshape(B * T, -1).T @ cq_flat
    dcq_raw, grads["norm_q"] = rmsnorm_backward(cq_raw, w.norm_q, cfg.eps, dcq)
    grads["w_qa"] = dcq_raw.reshape(B * T, -1).T @ x_flat
    dx += dcq_raw @ w.w_qa
    return (dx[0] if single else dx), grads


def init_mla_from_teacher(layer: GqaWeights, teacher_cfg: TransformerConfig,
                          cfg: MlaConfig, seed: int = 0) -> MlaBlockWeights:
    """Factorize a teacher attention layer into latent-attention weights."""
    d_h, d = teacher_cfg.head_dim, teacher_cfg.d_model
    H = cfg.n_heads
    if H != teacher_cfg.n_q_heads:
        raise ValueError("latent config head count must match the teacher query heads")
    if cfg.d_qk_nope + cfg.d_qk_rope > d_h:
        raise ValueError("d_qk_nope + d_qk_rope exceeds the teacher head dim")
    if cfg.d_v != d_h:
        raise ValueError("d_v must equal the teacher head dim")

    # Query path: truncated SVD of the full-head query projection.
    if cfg.r_q > min(H * d_h, d):
        raise ValueError("r_q larger than the query matrix rank capacity")
    fq = svd(layer.wq, cfg.r_q)
    w_qa = fq.sigma[:, None] * fq.v.T                       # (r_q, d)
    up_q = fq.u.reshape(H, d_h, cfg.r_q)                    # per-head row blocks
    w_qb = up_q[:, :cfg.d_qk_nope, :].reshape(H * cfg.d_qk_nope, cfg.r_q)
    w_qr = up_q[:, d_h - cfg.d_qk_rope:, :].reshape(H * cfg.d_qk_rope, cfg.r_q)

    # Joint KV path: expand grouped KV heads, row-concatenate, factorize.
    wk_full = repeat_kv(layer.wk, d_h, teacher_cfg.group)
    wv_full = repeat_kv(layer.wv, d_h, teacher_cfg.group)
    kv = np.concatenate([wk_full, wv_full], axis=0)         # (2*H*d_h, d)
    if cfg.r_kv > min(kv.shape):
        raise ValueError("r_kv larger than the KV matrix rank capacity")
    fkv = svd(kv, cfg.r_kv)
    w_kva = fkv.sigma[:, None] * fkv.v.T                    # (r_kv, d)
    up_k = fkv.u[: H * d_h].reshape(H, d_h, cfg.r_kv)
    w_kb = up_k[:, :cfg.d_qk_nope, :].reshape(H * cfg.d_qk_nope, cfg.r_kv)
    w_vb = fkv.u[H * d_h:].reshape(H * cfg.d_v, cfg.r_kv)

    # Shared rope key from the head-averaged key projection; truncated output.
    k_avg = wk_full.reshape(H, d_h, d).mean(axis=0)
    w_kr = k_avg[d_h - cfg.d_qk_rope:, :]
    w_o = layer.wo[:, : H * cfg.d_v]

    w_gate = None
    if cfg.gate_mode:
        rng = np.random.default_rng(seed)
        w_gate = f32_resolution(rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d)))

    return MlaBlockWeights(
        w_qa=f32_resolution(w_qa), norm_q=np.ones(cfg.r_q),
        w_qb=f32_resolution(w_qb), w_qr=f32_resolution(w_qr),
        w_kva=f32_resolution(w_kva), norm_kv=np.ones(cfg.r_kv),
        w_kb=f32_resolution(w_kb), w_vb=f32_resolution(w_vb),
        w_kr=f32_resolution(w_kr), w_o=f32_resolution(w_o), w_gate=w_gate)
