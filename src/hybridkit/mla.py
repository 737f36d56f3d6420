"""Multi-head latent attention block.

Queries and keys/values pass through low-rank bottlenecks:

    c^Q = W_qa x            c^KV = W_kva x           k^rope = W_kr x
    q^nope = W_qb Norm(c^Q)              k^nope = W_kb Norm(c^KV)
    q^rope = W_qr Norm(c^Q)              v      = W_vb Norm(c^KV)

Per head the query/key are [nope; RoPE(rope)] with the rope key shared across
heads, and standard causal attention runs at scale 1/sqrt(d_nope + d_rope).
The cache holds one row of r_kv + d_rope elements per token,
[Norm(c^KV) | RoPE(k^rope)], normalized once when the token is appended.
Prefill and training expand per-head keys/values from it. A single new token
attends in latent space instead (weight absorption, DeepSeek-V2 §2.1): its
query becomes [W_kb[h]^T q^nope[h] | q^rope[h]], scores are one product with
the cached rows, and W_vb[h] maps the attended latent back to head h's value.

Initialization from a teacher attention layer factorizes the teacher's
projections with truncated SVD: the query path from W_q directly, the joint
KV path from the row-concatenated, GQA-expanded [W_k; W_v]; the shared rope
key takes the last d_rope rows of the head-averaged key projection, and the
output projection is truncated column-wise.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .accounting import record_alloc
from .checkpoint import TeacherLayer, TransformerConfig
from .numerics import (apply_rope, apply_rope_backward, f32_resolution,
                       repeat_kv, rmsnorm, rmsnorm_backward, rope_inv_freq,
                       rope_tables, sigmoid, softmax, svd, yarn_inv_freq,
                       yarn_mscale)


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
        return {
            "r_q": self.r_q, "r_kv": self.r_kv, "d_qk_nope": self.d_qk_nope,
            "d_qk_rope": self.d_qk_rope, "d_v": self.d_v, "n_heads": self.n_heads,
            "rope_theta": self.rope_theta, "eps": self.eps,
            "nope_mode": self.nope_mode, "gate_mode": self.gate_mode,
            "yarn_factor": self.yarn_factor, "orig_context": self.orig_context,
        }

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
    """Rescale rotary frequencies for a `factor`x longer effective context."""
    if factor < 1.0:
        raise ValueError("factor must be >= 1")
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
        out = {f"{prefix}.{k}": v for k, v in [
            ("w_qa", self.w_qa), ("norm_q", self.norm_q), ("w_qb", self.w_qb),
            ("w_qr", self.w_qr), ("w_kva", self.w_kva), ("norm_kv", self.norm_kv),
            ("w_kb", self.w_kb), ("w_vb", self.w_vb), ("w_kr", self.w_kr),
            ("w_o", self.w_o)]}
        if self.w_gate is not None:
            out[f"{prefix}.w_gate"] = self.w_gate
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


def _mla_rope_tables(cfg: MlaConfig, positions: np.ndarray):
    if cfg.yarn_factor > 1.0:
        inv_freq = yarn_inv_freq(cfg.d_qk_rope, cfg.rope_theta, cfg.yarn_factor,
                                 cfg.orig_context)
    else:
        inv_freq = rope_inv_freq(cfg.d_qk_rope, cfg.rope_theta)
    return rope_tables(inv_freq, positions, yarn_mscale(cfg.yarn_factor))


def mla_forward(w: MlaBlockWeights, cfg: MlaConfig, x: np.ndarray,
                cache: MlaCache | None = None, position_offset: int = 0,
                tape: dict | None = None):
    """Causal latent attention over x (T, d), or a fresh batch (B, T, d);
    returns (output, extended cache). With a cache, x holds new tokens
    starting at position_offset and attends over cached tokens plus itself;
    caching and decode are single-sequence only (batched calls return None)."""
    single = x.ndim == 2
    xb = x[None] if single else x
    B, T = xb.shape[0], xb.shape[1]
    H, dn, dr, dv = cfg.n_heads, cfg.d_qk_nope, cfg.d_qk_rope, cfg.d_v
    if not single and (cache is not None or position_offset):
        raise ValueError("cached decode requires a single sequence")
    if cache is None:
        cache = MlaCache.empty(cfg)
    if len(cache) and len(cache) != position_offset:
        raise ValueError(f"cache holds {len(cache)} tokens, expected {position_offset}")
    n_prior = len(cache)
    if not cfg.nope_mode and position_offset + T > cfg.max_context:
        raise ValueError(
            f"position {position_offset + T} exceeds rope table range {cfg.max_context}")

    positions = np.arange(position_offset, position_offset + T)
    cos, sin = _mla_rope_tables(cfg, positions)

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

    record_alloc("mla_cache", (n_prior + T) * cfg.cache_per_token)
    kv = np.concatenate([np.broadcast_to(cache.kv, (B,) + cache.kv.shape), kv_new],
                        axis=1)
    S = kv.shape[1]
    ckv, rope_keys = kv[..., :cfg.r_kv], kv[..., cfg.r_kv:]

    scale = 1.0 / np.sqrt(cfg.d_qk)
    if single and T == 1 and tape is None:
        # Absorbed step: w_kb folds into the query, so scores read the cached
        # rows directly, and w_vb maps the attended latent to each head's value.
        q_lat = np.matmul(qn[0, 0, :, None, :], w.w_kb.reshape(H, dn, -1))[:, 0]
        q = np.concatenate([q_lat, qr[0, 0]], axis=-1) * scale     # (H, r_kv + dr)
        probs = softmax(q @ kv[0].T)                                # (H, S)
        ctx_lat = probs @ ckv[0]                                    # (H, r_kv)
        ctx = np.matmul(w.w_vb.reshape(H, dv, -1), ctx_lat[:, :, None])
        ctx2 = ctx.reshape(B, T, H * dv)
    else:
        # Expanded form: per-head keys/values for every cached token.
        kn = (ckv @ w.w_kb.T).reshape(B, S, H, dn)
        v = (ckv @ w.w_vb.T).reshape(B, S, H, dv)
        mask = np.triu(np.full((T, S), -np.inf), k=1 + n_prior)
        qn_h = qn.transpose(0, 2, 1, 3)                 # (B, H, T, dn)
        qr_h = qr.transpose(0, 2, 1, 3)
        kn_h = kn.transpose(0, 2, 1, 3)                 # (B, H, S, dn)
        v_h = v.transpose(0, 2, 1, 3)
        scores = (np.matmul(qn_h, kn_h.transpose(0, 1, 3, 2))
                  + np.matmul(qr_h, rope_keys[:, None].transpose(0, 1, 3, 2))) * scale
        probs = softmax(scores + mask)                  # (B, H, T, S)
        ctx = np.matmul(probs, v_h)                     # (B, H, T, dv)
        ctx2 = ctx.transpose(0, 2, 1, 3).reshape(B, T, H * dv)
    out = ctx2 @ w.w_o.T

    gate_pre = None
    if cfg.gate_mode:
        gate_pre = xb @ w.w_gate.T
        out = out * sigmoid(gate_pre)

    if tape is not None:
        tape.update(x=xb, cq_raw=cq_raw, cq=cq, qn_h=qn_h, qr_h=qr_h,
                    ckv_raw=ckv_raw, ckv=ckv, kn_h=kn_h, v_h=v_h,
                    rope_keys=rope_keys, probs=probs, ctx2=ctx2, cos=cos,
                    sin=sin, gate_pre=gate_pre,
                    out_ungated=ctx2 @ w.w_o.T if cfg.gate_mode else None)
    if single:
        return out[0], MlaCache(kv[0], cfg.r_kv)
    return out, None


def mla_backward(w: MlaBlockWeights, cfg: MlaConfig, tape: dict, dout: np.ndarray):
    """Reverse-mode pass of the prefill forward; returns (dx, grads dict)."""
    single = dout.ndim == 2
    dout_b = dout[None] if single else dout
    x, probs = tape["x"], tape["probs"]
    B, T = x.shape[0], x.shape[1]
    S = probs.shape[-1]
    H, dn, dr, dv = cfg.n_heads, cfg.d_qk_nope, cfg.d_qk_rope, cfg.d_v
    scale = 1.0 / np.sqrt(cfg.d_qk)
    x_flat = x.reshape(B * T, -1)
    grads = {}
    dx = np.zeros_like(x)

    if cfg.gate_mode:
        s = sigmoid(tape["gate_pre"])
        dgate_pre = dout_b * tape["out_ungated"] * s * (1.0 - s)
        grads["w_gate"] = dgate_pre.reshape(B * T, -1).T @ x_flat
        dx += dgate_pre @ w.w_gate
        dout_b = dout_b * s

    dctx2 = dout_b @ w.w_o
    grads["w_o"] = dout_b.reshape(B * T, -1).T @ tape["ctx2"].reshape(B * T, -1)
    dctx = dctx2.reshape(B, T, H, dv).transpose(0, 2, 1, 3)     # (B, H, T, dv)

    qn_h, qr_h, kn_h, v_h = tape["qn_h"], tape["qr_h"], tape["kn_h"], tape["v_h"]
    rope_keys = tape["rope_keys"]
    dp = np.matmul(dctx, v_h.transpose(0, 1, 3, 2))             # (B, H, T, S)
    dv_h = np.matmul(probs.transpose(0, 1, 3, 2), dctx)         # (B, H, S, dv)
    dscores = probs * (dp - np.sum(dp * probs, axis=-1, keepdims=True))
    draw = dscores * scale
    dqn_h = np.matmul(draw, kn_h)
    dkn_h = np.matmul(draw.transpose(0, 1, 3, 2), qn_h)
    dqr_h = np.matmul(draw, rope_keys[:, None])
    dkr = np.matmul(draw.transpose(0, 1, 3, 2), qr_h).sum(axis=1)   # (B, S, dr)

    cos, sin = tape["cos"], tape["sin"]
    dqr = dqr_h.transpose(0, 2, 1, 3)                           # (B, T, H, dr)
    if not cfg.nope_mode:
        dqr = apply_rope_backward(dqr, cos[:, None, :], sin[:, None, :])
        dkr = apply_rope_backward(dkr, cos, sin)
    grads["w_kr"] = dkr.reshape(B * S, -1).T @ x_flat
    dx += dkr @ w.w_kr

    dkn = dkn_h.transpose(0, 2, 1, 3).reshape(B, S, H * dn)
    dv_flat = dv_h.transpose(0, 2, 1, 3).reshape(B, S, H * dv)
    dckv = dv_flat @ w.w_vb + dkn @ w.w_kb
    ckv_flat = tape["ckv"].reshape(B * S, -1)
    grads["w_vb"] = dv_flat.reshape(B * S, -1).T @ ckv_flat
    grads["w_kb"] = dkn.reshape(B * S, -1).T @ ckv_flat
    dckv_raw, grads["norm_kv"] = rmsnorm_backward(tape["ckv_raw"], w.norm_kv,
                                                  cfg.eps, dckv)
    grads["w_kva"] = dckv_raw.reshape(B * S, -1).T @ x_flat
    dx += dckv_raw @ w.w_kva

    dqn = dqn_h.transpose(0, 2, 1, 3).reshape(B, T, H * dn)
    dqr_flat = dqr.reshape(B, T, H * dr)
    dcq = dqr_flat @ w.w_qr + dqn @ w.w_qb
    cq_flat = tape["cq"].reshape(B * T, -1)
    grads["w_qr"] = dqr_flat.reshape(B * T, -1).T @ cq_flat
    grads["w_qb"] = dqn.reshape(B * T, -1).T @ cq_flat
    dcq_raw, grads["norm_q"] = rmsnorm_backward(tape["cq_raw"], w.norm_q,
                                                cfg.eps, dcq)
    grads["w_qa"] = dcq_raw.reshape(B * T, -1).T @ x_flat
    dx += dcq_raw @ w.w_qa
    return (dx[0] if single else dx), grads


def init_mla_from_teacher(layer: TeacherLayer, teacher_cfg: TransformerConfig,
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
