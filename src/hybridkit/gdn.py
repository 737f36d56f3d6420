"""Gated delta-rule mixer.

Each head keeps an associative state matrix S in R^{d_hk x d_hv}, updated per
timestep by an exponential forget gate followed by a delta-rule write:

    S~_t = exp(g_t) * S_{t-1}              decay, g_t < 0
    v'_t = v_t - S~_t^T k_t                remove what k_t currently retrieves
    S_t  = S~_t + k_t (beta_t * v'_t)^T    write back, beta_t in (0, 1)
    o_t  = S_t^T q_t / sqrt(d_hk)          read

with g_t = -exp(A_log) * softplus(W_a x_t + dt_bias) and
beta_t = sigmoid(W_b x_t). Queries/keys/values come from linear projections
followed by a causal depthwise conv (width 4) and SiLU; q and k are then
L2-normalized per head, which keeps the rank-1 write contractive (the
update along k scales by 1 - beta |k|^2, so unit keys bound it in (0, 1)).
The read is RMS-normalized per head, gated by SiLU(W_g x_t), and projected
back to d.

The sequential path runs a sequence one token at a time through the decode
step, `_gdn_token`, whose rank-1 update is `_delta_step`. The chunked path is
algebraically identical: within a chunk the per-step corrections u_t solve a
unit-lower-triangular system (the compact WY form of the rank-1 update
sequence), and the state crosses chunk boundaries once per chunk. All
cross-step decay factors exp(b_t - b_s) use log-space cumulative sums and
are <= 1, so the form is stable.

Dimensions follow d_k = floor(0.75 d), d_v = 2 d_k, head dims d_k/H and d_v/H.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .numerics import (CONV_WIDTH, causal_conv1d, causal_conv1d_backward,
                       f32_resolution, inverse_softplus, repeat_kv, rmsnorm,
                       rmsnorm_backward, sigmoid, silu, silu_grad, softplus)
from .teacher import GqaWeights, TransformerConfig

# Tokens per chunk of the chunk-parallel core. Results do not depend on it
# beyond rounding. Timed at d 128 with 4 heads (training steps of 128 and 512
# tokens, prefills of 128 and 1024), 32 was the fastest of 16/32/64, or within
# 3% of the fastest. Re-timed with the chunk inverse (core fwd+bwd at 512
# tokens, core prefill at 128 and 1024): 16 and 32 within noise of each other,
# 64 and 128 slower by 1.2-4x.
CHUNK = 32


@dataclass
class GdnConfig:
    d: int
    n_heads: int

    def __post_init__(self):
        if self.d_k % self.n_heads != 0:
            raise ValueError(
                f"d_k = floor(0.75*{self.d}) = {self.d_k} not divisible by H = {self.n_heads}")

    @property
    def d_k(self) -> int:
        return int(0.75 * self.d)

    @property
    def d_v(self) -> int:
        return 2 * self.d_k

    @property
    def head_k(self) -> int:
        return self.d_k // self.n_heads

    @property
    def head_v(self) -> int:
        return self.d_v // self.n_heads

    def to_dict(self) -> dict:
        return {"d": self.d, "n_heads": self.n_heads, "chunk": CHUNK}

    @classmethod
    def from_dict(cls, d: dict) -> "GdnConfig":
        """Drops the `chunk` key: containers written with any chunk length
        load with CHUNK, which changes no result beyond rounding."""
        return cls(**{k: v for k, v in d.items() if k != "chunk"})


@dataclass
class GdnBlockWeights:
    w_q: np.ndarray        # (d_k, d)
    w_k: np.ndarray        # (d_k, d)
    w_v: np.ndarray        # (d_v, d)
    w_g: np.ndarray        # (d_v, d)
    w_o: np.ndarray        # (d, d_v)
    w_alpha: np.ndarray    # (H, d)
    w_beta: np.ndarray     # (H, d)
    a_log: np.ndarray      # (H,)
    dt_bias: np.ndarray    # (H,)
    conv_q: np.ndarray     # (d_k, 4)
    conv_k: np.ndarray     # (d_k, 4)
    conv_v: np.ndarray     # (d_v, 4)
    o_norm: np.ndarray     # (head_v,)

    def named_tensors(self, prefix: str) -> dict:
        return {f"{prefix}.{f.name}": getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def shapes(cfg: GdnConfig) -> dict:
        """Field -> shape, as in the field comments."""
        d, d_k, d_v, H = cfg.d, cfg.d_k, cfg.d_v, cfg.n_heads
        return {"w_q": (d_k, d), "w_k": (d_k, d), "w_v": (d_v, d), "w_g": (d_v, d),
                "w_o": (d, d_v), "w_alpha": (H, d), "w_beta": (H, d),
                "a_log": (H,), "dt_bias": (H,), "conv_q": (d_k, CONV_WIDTH),
                "conv_k": (d_k, CONV_WIDTH), "conv_v": (d_v, CONV_WIDTH),
                "o_norm": (cfg.head_v,)}


@dataclass
class GdnState:
    s: np.ndarray        # (H, head_k, head_v)
    conv_q: np.ndarray   # (3, d_k) trailing raw projections for conv continuation
    conv_k: np.ndarray   # (3, d_k)
    conv_v: np.ndarray   # (3, d_v)

    @classmethod
    def zeros(cls, cfg: GdnConfig) -> "GdnState":
        return cls(
            s=np.zeros((cfg.n_heads, cfg.head_k, cfg.head_v)),
            conv_q=np.zeros((CONV_WIDTH - 1, cfg.d_k)),
            conv_k=np.zeros((CONV_WIDTH - 1, cfg.d_k)),
            conv_v=np.zeros((CONV_WIDTH - 1, cfg.d_v)),
        )


L2_EPS = 1e-6


def l2norm(x):
    """Normalize the last axis to (near-)unit length: x / (|x| + L2_EPS)."""
    n = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / (n + L2_EPS)


def l2norm_backward(x, dy):
    """Adjoint of l2norm; the per-row reductions go through einsum and dx is
    built in place."""
    n = np.sqrt(np.einsum("...i,...i->...", x, x))[..., None]
    coef = np.einsum("...i,...i->...", x, dy)[..., None]
    coef /= np.maximum(n, 1e-30) * (n + L2_EPS) ** 2
    dx = dy * (1.0 / (n + L2_EPS))
    dx -= x * coef
    return dx


# ---------------------------------------------------------------------------
# Recurrence cores (head-major, N = batch x heads; q/k: (N,T,dk), v: (N,T,dv),
# g/beta: (N,T))
# ---------------------------------------------------------------------------

def _delta_step(s, q, k, v, g, beta):
    """One gated delta-rule step for every head: s (H, dk, dv), q and k
    (H, dk), v (H, dv), g and beta (H,). Returns (read (H, dv), new state);
    `s` is left as it was."""
    s = np.exp(g)[:, None, None] * s                    # S~ = exp(g) S
    u = v - np.matmul(k[:, None, :], s)[:, 0]           # v - S~^T k
    u *= beta[:, None]
    s += k[:, :, None] * u[:, None, :]
    o = np.matmul(q[:, None, :], s)[:, 0]
    o *= 1.0 / np.sqrt(q.shape[-1])
    return o, s


def delta_rule_sequential(q, k, v, g, beta, s0):
    """Token-by-token gated delta rule; returns (reads (N,T,dv), final state).
    The reference the chunked core is tested against; it runs the decode
    step's `_delta_step`."""
    o = np.empty(v.shape)
    s = s0
    for t in range(q.shape[1]):
        o[:, t], s = _delta_step(s, q[:, t], k[:, t], v[:, t], g[:, t], beta[:, t])
    return o, s


def _chunk_terms(q, k, g, c0, c1, masks):
    """Everything about chunk [c0, c1) that follows from its queries, keys and
    gates alone: the log-decay b from the chunk start, exp(b), the tail
    exp(b_C - b_s) <= 1, the inclusive and strict pairwise decays
    exp(b_t - b_s) (zero above the diagonal), K K^T and Q K^T. The forward
    builds them, and the backward rebuilds them instead of taping them.
    `masks` are the (incl, strict) masks of a full chunk; a shorter last
    chunk takes their leading block."""
    C = c1 - c0
    qc, kc = q[:, c0:c1], k[:, c0:c1]
    b = np.cumsum(g[:, c0:c1], axis=1)          # (N, C)
    # Mask in log space: upper-triangle differences are positive and may
    # overflow.
    db = b[:, :, None] - b[:, None, :]          # (N, C, C)
    decay_incl = np.exp(np.where(masks[0][:C, :C], db, -np.inf))
    decay_strict = np.where(masks[1][:C, :C], decay_incl, 0.0)
    eb = np.exp(b)
    tail = np.exp(b[:, -1][:, None] - b)
    kk = np.matmul(kc, kc.transpose(0, 2, 1))
    qk = np.matmul(qc, kc.transpose(0, 2, 1))
    return b, eb, tail, decay_incl, decay_strict, kk, qk


def _chunk_masks(chunk: int):
    """The inclusive and strict lower-triangular masks of a full chunk."""
    return np.tri(chunk, dtype=bool), np.tri(chunk, k=-1, dtype=bool)


def delta_rule_chunked(q, k, v, g, beta, s0, chunk: int = CHUNK,
                       tape: list | None = None):
    """Chunk-parallel equivalent of the sequential rule. Within a chunk the
    per-step corrections solve a unit-lower-triangular system A U = R
    through A's inverse; the state crosses chunk boundaries once per chunk.
    The tape keeps, per chunk, what the inputs cannot cheaply give back: the
    inverse, the corrections U and the state the chunk started from."""
    N, T, dk = q.shape
    inv_sqrt = 1.0 / np.sqrt(dk)
    s = s0.copy()                       # (N, dk, dv)
    o = np.empty(v.shape)
    masks = _chunk_masks(chunk)
    eye_full = np.eye(chunk)
    for c0 in range(0, T, chunk):
        c1 = min(c0 + chunk, T)
        C = c1 - c0
        qc, kc, vc, bc = q[:, c0:c1], k[:, c0:c1], v[:, c0:c1], beta[:, c0:c1]
        b, eb, tail, decay_incl, decay_strict, kk, qk = _chunk_terms(q, k, g, c0, c1,
                                                                    masks)
        A = bc[:, :, None] * decay_strict
        A *= kk
        A += eye_full[:C, :C]                   # I + beta * D_str * (K K^T)
        # One inverse per chunk serves the forward (U = A^-1 R) and the
        # backward (lambda = A^-T dU); A is unit lower triangular with
        # off-diagonal entries below 1 in magnitude, so no pivot is taken.
        a_inv = np.linalg.inv(A)
        rhs = np.matmul(kc, s)                  # (N, C, dv) K S
        rhs *= eb[:, :, None]
        np.subtract(vc, rhs, out=rhs)
        rhs *= bc[:, :, None]                   # beta * (V - eb * (K S))
        u = np.matmul(a_inv, rhs)               # (N, C, dv) per-step corrections

        o_c = np.matmul(decay_incl * qk, u)
        qs = np.matmul(qc, s)
        qs *= eb[:, :, None]
        o_c += qs
        np.multiply(o_c, inv_sqrt, out=o[:, c0:c1])

        if tape is not None:
            tape.append(dict(a_inv=a_inv, u=u, s_in=s, span=(c0, c1)))
        s = np.exp(b[:, -1])[:, None, None] * s + np.matmul(
            (kc * tail[:, :, None]).transpose(0, 2, 1), u)
    return o, s


def delta_rule_chunked_backward(q, k, v, g, beta, tape: list, do):
    """Adjoint of delta_rule_chunked over the same inputs (q, k, v, g, beta);
    `do` is the gradient wrt the raw reads (pre 1/sqrt scaling applied here,
    matching the forward). Each chunk's decays, K K^T, Q K^T, K S_in and
    Q S_in are rebuilt from the inputs and the taped S_in."""
    N, T, dk = q.shape
    dv_dim = v.shape[-1]
    inv_sqrt = 1.0 / np.sqrt(dk)
    masks = _chunk_masks(tape[0]["span"][1] - tape[0]["span"][0])

    dq = np.empty((N, T, dk))
    dk_out = np.empty((N, T, dk))
    dv_out = np.empty((N, T, dv_dim))
    dg = np.empty((N, T))
    ds = np.zeros((N, dk, dv_dim))
    dbeta = np.empty((N, T))

    for ch in reversed(tape):
        c0, c1 = ch["span"]
        C = c1 - c0
        qc, kc, vc, bc = q[:, c0:c1], k[:, c0:c1], v[:, c0:c1], beta[:, c0:c1]
        u, s_in = ch["u"], ch["s_in"]
        b, eb, tail, decay_incl, decay_strict, kk, qk = _chunk_terms(q, k, g, c0, c1,
                                                                    masks)
        do_c = do[:, c0:c1] * inv_sqrt

        db = np.zeros((N, C))
        # S_out = exp(b_C) S_in + K^T (tail * U)
        ds_in = np.exp(b[:, -1])[:, None, None] * ds
        db[:, -1] += np.exp(b[:, -1]) * np.sum(ds * s_in, axis=(1, 2))
        dw = np.matmul(kc, ds)                              # (N, C, dv)
        dkc = np.matmul(tail[:, :, None] * u, ds.transpose(0, 2, 1))
        du = tail[:, :, None] * dw
        dtail = np.sum(dw * u, axis=-1)                     # (N, C)
        db -= dtail * tail
        db[:, -1] += np.sum(dtail * tail, axis=-1)

        # O = eb * (Q S_in) + P U  with P = D_inc * (Q K^T)
        dq[:, c0:c1] = eb[:, :, None] * np.matmul(do_c, s_in.transpose(0, 2, 1))
        ds_in += np.matmul((eb[:, :, None] * qc).transpose(0, 2, 1), do_c)
        db += eb * np.sum(do_c * np.matmul(qc, s_in), axis=-1)
        dp = np.matmul(do_c, u.transpose(0, 2, 1))          # (N, C, C)
        du += np.matmul((decay_incl * qk).transpose(0, 2, 1), do_c)
        dqk = dp * decay_incl
        dq[:, c0:c1] += np.matmul(dqk, kc)
        dkc += np.matmul(dqk.transpose(0, 2, 1), qc)
        e_inc = dqk * qk                                    # dD_inc * D_inc
        db += e_inc.sum(axis=2) - e_inc.sum(axis=1)

        # U = A^{-1} R
        lam = np.matmul(ch["a_inv"].transpose(0, 2, 1), du)
        dA = -np.matmul(lam, u.transpose(0, 2, 1))
        dr = lam

        # R = beta * (V - eb * (K S_in))
        ks = np.matmul(kc, s_in)
        core = vc - eb[:, :, None] * ks
        dbeta[:, c0:c1] = np.sum(dr * core, axis=-1)
        dv_out[:, c0:c1] = bc[:, :, None] * dr
        m = -(bc * eb)[:, :, None] * dr
        db -= bc * eb * np.sum(dr * ks, axis=-1)
        dkc += np.matmul(m, s_in.transpose(0, 2, 1))
        ds_in += np.matmul(kc.transpose(0, 2, 1), m)

        # A = I + beta * D_str * (K K^T)
        da_str = dA * decay_strict
        dbeta[:, c0:c1] += np.sum(da_str * kk, axis=-1)
        dkk = bc[:, :, None] * da_str
        dkc += np.matmul(dkk + dkk.transpose(0, 2, 1), kc)
        e_str = dkk * kk
        db += e_str.sum(axis=2) - e_str.sum(axis=1)

        # b = cumsum(g) within the chunk
        dg[:, c0:c1] = np.cumsum(db[:, ::-1], axis=1)[:, ::-1]
        dk_out[:, c0:c1] = dkc
        ds = ds_in
    return dq, dk_out, dv_out, dg, dbeta


# ---------------------------------------------------------------------------
# Full mixer layer
# ---------------------------------------------------------------------------

def _project_qkv(w: GdnBlockWeights, x, state: GdnState | None, tape: dict | None):
    q0 = x @ w.w_q.T
    k0 = x @ w.w_k.T
    v0 = x @ w.w_v.T
    hq = state.conv_q if state is not None else None
    hk = state.conv_k if state is not None else None
    hv = state.conv_v if state is not None else None
    q1 = causal_conv1d(q0, w.conv_q, hq)
    k1 = causal_conv1d(k0, w.conv_k, hk)
    v1 = causal_conv1d(v0, w.conv_v, hv)
    if tape is not None:
        tape.update(q0=q0, k0=k0, v0=v0, q1=q1, k1=k1, v1=v1)
    return silu(q1), silu(k1), silu(v1), (q0, k0, v0)


def _fold_heads(x):
    """(B, T, H, ...) -> (B*H, T, ...): batch and heads fold into the core's
    leading axis."""
    B, T, H = x.shape[:3]
    return x.swapaxes(1, 2).reshape(B * H, T, *x.shape[3:])


def _unfold_heads(x, B):
    """(B*H, T, ...) -> (B, T, H, ...), a view."""
    return x.reshape(B, -1, *x.shape[1:]).swapaxes(1, 2)


def _fold_core_inputs(w: GdnBlockWeights, cfg: GdnConfig, q, k, v, a_pre, beta):
    """The chunk core's inputs, batch and heads folded, from the SiLU outputs
    q, k, v (B, T, d_k | d_v) and the gate pre-activations: q and k (before
    their L2 norm), v, the forget gate g = -exp(a_log) * softplus(a_pre) < 0
    and beta. The forward builds them once; the backward rebuilds them from
    its tape."""
    B, T = q.shape[:2]
    H, hk, hv = cfg.n_heads, cfg.head_k, cfg.head_v
    g = -np.exp(w.a_log) * softplus(a_pre)          # (B, T, H)
    return (_fold_heads(q.reshape(B, T, H, hk)), _fold_heads(k.reshape(B, T, H, hk)),
            _fold_heads(v.reshape(B, T, H, hv)), _fold_heads(g), _fold_heads(beta))


def _gdn_layer_forward(w: GdnBlockWeights, cfg: GdnConfig, x, state, tape):
    """The chunked mixer body behind training and prefill. x is one sequence
    (T, d), optionally continued from `state`, or a batch (B, T, d) of fresh
    sequences. Returns (y, carried GdnState); the state is None for a batch.
    The tape holds the layer's inputs and pre-activations (x, the raw and
    conv projections, the gate pre-activations, beta, the read o_head) and
    the core's per-chunk tape; `gdn_backward` rebuilds everything else."""
    single = x.ndim == 2
    xb = x[None] if single else x
    if not single and state is not None:
        raise ValueError("state continuation requires a single sequence")
    B, T = xb.shape[0], xb.shape[1]
    H, hv = cfg.n_heads, cfg.head_v
    q, k, v, (q0, k0, v0) = _project_qkv(w, xb, state, tape)

    a_pre = xb @ w.w_alpha.T + w.dt_bias
    beta = sigmoid(xb @ w.w_beta.T)                 # (B, T, H), in (0, 1)
    q_pre, k_pre, v_c, g_c, beta_c = _fold_core_inputs(w, cfg, q, k, v, a_pre, beta)
    s0 = np.zeros((B * H, cfg.head_k, hv)) if state is None else state.s
    core_tape = [] if tape is not None else None
    # Unit-norm keys keep the delta-rule write contractive for any beta.
    o_raw, s_new = delta_rule_chunked(l2norm(q_pre), l2norm(k_pre), v_c, g_c, beta_c,
                                      s0, tape=core_tape)

    gate_pre = xb @ w.w_g.T                         # (B, T, d_v)
    o_head = _unfold_heads(o_raw, B)                # (B, T, H, hv)
    gated = silu(gate_pre).reshape(B, T, H, hv)
    gated *= rmsnorm(o_head, w.o_norm, 1e-6)
    y = gated.reshape(B, T, cfg.d_v) @ w.w_o.T

    if tape is not None:
        tape.update(x=xb, a_pre=a_pre, beta=beta, gate_pre=gate_pre, o_head=o_head,
                    core=core_tape)

    if not single:
        return y, None

    # Carry the last CONV_WIDTH - 1 raw projections, the older ones from
    # `prev` when T is shorter than that.
    prev = state if state is not None else GdnState.zeros(cfg)
    return y[0], GdnState(s_new,
                          np.concatenate((prev.conv_q[T:], q0[0, 1 - CONV_WIDTH:])),
                          np.concatenate((prev.conv_k[T:], k0[0, 1 - CONV_WIDTH:])),
                          np.concatenate((prev.conv_v[T:], v0[0, 1 - CONV_WIDTH:])))


def _gdn_token(w: GdnBlockWeights, cfg: GdnConfig, x, state: GdnState | None):
    """The mixer on one token x (d,) after `state` (None: a fresh sequence);
    returns (y (d,), new GdnState) and leaves `state` as it was. A single
    token needs no head fold, and projections are matvecs. q, k and v run
    side by side: one conv window of the three stored raw projections plus
    this token's, one contraction with the stacked kernels, one SiLU."""
    if state is None:
        state = GdnState.zeros(cfg)
    H, d_k = cfg.n_heads, cfg.d_k
    raw = np.concatenate((w.w_q @ x, w.w_k @ x, w.w_v @ x))
    window = np.concatenate((np.concatenate(
        (state.conv_q, state.conv_k, state.conv_v), axis=1), raw[None]))
    kernel = np.concatenate((w.conv_q, w.conv_k, w.conv_v))
    qkv = silu(np.einsum("kc,ck->c", window, kernel))
    qk = l2norm(qkv[:2 * d_k].reshape(2 * H, -1))
    g = -np.exp(w.a_log) * softplus(w.w_alpha @ x + w.dt_bias)
    beta = sigmoid(w.w_beta @ x)
    o, s = _delta_step(state.s, qk[:H], qk[H:], qkv[2 * d_k:].reshape(H, -1), g, beta)
    o = rmsnorm(o, w.o_norm, 1e-6)
    o *= silu(w.w_g @ x).reshape(H, -1)
    history = window[1:]
    return w.w_o @ o.reshape(-1), GdnState(s, history[:, :d_k], history[:, d_k:2 * d_k],
                                          history[:, 2 * d_k:])


# Three thin names: training, prefill and decode stay distinct call sites,
# which perfbench/bench.py wraps by name for its trace.

def gdn_forward_sequential(w: GdnBlockWeights, cfg: GdnConfig, x,
                           state: GdnState | None = None):
    """Mixer forward of one sequence x (T, d), token by token through the
    decode step: the cached decode path, and the reference for the chunked
    path. Returns (output, state)."""
    if x.ndim != 2:
        raise ValueError(f"the sequential path takes one sequence (T, d), got {x.shape}")
    y = np.empty((x.shape[0], cfg.d))
    for t in range(x.shape[0]):
        y[t], state = _gdn_token(w, cfg, x[t], state)
    return y, state


def gdn_forward_chunked(w: GdnBlockWeights, cfg: GdnConfig, x,
                        state: GdnState | None = None):
    """Mixer forward with the chunk-parallel core, numerically equivalent to
    the sequential path. Returns (output, state)."""
    return _gdn_layer_forward(w, cfg, x, state, None)


def gdn_forward_train(w: GdnBlockWeights, cfg: GdnConfig, x, tape: dict):
    """Training-path mixer forward: the chunk-parallel core with a gradient
    tape, for fresh sequences or batches."""
    return _gdn_layer_forward(w, cfg, x, None, tape)


def gdn_backward(w: GdnBlockWeights, cfg: GdnConfig, tape: dict, dy):
    """Reverse-mode pass of gdn_forward_train: the chunked core over fresh
    sequences, reversed from the tape that forward filled. The sigmoids of
    q1, k1, v1 and gate_pre are taken once each and serve both the rebuilt
    SiLU outputs (silu(x) = x sigmoid(x)) and the SiLU adjoints; from them
    the core inputs, the normed read o_n and the gated output are rebuilt."""
    x = tape["x"]                  # (B, T, d)
    single = dy.ndim == 2
    dyb = dy[None] if single else dy
    B, T = x.shape[0], x.shape[1]
    H, hv = cfg.n_heads, cfg.head_v
    x_flat = x.reshape(B * T, -1)
    grads = {}

    pre = {n: tape[f"{n}1"] for n in "qkv"}
    sig = {n: sigmoid(p) for n, p in pre.items()}
    a_pre, beta = tape["a_pre"], tape["beta"]
    q_pre, k_pre, v_c, g_c, beta_c = _fold_core_inputs(
        w, cfg, *(sig[n] * pre[n] for n in "qkv"), a_pre, beta)   # silu = x sigmoid(x)

    gate_pre = tape["gate_pre"].reshape(B, T, H, hv)
    o_n = rmsnorm(tape["o_head"], w.o_norm, 1e-6)
    s = sigmoid(gate_pre)
    dgated = (dyb @ w.w_o).reshape(B, T, H, hv)
    dgate_pre = silu_grad(gate_pre, s)
    dgate_pre *= o_n
    dgate_pre *= dgated
    dgate_pre = dgate_pre.reshape(B, T, cfg.d_v)
    s *= gate_pre               # silu(gate_pre)
    o_n *= s                    # gated
    grads["w_o"] = dyb.reshape(B * T, -1).T @ o_n.reshape(B * T, cfg.d_v)
    do_n = s
    do_n *= dgated
    grads["w_g"] = dgate_pre.reshape(B * T, -1).T @ x_flat
    dx = dgate_pre @ w.w_g

    do_head, grads["o_norm"] = rmsnorm_backward(tape["o_head"], w.o_norm, 1e-6, do_n)
    dq, dk, dv, dg, dbeta = delta_rule_chunked_backward(
        l2norm(q_pre), l2norm(k_pre), v_c, g_c, beta_c, tape["core"], _fold_heads(do_head))
    dpost = {"q": l2norm_backward(q_pre, dq), "k": l2norm_backward(k_pre, dk), "v": dv}
    dg, dbeta = _unfold_heads(dg, B), _unfold_heads(dbeta, B)     # (B, T, H)

    # Forget gate g = -exp(a_log) * softplus(a_pre), so dg/da_log = g.
    grads["a_log"] = np.sum((dg * _unfold_heads(g_c, B)).reshape(B * T, H), axis=0)
    da_pre = dg * (-np.exp(w.a_log)) * sigmoid(a_pre)
    grads["dt_bias"] = np.sum(da_pre.reshape(B * T, H), axis=0)
    grads["w_alpha"] = da_pre.reshape(B * T, H).T @ x_flat
    dx += da_pre @ w.w_alpha

    db_pre = dbeta * beta * (1.0 - beta)
    grads["w_beta"] = db_pre.reshape(B * T, H).T @ x_flat
    dx += db_pre @ w.w_beta

    # Through SiLU and the causal convs back to the raw projections.
    for name, conv_w, proj_w in (("q", w.conv_q, w.w_q), ("k", w.conv_k, w.w_k),
                                 ("v", w.conv_v, w.w_v)):
        d1 = silu_grad(pre[name], sig[name])
        d1 *= _unfold_heads(dpost[name], B).reshape(B, T, -1)
        d0, dconv = causal_conv1d_backward(tape[f"{name}0"], conv_w, d1)
        grads[f"conv_{name}"] = dconv
        grads[f"w_{name}"] = d0.reshape(B * T, -1).T @ x_flat
        dx += d0 @ proj_w
    return (dx[0] if single else dx), grads


# ---------------------------------------------------------------------------
# Initialization from a teacher attention layer, and parameter accounting
# ---------------------------------------------------------------------------

def init_gdn_from_teacher(layer: GqaWeights, teacher_cfg: TransformerConfig,
                          cfg: GdnConfig, seed: int = 0) -> GdnBlockWeights:
    """Transfer overlapping projection submatrices from the teacher; keep
    mixer-specific parameters (gate, decay, beta, convs) at seeded random."""
    d, d_k, d_v = cfg.d, cfg.d_k, cfg.d_v
    if d != teacher_cfg.d_model:
        raise ValueError("mixer width must match the teacher d_model")
    d_h = teacher_cfg.head_dim
    wk_full = repeat_kv(layer.wk, d_h, teacher_cfg.group)
    wv_full = repeat_kv(layer.wv, d_h, teacher_cfg.group)
    if d_k > layer.wq.shape[0] or d_k > wk_full.shape[0]:
        raise ValueError("teacher projections have fewer rows than d_k")

    rng = np.random.default_rng(seed)

    def normal(rows, cols):
        return rng.normal(0.0, 1.0 / np.sqrt(cols), size=(rows, cols))

    def uniform(shape, bound):
        return rng.uniform(-bound, bound, size=shape)

    w_q = normal(d_k, d)
    w_k = normal(d_k, d)
    w_v = normal(d_v, d)
    w_o = normal(d, d_v)
    w_q[:d_k] = layer.wq[:d_k]
    w_k[:d_k] = wk_full[:d_k]
    n_copy = min(d, d_v, wv_full.shape[0])
    w_v[:n_copy] = wv_full[:n_copy]
    o_copy = min(d, d_v, layer.wo.shape[1])
    w_o[:, :o_copy] = layer.wo[:, :o_copy]

    # Decay and write-strength projections start near zero so the initial
    # per-head timescales are set by dt_bias (softplus in [1e-3, 1e-1]) and
    # survive long contexts; they sharpen during training.
    H = cfg.n_heads
    return GdnBlockWeights(
        w_q=f32_resolution(w_q), w_k=f32_resolution(w_k), w_v=f32_resolution(w_v),
        w_g=f32_resolution(uniform((d_v, d), 1.0 / np.sqrt(d))),
        w_o=f32_resolution(w_o),
        w_alpha=f32_resolution(uniform((H, d), 0.02 / np.sqrt(d))),
        w_beta=f32_resolution(uniform((H, d), 0.02 / np.sqrt(d))),
        a_log=f32_resolution(np.log(rng.uniform(1.0, 16.0, size=H))),
        dt_bias=f32_resolution(inverse_softplus(rng.uniform(1e-3, 1e-1, size=H))),
        conv_q=f32_resolution(uniform((d_k, CONV_WIDTH), 1.0 / np.sqrt(CONV_WIDTH))),
        conv_k=f32_resolution(uniform((d_k, CONV_WIDTH), 1.0 / np.sqrt(CONV_WIDTH))),
        conv_v=f32_resolution(uniform((d_v, CONV_WIDTH), 1.0 / np.sqrt(CONV_WIDTH))),
        o_norm=np.ones(cfg.head_v),
    )


def gdn_param_count(cfg: GdnConfig) -> int:
    """Exact mixer parameter count (projections, gates, decays, convs, norm)."""
    return sum(math.prod(shape) for shape in GdnBlockWeights.shapes(cfg).values())
