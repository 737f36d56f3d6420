"""Dense numeric kernels shared by every block: activations, causal attention,
norms, causal convolution, truncated SVD, KV-head replication, rotary embeddings.

All math runs in float64. Weight tensors live on the float32 grid (see
`f32_resolution`) so the on-disk container round-trips bit-exactly.
"""

import numpy as np

Array = np.ndarray


def f32_resolution(x: Array) -> Array:
    """Snap values to the nearest float32, returned as float64."""
    return np.asarray(x, dtype=np.float32).astype(np.float64)


def check_finite(x: Array, what: str) -> Array:
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} contains non-finite values")
    return x


# ---------------------------------------------------------------------------
# Activations (last-axis semantics where an axis matters)
# ---------------------------------------------------------------------------

# Largest exponent `sigmoid` passes to exp: e^708 is finite, and its
# reciprocal is still a normal float64.
_SIGMOID_MAX_EXP = 708.0


def sigmoid(x: Array) -> Array:
    """1 / (1 + e^-x), computed in place in one new buffer. The exponent is
    clamped at _SIGMOID_MAX_EXP, so exp never overflows; below x = -708 the
    result is about 3e-308 instead of a smaller or subnormal value. Unlike
    0.5 tanh(x / 2) + 0.5, the form keeps full relative precision for
    negative x."""
    s = np.negative(x)
    np.minimum(s, _SIGMOID_MAX_EXP, out=s)
    np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    return s


def silu(x: Array) -> Array:
    s = sigmoid(x)
    s *= x
    return s


def silu_grad(x: Array, s: Array) -> Array:
    """d silu(x) / dx = s (1 + x (1 - s)), given s = sigmoid(x), which the
    caller already holds; one new buffer."""
    out = np.subtract(1.0, s)
    out *= x
    out += 1.0
    out *= s
    return out


def softplus(x: Array) -> Array:
    """log(1 + exp(x)), overflow-safe."""
    return np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))


def inverse_softplus(y: Array) -> Array:
    """x such that softplus(x) == y, for y > 0."""
    y = np.asarray(y, dtype=np.float64)
    return np.where(y > 30.0, y, np.log(np.expm1(np.maximum(y, 1e-30))))


def softmax(x: Array) -> Array:
    """Exponentiates and divides in place, so the result is the only
    x-sized buffer."""
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


# Query rows per block of `causal_attention`; set by timing blocks of 16 to
# 256 rows at the benchmark's training, prefill and teacher shapes.
ATTN_BLOCK = 32
_DIAG_MASK = np.triu(np.full((ATTN_BLOCK, ATTN_BLOCK), -np.inf), k=1)


def _block_scores(q: Array, k: Array, offset: int, i0: int, i1: int) -> Array:
    """Scores of the (pre-scaled) query rows [i0, i1) against their causal
    key prefix [0, offset + i1); only the diagonal tile holds masked (-inf)
    keys."""
    n = offset + i1
    s = np.matmul(q[..., i0:i1, :], np.swapaxes(k[..., :n, :], -1, -2))
    s[..., offset + i0:] += _DIAG_MASK[:i1 - i0, :i1 - i0]
    return s


def causal_attention(q: Array, k: Array, v: Array, scale: float, offset: int = 0):
    """Softmax attention of q (..., T, d) over k (..., S, d), v (..., S, d_v),
    leading axes broadcast; query t sees keys [0, offset + t]. Runs in blocks
    of ATTN_BLOCK query rows, so no (..., T, S) buffer is built. The scale is
    folded into q once, and each block's (rows, d_v) context is divided by
    its row sums after the product, not its (rows, S) probabilities
    (FlashAttention-2's deferred normalization). Returns (ctx, lse): lse
    (..., T) is each row's log-sum-exp of scaled scores, from which
    `causal_attention_backward` recomputes the probabilities."""
    T = q.shape[-2]
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2])
    ctx = np.empty(np.broadcast_shapes(lead, v.shape[:-2]) + (T, v.shape[-1]))
    lse = np.empty(lead + (T,))
    q = q * scale
    for i0 in range(0, T, ATTN_BLOCK):
        i1 = min(i0 + ATTN_BLOCK, T)
        p = _block_scores(q, k, offset, i0, i1)
        top = np.max(p, axis=-1, keepdims=True)
        p -= top
        np.exp(p, out=p)
        z = np.sum(p, axis=-1, keepdims=True)
        c = ctx[..., i0:i1, :]
        np.matmul(p, v[..., :offset + i1, :], out=c)
        c /= z
        lse[..., i0:i1] = (top + np.log(z))[..., 0]
    return ctx, lse


def causal_attention_backward(q: Array, k: Array, v: Array, scale: float,
                              offset: int, lse: Array, delta: Array, dctx: Array):
    """Returns (dq, dk, dv) for ctx of `causal_attention(q, k, v, scale,
    offset)`, given its `lse`, the upstream dctx and delta = sum(dctx * ctx,
    -1). q, k and v share their leading axes. Each block's probabilities are
    recomputed as exp(scores - lse) (FlashAttention-2's backward), from the
    same pre-scaled queries as the forward's."""
    T = q.shape[-2]
    dq = np.empty(q.shape)
    dk = np.zeros(k.shape)
    dv = np.zeros(v.shape)
    q_scaled = q * scale
    for i0 in range(0, T, ATTN_BLOCK):
        i1 = min(i0 + ATTN_BLOCK, T)
        n = offset + i1
        p = _block_scores(q_scaled, k, offset, i0, i1)
        p -= lse[..., i0:i1, None]
        np.exp(p, out=p)
        g = dctx[..., i0:i1, :]
        dv[..., :n, :] += np.matmul(np.swapaxes(p, -1, -2), g)
        ds = np.matmul(g, np.swapaxes(v[..., :n, :], -1, -2))
        ds -= delta[..., i0:i1, None]
        ds *= p
        ds *= scale
        np.matmul(ds, k[..., :n, :], out=dq[..., i0:i1, :])
        dk[..., :n, :] += np.matmul(np.swapaxes(ds, -1, -2), q[..., i0:i1, :])
    return dq, dk, dv


# ---------------------------------------------------------------------------
# RMS normalization
# ---------------------------------------------------------------------------

# Subscripts for the leading axes of an einsum that reduces over them
# (einsum cannot reduce over "...").
_LEAD = "abcdefgh"


def rmsnorm(x: Array, gamma: Array, eps: float) -> Array:
    """Per last-axis slice: x / sqrt(mean(x^2) + eps) * gamma."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    gamma = np.asarray(gamma, dtype=np.float64)
    if x.shape[-1] != gamma.shape[-1]:
        raise ValueError(f"gamma length {gamma.shape[-1]} != last axis {x.shape[-1]}")
    # The mean square through einsum, then in place: no x-sized temporaries.
    rms = np.einsum("...i,...i->...", x, x)[..., None]
    rms /= x.shape[-1]
    rms += eps
    np.sqrt(rms, out=rms)
    out = x / rms
    out *= gamma
    return out


def rmsnorm_backward(x: Array, gamma: Array, eps: float, dy: Array):
    """Returns (dx, dgamma) for y = rmsnorm(x, gamma, eps); gamma runs along
    the last axis. Reductions go through einsum and dx is built in place, so
    the x-sized buffers are dx and one temporary."""
    d = x.shape[-1]
    inv = np.einsum("...i,...i->...", x, x)         # 1 / rms per slice
    inv /= d
    inv += eps
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    lead = _LEAD[:x.ndim - 1]
    dgamma = np.einsum(f"{lead}i,{lead}i,{lead}->i", dy, x, inv)
    dx = dy * gamma
    coef = np.einsum("...i,...i->...", dx, x)       # sum(dy gamma x) per slice
    coef *= inv ** 3
    coef /= d
    dx *= inv[..., None]
    dx -= x * coef[..., None]
    return dx, dgamma


# ---------------------------------------------------------------------------
# Causal depthwise convolution, kernel width 4, zero left padding
# ---------------------------------------------------------------------------

CONV_WIDTH = 4


def causal_conv1d(x: Array, kernel: Array, history: Array | None = None) -> Array:
    """out[..., t, c] = sum_k kernel[c, k] * x[..., t - 3 + k, c]; out-of-range
    timesteps read 0. Leading axes are independent sequences.

    `history` optionally supplies the 3 timesteps preceding x (for
    sequence continuation); shape (3, channels).
    """
    T, c = x.shape[-2], x.shape[-1]
    if kernel.shape != (c, CONV_WIDTH):
        raise ValueError(f"kernel shape {kernel.shape} != ({c}, {CONV_WIDTH})")
    # Tap k reads lag = 3 - k steps back: from x for t >= lag, else from the
    # history rows k .. k + lag - 1. Taps accumulate in k order into `out`.
    out = np.zeros_like(x)
    tmp = np.empty_like(x)
    for k in range(CONV_WIDTH):
        lag = CONV_WIDTH - 1 - k
        if history is not None and lag:
            n = min(lag, T)
            out[..., :n, :] += kernel[:, k] * history[..., k:k + n, :]
        if lag < T:
            np.multiply(kernel[:, k], x[..., :T - lag, :], out=tmp[..., lag:, :])
            out[..., lag:, :] += tmp[..., lag:, :]
    return out


def causal_conv1d_backward(x: Array, kernel: Array, dy: Array):
    """Returns (dx, dkernel) for y = causal_conv1d(x, kernel)."""
    T = x.shape[-2]
    lead = _LEAD[:x.ndim - 1]
    dx = np.zeros_like(x)
    tmp = np.empty_like(x)
    dkernel = np.zeros_like(kernel)
    for k in range(CONV_WIDTH):
        lag = CONV_WIDTH - 1 - k
        if lag < T:
            np.multiply(kernel[:, k], dy[..., lag:, :], out=tmp[..., :T - lag, :])
            dx[..., :T - lag, :] += tmp[..., :T - lag, :]
            dkernel[:, k] = np.einsum(f"{lead}c,{lead}c->c", dy[..., lag:, :],
                                      x[..., :T - lag, :])
    return dx, dkernel


# ---------------------------------------------------------------------------
# KV head replication (grouped-query -> multi-head expansion)
# ---------------------------------------------------------------------------

def repeat_kv(w: Array, head_dim: int, group: int) -> Array:
    """Repeat each head_dim-row block of w `group` consecutive times."""
    if group < 1:
        raise ValueError("group must be >= 1")
    rows, d = w.shape
    if rows % head_dim != 0:
        raise ValueError(f"rows {rows} not divisible by head_dim {head_dim}")
    n_heads = rows // head_dim
    blocks = w.reshape(n_heads, head_dim, d)
    return np.repeat(blocks, group, axis=0).reshape(n_heads * group * head_dim, d)


# ---------------------------------------------------------------------------
# Truncated SVD
# ---------------------------------------------------------------------------

class SvdResult:
    """Top-r factors A ~= U @ diag(sigma) @ V.T with deterministic signs."""

    def __init__(self, u: Array, sigma: Array, v: Array):
        self.u = u
        self.sigma = sigma
        self.v = v


def svd(a: Array, r: int) -> SvdResult:
    """Deterministic truncated SVD; each U column's largest-|entry| is positive."""
    a = np.asarray(a, dtype=np.float64)
    check_finite(a, "svd input")
    m, n = a.shape
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} out of range for {m}x{n} matrix")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    u, s, v = u[:, :r], s[:r], vh[:r].T
    # Resolve sign ambiguity: flip columns so the dominant U entry is positive.
    pivot = np.abs(u).argmax(axis=0)
    signs = np.sign(u[pivot, np.arange(r)])
    signs[signs == 0] = 1.0
    return SvdResult(u * signs, s, v * signs)


# ---------------------------------------------------------------------------
# Rotary position embeddings (half-split pairing), with optional
# NTK-by-parts frequency rescaling for context extension
# ---------------------------------------------------------------------------

def rope_inv_freq(dim: int, theta: float) -> Array:
    return 1.0 / (theta ** (np.arange(0, dim, 2, dtype=np.float64) / dim))


def _ramp(low: float, high: float, n: int) -> Array:
    if low == high:
        high += 1e-3
    lin = (np.arange(n, dtype=np.float64) - low) / (high - low)
    return np.clip(lin, 0.0, 1.0)


# Rotations over the original context above which a frequency is kept
# (fast) and below which it is interpolated (slow); YaRN's defaults.
YARN_BETA_FAST, YARN_BETA_SLOW = 32.0, 1.0


def yarn_inv_freq(dim: int, theta: float, factor: float, orig_context: int) -> Array:
    """NTK-by-parts rescaling: interpolate low frequencies by `factor`,
    keep high frequencies, blend over a ramp between the two regimes."""
    base = rope_inv_freq(dim, theta)
    if factor <= 1.0:
        return base

    def correction_dim(n_rot: float) -> float:
        return dim * np.log(orig_context / (n_rot * 2.0 * np.pi)) / (2.0 * np.log(theta))

    low = max(np.floor(correction_dim(YARN_BETA_FAST)), 0.0)
    high = min(np.ceil(correction_dim(YARN_BETA_SLOW)), dim / 2 - 1.0)
    extrapolate_w = 1.0 - _ramp(low, high, dim // 2)
    return base / factor * (1.0 - extrapolate_w) + base * extrapolate_w


def yarn_mscale(factor: float) -> float:
    """Attention temperature applied to the rotary tables when extending context."""
    if factor <= 1.0:
        return 1.0
    return 0.1 * np.log(factor) + 1.0


def rope_tables(inv_freq: Array, positions: Array, mscale: float = 1.0):
    """cos/sin tables of shape (len(positions), dim) for half-split rotation."""
    ang = np.outer(np.asarray(positions, dtype=np.float64), inv_freq)
    emb = np.concatenate([ang, ang], axis=-1)
    return np.cos(emb) * mscale, np.sin(emb) * mscale


def _rotate_half(x: Array) -> Array:
    h = x.shape[-1] // 2
    return np.concatenate([-x[..., h:], x[..., :h]], axis=-1)


def apply_rope(x: Array, cos: Array, sin: Array) -> Array:
    """Rotate pairs (i, i + dim/2) of the last axis; tables broadcast over heads."""
    return x * cos + _rotate_half(x) * sin


def apply_rope_backward(dy: Array, cos: Array, sin: Array) -> Array:
    """Adjoint of apply_rope (inverse rotation when mscale == 1)."""
    return dy * cos - _rotate_half(dy) * sin
