"""Distillation losses with analytic gradients and transient-memory accounting.

Four interchangeable KL paths between student and teacher next-token
distributions (student distribution first):

  kl_naive    both (T, V) log-softmax tensors materialized
  kl_chunked  sequence chunks of C rows, only (C, V) slices live at once
  kl_online   single pass over vocab tiles with running log-sum-exp
              accumulators; no per-token softmax is ever materialized
  kl_hidden   logit-free: takes final hidden states plus LM head weights,
              projects <= C rows at a time and runs the tiled KL inside

plus a chunked cross-entropy that fuses the LM-head projection, and the
intermediate-layer alignment loss over hidden states and mixer outputs.

Each loss reports `peak_elements`: the largest transient working buffer it
reports through `record_alloc`, in scalar elements, so the value equals the
peak of a `track_allocations()` around the call. kl_naive, kl_chunked and
the fused CE hold what they record and no more: the KL row blocks work in
the gradient's rows and one scratch block, and the CE in one logit slice
that every row block reuses. kl_online and kl_hidden still build tile-sized
temporaries beyond their record.
"""

from dataclasses import dataclass

import numpy as np

from .accounting import record_alloc


@dataclass
class LossConfig:
    kl_chunk: int = 4096     # sequence-dimension chunk C
    vocab_tile: int = 128    # vocab-dimension tile B_V for the online pass
    swap_direction: bool = False  # KL(teacher || student) instead of the default

    def __post_init__(self):
        if self.kl_chunk < 1 or self.vocab_tile < 1:
            raise ValueError("kl_chunk and vocab_tile must be >= 1")


@dataclass
class LossValueAndGrad:
    value: float
    grad: np.ndarray | None
    peak_elements: int = 0


def _check_same_shape(z_s, z_t):
    if z_s.shape != z_t.shape:
        raise ValueError(f"logit shapes differ: {z_s.shape} vs {z_t.shape}")


# ---------------------------------------------------------------------------
# Intermediate-layer alignment
# ---------------------------------------------------------------------------

def ild_loss(student_trace, teacher_trace) -> LossValueAndGrad:
    """Sum over layers of Frobenius distances between hidden states and
    between mixer outputs. Value only; per-layer gradients via ild_grads."""
    return LossValueAndGrad(value=ild_grads(student_trace, teacher_trace)[0],
                            grad=None)


def _norm_and_grad(delta):
    """Frobenius norm over the trailing (T, d) axes, batch-mean over any
    leading axis; returns (value, d value / d delta)."""
    if delta.ndim == 2:
        n = np.linalg.norm(delta)
        return n, (delta / n if n > 0 else np.zeros_like(delta))
    B = delta.shape[0]
    n = np.sqrt(np.sum(delta * delta, axis=(-2, -1)))           # (B,)
    safe = np.where(n > 0, n, 1.0)
    grad = delta / (B * safe[:, None, None])
    grad[n == 0] = 0.0
    return float(np.mean(n)), grad


def ild_grads(student_trace, teacher_trace):
    """Returns (value, dh_list, da_list): gradients wrt the student's per-layer
    hidden states and mixer outputs."""
    hs, has_ = student_trace.hidden_states, student_trace.mixer_outputs
    ht, hat = teacher_trace.hidden_states, teacher_trace.mixer_outputs
    if len(hs) != len(ht) or len(has_) != len(hat):
        raise ValueError("student and teacher traces have different layer counts")
    value = 0.0
    dh_list, da_list = [], []
    for s_h, t_h, s_a, t_a in zip(hs, ht, has_, hat):
        if s_h.shape != t_h.shape or s_a.shape != t_a.shape:
            raise ValueError("trace shapes differ between student and teacher")
        n_h, g_h = _norm_and_grad(s_h - t_h)
        n_a, g_a = _norm_and_grad(s_a - t_a)
        value += n_h + n_a
        dh_list.append(g_h)
        da_list.append(g_a)
    return value, dh_list, da_list


# ---------------------------------------------------------------------------
# KL paths
# ---------------------------------------------------------------------------

def _exp_rows(z, out):
    """out = exp(z - max(z)) per row; returns the row sums of out and the row
    log-sum-exp of z."""
    m = np.max(z, axis=-1)
    np.subtract(z, m[:, None], out=out)
    np.exp(out, out=out)
    total = np.sum(out, axis=-1)
    return total, m + np.log(total)


def _kl_row_blocks(z_s, z_t, C: int, swap: bool, tag: str):
    """Token-mean KL and its gradient over row blocks of C tokens.

    Each block works in two (rows, V) buffers: its rows of the returned
    gradient and one scratch block allocated once per call, which is what
    `record_alloc` reports. The student's exp is taken once, as
    p_s = e_s / sum(e_s). Default direction, KL(student || teacher): the
    teacher's exp gives only its log-sum-exp, then the scratch holds
    ell = (z_s - z_t) - (lse_s - lse_t) = log p_s - log p_t, and the
    gradient is p_s (ell - KL). `swap` computes KL(teacher || student),
    whose student gradient is p_s - p_t and whose value is
    sum(p_t (z_t - z_s)) - (lse_t - lse_s), with p_t in the scratch."""
    T, V = z_s.shape
    scale = 1.0 / T
    grad = np.empty_like(z_s)
    work = np.empty((C, V))
    total = 0.0
    for c0 in range(0, T, C):
        c1 = min(c0 + C, T)
        record_alloc(tag, 2 * (c1 - c0) * V)
        zs, zt = z_s[c0:c1], z_t[c0:c1]
        g, w = grad[c0:c1], work[:c1 - c0]
        sum_s, lse_s = _exp_rows(zs, g)
        g /= sum_s[:, None]                             # p_s
        sum_t, lse_t = _exp_rows(zt, w)
        if swap:
            w /= sum_t[:, None]                         # p_t
            d = (np.einsum("ij,ij->i", w, zt) - np.einsum("ij,ij->i", w, zs)
                 - (lse_t - lse_s))
            g -= w
        else:
            np.subtract(zs, zt, out=w)
            w -= (lse_s - lse_t)[:, None]               # ell
            d = np.einsum("ij,ij->i", g, w)
            w -= d[:, None]
            g *= w
        g *= scale
        total += float(np.sum(d))
    return total / T, grad


def kl_naive(z_s, z_t, cfg: LossConfig | None = None) -> LossValueAndGrad:
    """Token-mean KL with full (T, V) softmax tensors."""
    cfg = cfg or LossConfig()
    _check_same_shape(z_s, z_t)
    T, V = z_s.shape
    value, grad = _kl_row_blocks(z_s, z_t, T, cfg.swap_direction, "kl_naive_softmax")
    return LossValueAndGrad(value, grad, peak_elements=2 * T * V)


def kl_chunked(z_s, z_t, cfg: LossConfig | None = None) -> LossValueAndGrad:
    """Same value/grad as kl_naive, materializing only (C, V) slices."""
    cfg = cfg or LossConfig()
    _check_same_shape(z_s, z_t)
    T, V = z_s.shape
    C = min(cfg.kl_chunk, T)
    value, grad = _kl_row_blocks(z_s, z_t, C, cfg.swap_direction,
                                 "kl_chunked_softmax")
    return LossValueAndGrad(value, grad, peak_elements=2 * C * V)


class _OnlineLse:
    """Running log-sum-exp over column tiles (the online normalizer of
    arXiv 1805.02867): a per-row max m and sum of exp(z - m), rescaled
    whenever a tile raises the max."""

    def __init__(self, rows: int):
        self.m = np.full(rows, -np.inf)
        self.sum = np.zeros(rows)

    def add(self, tile):
        """Fold in a (rows, cols) tile; returns the factor that rescaled the
        earlier sums and exp(tile - m) under the new max."""
        m_new = np.maximum(self.m, np.max(tile, axis=-1))
        scale = np.exp(self.m - m_new)
        e = np.exp(tile - m_new[:, None])
        self.sum = self.sum * scale + np.sum(e, axis=-1)
        self.m = m_new
        return scale, e

    def lse(self):
        return self.m + np.log(self.sum)


def _kl_tiled(tiles, sink, rows: int, V: int, B: int, swap: bool, T: int,
              tag: str) -> float:
    """Summed KL over one block of `rows` tokens without a (rows, V) buffer.
    `tiles(b0, b1)` returns the (student, teacher) logits of vocab columns
    [b0, b1). A first pass over tiles of width B runs the online
    log-sum-exp; a second hands `sink(b0, b1, dz)` each tile's gradient
    dKL/dz_s divided by T, the token count of the whole loss."""
    acc_s, acc_t = _OnlineLse(rows), _OnlineLse(rows)
    diff_acc = np.zeros(rows)   # sum of exp(lead - m_lead) * (lead - other)
    for b0 in range(0, V, B):
        b1 = min(b0 + B, V)
        ts, tt = tiles(b0, b1)
        record_alloc(tag, 2 * rows * (b1 - b0))
        scale_s, e_s = acc_s.add(ts)
        scale_t, e_t = acc_t.add(tt)
        if swap:
            diff_acc = diff_acc * scale_t + np.sum(e_t * (tt - ts), axis=-1)
        else:
            diff_acc = diff_acc * scale_s + np.sum(e_s * (ts - tt), axis=-1)

    lse_s, lse_t = acc_s.lse(), acc_t.lse()
    if swap:
        d = diff_acc / acc_t.sum - lse_t + lse_s
    else:
        d = diff_acc / acc_s.sum - lse_s + lse_t

    for b0 in range(0, V, B):
        b1 = min(b0 + B, V)
        ts, tt = tiles(b0, b1)
        record_alloc(tag, 2 * rows * (b1 - b0))
        p = np.exp(ts - lse_s[:, None])
        if swap:
            sink(b0, b1, (p - np.exp(tt - lse_t[:, None])) / T)
        else:
            ell = (ts - tt) - lse_s[:, None] + lse_t[:, None]
            sink(b0, b1, p * (ell - d[:, None]) / T)
    return float(np.sum(d))


def kl_online(z_s, z_t, cfg: LossConfig | None = None) -> LossValueAndGrad:
    """Streaming KL over vocab tiles of width B_V with running-max-rescaled
    accumulators; a second tiled pass produces the gradient."""
    cfg = cfg or LossConfig()
    _check_same_shape(z_s, z_t)
    T, V = z_s.shape
    B = min(cfg.vocab_tile, V)
    grad = np.empty_like(z_s)

    def sink(b0, b1, dz):
        grad[:, b0:b1] = dz

    total = _kl_tiled(lambda b0, b1: (z_s[:, b0:b1], z_t[:, b0:b1]), sink,
                      T, V, B, cfg.swap_direction, T, "kl_online_tile")
    return LossValueAndGrad(total / T, grad, peak_elements=2 * T * B)


def kl_hidden(h_s, w_lm_s, h_t, w_lm_t, cfg: LossConfig | None = None) -> LossValueAndGrad:
    """Logit-free KL from final hidden states and LM-head weights. Works on
    row chunks of <= C tokens and projects one (rows, B_V) logit tile at a
    time, so neither logit matrix is ever materialized, not even per chunk.
    Gradient is wrt h_s."""
    cfg = cfg or LossConfig()
    V_s, d_s = w_lm_s.shape
    V_t, d_t = w_lm_t.shape
    if V_s != V_t:
        raise ValueError(f"LM head vocab sizes differ: {V_s} vs {V_t}")
    if h_s.shape[0] != h_t.shape[0]:
        raise ValueError("student/teacher token counts differ")
    if h_s.shape[1] != d_s or h_t.shape[1] != d_t:
        raise ValueError("hidden widths do not match LM head weights")

    T, V = h_s.shape[0], V_s
    C = min(cfg.kl_chunk, T)
    B = min(cfg.vocab_tile, V)
    grad_h = np.zeros_like(h_s)
    total = 0.0
    for c0 in range(0, T, C):
        c1 = min(c0 + C, T)
        hs_c, ht_c = h_s[c0:c1], h_t[c0:c1]

        def tiles(b0, b1):
            return hs_c @ w_lm_s[b0:b1].T, ht_c @ w_lm_t[b0:b1].T

        def sink(b0, b1, dz):
            grad_h[c0:c1] += dz @ w_lm_s[b0:b1]

        total += _kl_tiled(tiles, sink, c1 - c0, V, B, cfg.swap_direction, T,
                           "kl_hidden_tile")
    return LossValueAndGrad(total / T, grad_h, peak_elements=2 * C * B)


def fused_linear_ce(h, w_lm, targets, cfg: LossConfig | None = None) -> LossValueAndGrad:
    """Token-mean cross-entropy fused with the LM-head projection: one (C, V)
    logit slice, allocated once, holds each row block's logits and then, in
    place, its softmax gradient. Gradient is wrt h."""
    cfg = cfg or LossConfig()
    targets = np.asarray(targets, dtype=np.int64)
    T = h.shape[0]
    V = w_lm.shape[0]
    if targets.shape != (T,):
        raise ValueError("targets must be one id per token")
    if targets.min() < 0 or targets.max() >= V:
        raise ValueError(f"target id out of range [0, {V})")

    C = min(cfg.kl_chunk, T)
    grad_h = np.empty_like(h)
    z = np.empty((C, V))            # the one logit slice, reused by every block
    total = 0.0
    for c0 in range(0, T, C):
        c1 = min(c0 + C, T)
        rows = c1 - c0
        zc = z[:rows]
        np.matmul(h[c0:c1], w_lm.T, out=zc)
        record_alloc("fused_ce_logit_slice", rows * V)
        tgt = targets[c0:c1]
        z_tgt = zc[np.arange(rows), tgt]
        sums, lse = _exp_rows(zc, zc)
        total += float(np.sum(lse - z_tgt))
        zc /= sums[:, None]                   # softmax probabilities
        zc[np.arange(rows), tgt] -= 1.0
        np.matmul(zc, w_lm, out=grad_h[c0:c1])
    grad_h *= 1.0 / T
    return LossValueAndGrad(total / T, grad_h, peak_elements=C * V)
