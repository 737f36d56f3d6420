"""Distillation losses with analytic gradients and transient-memory accounting.

Four interchangeable KL paths between student and teacher next-token
distributions (student distribution first):

  kl_naive    both (T, V) log-softmax tensors materialized
  kl_chunked  sequence chunks of C rows, only (C, V) slices live at once
  kl_online   vocab tiles with running log-sum-exp accumulators; each
              student tile is exponentiated once, into the gradient
  kl_hidden   logit-free: takes final hidden states plus LM head weights
              and makes one pass over the vocabulary per chunk of <= C
              rows, each tile projected and exponentiated once and
              back-projected under the running max

plus a chunked cross-entropy that fuses the LM-head projection, and the
intermediate-layer alignment loss over hidden states and mixer outputs.

Each loss reports `peak_elements`: the largest transient working buffer it
reports through `record_alloc`, in scalar elements, so the value equals the
peak of a `track_allocations()` around the call. kl_naive, kl_chunked and
the fused CE hold what they record and no more: the KL row blocks work in
the gradient's rows and one scratch block, and the CE in one logit slice
that every row block reuses. kl_online works in the gradient's columns,
one scratch tile and T floats per tile, within its record while
V <= B_V^2. kl_hidden holds twice its recorded tiles (the logits and their
exps), two (C, d) buffers and its output. All under tracemalloc
(tests/test_losses.py::TestDeclaredMemory).
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

def _row_dot(a, b):
    return np.einsum("ij,ij->i", a, b)


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
            d = _row_dot(w, zt) - _row_dot(w, zs) - (lse_t - lse_s)
            g -= w
        else:
            np.subtract(zs, zt, out=w)
            w -= (lse_s - lse_t)[:, None]               # ell
            d = _row_dot(g, w)
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

    def add(self, tile, out):
        """Fold in a (rows, cols) tile, writing exp(tile - m) under the new
        max into `out` (which may be `tile`); returns the per-row factor
        that rescaled the earlier sums, for anything accumulated under m."""
        m_new = np.maximum(self.m, np.max(tile, axis=-1))
        scale = np.exp(self.m - m_new)
        np.subtract(tile, m_new[:, None], out=out)
        np.exp(out, out=out)
        self.sum *= scale
        self.sum += out @ np.ones(out.shape[1])
        self.m = m_new
        return scale

    def lse(self):
        return self.m + np.log(self.sum)


def _tile(buf, rows: int, cols: int):
    """A contiguous (rows, cols) view at the head of a flat buffer."""
    return buf[:rows * cols].reshape(rows, cols)


def kl_online(z_s, z_t, cfg: LossConfig | None = None) -> LossValueAndGrad:
    """Streaming KL over vocab tiles of width B_V with running-max-rescaled
    accumulators. The first pass writes each student tile's exp(z_s - m),
    under the running max m of that moment, into the gradient's own columns
    and keeps that m (T floats per tile); the second turns it into p_s with
    one exp per row, exp(m - lse_s), instead of a second exp per element.
    Every elementwise operation writes one reused, contiguous (T, B_V)
    scratch tile and reads at most one strided column tile or broadcast
    row vector; the columns are moved with copies only, so numpy needs at
    most one 64 KiB buffer at a time. The call holds its (T, V) output,
    the scratch and the tile maxes: within the 2 T B_V it records while
    V <= B_V^2."""
    cfg = cfg or LossConfig()
    _check_same_shape(z_s, z_t)
    T, V = z_s.shape
    B = min(cfg.vocab_tile, V)
    swap = cfg.swap_direction
    grad = np.empty_like(z_s)
    scratch = np.empty(T * B)
    starts = range(0, V, B)
    refs = np.empty((len(starts), T))     # acc_s.m after each tile
    acc_s, acc_t = _OnlineLse(T), _OnlineLse(T)
    diff = np.zeros(T)   # sum of exp(lead - m_lead) * (lead - other)
    for k, b0 in enumerate(starts):
        b1 = min(b0 + B, V)
        record_alloc("kl_online_tile", 2 * T * (b1 - b0))
        zs, zt, g = z_s[:, b0:b1], z_t[:, b0:b1], grad[:, b0:b1]
        y = _tile(scratch, T, b1 - b0)
        lead, other = (zt, zs) if swap else (zs, zt)
        np.copyto(y, lead)
        y -= other
        np.copyto(g, y)                                # lead - other
        np.copyto(y, zt)
        scale = acc_t.add(y, out=y)                    # e_t
        if swap:
            diff *= scale
            diff += _row_dot(y, g)
        np.copyto(y, zs)
        scale = acc_s.add(y, out=y)                    # e_s
        if not swap:
            diff *= scale
            diff += _row_dot(y, g)
        np.copyto(g, y)
        refs[k] = acc_s.m

    lse_s, lse_t = acc_s.lse(), acc_t.lse()
    if swap:
        d = diff / acc_t.sum - lse_t + lse_s
        shift_t = lse_t + np.log(T)
    else:
        d = diff / acc_s.sum - lse_s + lse_t
        c = diff / acc_s.sum                           # lse_s - lse_t + KL

    for k, b0 in enumerate(starts):
        b1 = min(b0 + B, V)
        zs, zt, g = z_s[:, b0:b1], z_t[:, b0:b1], grad[:, b0:b1]
        y = _tile(scratch, T, b1 - b0)
        to_p = (np.exp(refs[k] - lse_s) / T)[:, None]  # e_s -> p_s / T
        if swap:
            np.copyto(y, g)
            y *= to_p
            np.copyto(g, y)                            # p_s / T
            np.copyto(y, zt)
            y -= shift_t[:, None]
            np.exp(y, out=y)                           # p_t / T
            np.subtract(g, y, out=y)
        else:
            np.copyto(y, zs)
            y -= zt
            y -= c[:, None]                            # log p_s - log p_t - KL
            y *= g
            y *= to_p
        np.copyto(g, y)
    return LossValueAndGrad(float(np.sum(d)) / T, grad, peak_elements=2 * T * B)


def kl_hidden(h_s, w_lm_s, h_t, w_lm_t, cfg: LossConfig | None = None) -> LossValueAndGrad:
    """Logit-free KL from final hidden states and LM-head weights, in one
    pass over the vocabulary per row chunk of <= C tokens. A vocab tile's
    logits of both heads, stacked as (2 rows, B_V) (the 2 C B_V it
    records), are projected once and folded into one running log-sum-exp
    over the 2 rows, which writes their exps into a second (2 C, B_V)
    buffer. Those are back-projected half by half through one (C, d)
    product into (rows, d) accumulators, which each tile first rescales by
    the factor the fold returns (as FlashAttention-2 rescales its output
    when the running max moves, arXiv 2307.08691). Neither logit matrix is
    ever materialized, not even per chunk. So the call holds twice what it
    records, two (C, d) buffers (the product and one accumulator) and its
    output, whose rows hold the other accumulator. With e = exp(z - m), the
    gradient wrt h_s:
      KL(s || t):  A1 = sum (e_s (z_s - z_t)) W_s,  A2 = sum e_s W_s,
                   grad = (A1 - (lse_s - lse_t + KL) A2) / (sum e_s T)
      KL(t || s):  grad = (sum e_s W_s / sum e_s - sum e_t W_s / sum e_t) / T
    """
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
    swap = cfg.swap_direction
    # The lead head's distribution weights the KL; the other head's rows
    # go above the lead's in each stacked tile.
    (h_lead, w_lead), (h_other, w_other) = (((h_t, w_lm_t), (h_s, w_lm_s)) if swap
                                            else ((h_s, w_lm_s), (h_t, w_lm_t)))
    buf_z, buf_e = np.empty(2 * C * B), np.empty(2 * C * B)
    buf_p, acc2 = np.empty((C, d_s)), np.empty((C, d_s))
    grad_h = np.zeros_like(h_s)
    total = 0.0
    for c0 in range(0, T, C):
        c1 = min(c0 + C, T)
        rows = c1 - c0
        lead_c, other_c = h_lead[c0:c1], h_other[c0:c1]
        a1, a2, prod = grad_h[c0:c1], acc2[:rows], buf_p[:rows]
        a2[...] = 0.0
        acc = _OnlineLse(2 * rows)          # other's rows, then the lead's
        diff = np.zeros(rows)   # sum of exp(lead - m_lead) * (lead - other)
        for b0 in range(0, V, B):
            b1 = min(b0 + B, V)
            record_alloc("kl_hidden_tile", 2 * rows * (b1 - b0))
            z, e = _tile(buf_z, 2 * rows, b1 - b0), _tile(buf_e, 2 * rows, b1 - b0)
            np.matmul(other_c, w_other[b0:b1].T, out=z[:rows])
            np.matmul(lead_c, w_lead[b0:b1].T, out=z[rows:])
            scale = acc.add(z, out=e)
            diff *= scale[rows:]
            a1 *= (scale[:rows] if swap else scale[rows:])[:, None]
            a2 *= scale[rows:, None]
            np.subtract(z[rows:], z[:rows], out=z[:rows])      # lead - other
            diff += _row_dot(e[rows:], z[:rows])
            if not swap:
                np.multiply(z[:rows], e[rows:], out=e[:rows])  # e_s (z_s - z_t)
            np.matmul(e[:rows], w_lm_s[b0:b1], out=prod)
            a1 += prod
            np.matmul(e[rows:], w_lm_s[b0:b1], out=prod)
            a2 += prod

        lse, sums = acc.lse(), acc.sum
        d = diff / sums[rows:] - lse[rows:] + lse[:rows]
        total += float(np.sum(d))
        if swap:
            a1 *= (1.0 / (sums[:rows] * T))[:, None]
            a2 *= (1.0 / (sums[rows:] * T))[:, None]
            a1 -= a2
        else:
            a2 *= (diff / sums[rows:])[:, None]           # lse_s - lse_t + KL
            a1 -= a2
            a1 *= (1.0 / (sums[rows:] * T))[:, None]
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
