"""Two-stage distillation harness, optimizer, gradient audit, and reports.

Both stages run one training loop: each step draws and stacks a batch, asks
the stage's step function for (loss, grads), and applies Adam. The stages
differ only in that step. Stage I trains a pure-block student to match the
teacher's per-layer hidden states and mixer outputs (intermediate-layer
alignment). Stage II fine-tunes an assembled hybrid against the teacher's
output distribution through one of the KL paths; with no teacher it falls
back to plain next-token cross-entropy through the fused projection. The
gradient audit checks that same stage-II step. Embeddings and the LM head
stay frozen.

All runs are deterministic for a fixed seed. Teacher weights are never
touched: the teacher side runs forward-only.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .accounting import track_allocations
from .hybrid import HybridModel, hybrid_backward, hybrid_forward, teacher_forward
from .losses import (LossConfig, fused_linear_ce, ild_grads, kl_chunked,
                     kl_naive, kl_online, kl_hidden)

FROZEN = ("embedding", "lm_head")

KL_PATHS = ("naive", "chunked", "online", "hidden")

# A run stops once this many optimizer steps in a row skip on a non-finite
# gradient norm, rather than finishing with weights that no longer move.
MAX_CONSECUTIVE_SKIPS = 5


@dataclass
class TrainConfig:
    stage: int = 1
    context_len: int = 2048
    lr: float = 2e-4
    steps: int = 100
    batch: int = 4
    seed: int = 0
    loss_path: str = "naive"
    kl_chunk: int = 4096
    vocab_tile: int = 128
    swap_kl: bool = False    # distill with KL(teacher || student)

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.stage not in (1, 2):
            raise ValueError("stage must be 1 or 2")
        if self.loss_path not in KL_PATHS:
            raise ValueError(f"loss_path must be one of {KL_PATHS}")

    def loss_cfg(self) -> LossConfig:
        return LossConfig(kl_chunk=self.kl_chunk, vocab_tile=self.vocab_tile,
                          swap_direction=self.swap_kl)


def _json_float(x: float) -> float | None:
    """x, or None (JSON null) if it is not finite: strict JSON has no NaN."""
    return x if np.isfinite(x) else None


@dataclass
class TrainReport:
    losses: list = field(default_factory=list)
    skipped: list = field(default_factory=list)  # per step: update not applied
    opt_stats: list = field(default_factory=list)  # per step: Adam.last_stats
    metrics: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0
    peak_transient_elements: int = 0

    def step_records(self):
        for i, (loss, skipped, opt) in enumerate(
                zip(self.losses, self.skipped, self.opt_stats)):
            yield {"step": i, "loss": _json_float(loss), "skipped": skipped, **opt}

    def summary(self) -> dict:
        return {
            "steps": len(self.losses),
            "skipped_steps": sum(self.skipped),
            "first_loss": _json_float(self.losses[0]) if self.losses else None,
            "final_loss": _json_float(self.losses[-1]) if self.losses else None,
            "metrics": {k: _json_float(v) for k, v in self.metrics.items()},
            "wall_clock_s": self.wall_clock_s,
            "peak_transient_elements": self.peak_transient_elements,
        }


class Adam:
    """Adam with linear warmup over the first WARMUP_RATIO of the steps, then
    cosine decay, and the gradients clipped to a global norm of GRAD_CLIP;
    updates stay on the f32 grid."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
    WARMUP_RATIO, GRAD_CLIP = 0.01, 1.0

    def __init__(self, params: dict, lr: float, total_steps: int):
        self.params = params
        self.lr = lr
        self.total_steps = max(total_steps, 1)
        self.warmup_steps = int(round(self.WARMUP_RATIO * self.total_steps))
        self.t = 0
        # The last step's lr, global grad norm and clip scale; a non-finite
        # norm, which skips the step, reads None.
        self.last_stats: dict = {}
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def lr_at(self, step: int) -> float:
        if self.warmup_steps and step < self.warmup_steps:
            return self.lr * (step + 1) / self.warmup_steps
        span = max(self.total_steps - self.warmup_steps, 1)
        progress = min((step - self.warmup_steps) / span, 1.0)
        return self.lr * 0.5 * (1.0 + np.cos(np.pi * progress))

    def step(self, grads: dict) -> bool:
        """Apply one update and return True; on a non-finite global grad
        norm leave the weights as they are and return False. `grads` must
        name every parameter and nothing else: a missing or unknown name
        raises a ValueError rather than freezing a tensor or skewing the
        norm."""
        missing = [n for n in self.params if n not in grads]
        unknown = [n for n in grads if n not in self.params]
        if missing or unknown:
            raise ValueError(f"gradients do not match the parameters: missing {missing}, "
                             f"unknown {unknown}")
        lr_t = self.lr_at(self.t)
        self.t += 1
        norm_sq = sum(float(np.vdot(g, g)) for g in grads.values())
        if not np.isfinite(norm_sq):
            self.last_stats = {"lr": lr_t, "grad_norm": None, "clip_scale": None}
            return False
        scale = 1.0
        if norm_sq > self.GRAD_CLIP ** 2:
            scale = self.GRAD_CLIP / np.sqrt(norm_sq)
        self.last_stats = {"lr": lr_t, "grad_norm": float(np.sqrt(norm_sq)),
                           "clip_scale": float(scale)}
        b1, b2 = self.BETA1, self.BETA2
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        # m, v and the parameter update in place, through one scratch buffer
        # per tensor; the caller's gradients are left as they were. Each
        # buffer's memory goes to the next: buffers kept for the optimizer's
        # lifetime cost more in page faults than they saved on a 1-step run.
        for name, p in self.params.items():
            g = grads[name]
            if scale != 1.0:
                g = g * scale
            m, v, buf = self.m[name], self.v[name], np.empty_like(p)
            m *= b1
            np.multiply(g, 1 - b1, out=buf)
            m += buf                                    # b1 m + (1 - b1) g
            v *= b2
            np.multiply(g, 1 - b2, out=buf)
            buf *= g
            v += buf                                    # b2 v + (1 - b2) g^2
            np.divide(v, corr2, out=buf)
            np.sqrt(buf, out=buf)
            buf += self.EPS
            np.divide(m / corr1, buf, out=buf)          # the update
            buf *= lr_t
            np.subtract(p, buf, out=buf)
            p[...] = buf.astype(np.float32)             # back onto the f32 grid
        return True


def trainable_params(model: HybridModel) -> dict:
    params = model.named_tensors()
    for name in FROZEN:
        params.pop(name)
    return params


def _clip(tokens: np.ndarray, context_len: int) -> np.ndarray:
    return tokens[:context_len] if tokens.size > context_len else tokens


def _stack_batch(batch: list, context_len: int):
    """Clip to the context length and the batch's shortest sequence, then
    stack tokens (B, T) and next-token loss masks (B, T-1). Raises if the
    clip drops every scored position of an example that had one."""
    clipped = [_clip(ex.tokens, context_len) for ex in batch]
    T = min(t.size for t in clipped)
    tokens = np.stack([t[:T] for t in clipped])
    masks = np.zeros((len(batch), T - 1), dtype=bool)
    for i, ex in enumerate(batch):
        if ex.loss_mask is None:
            masks[i] = True
        else:
            masks[i] = ex.loss_mask[: T - 1]
            if ex.loss_mask.any() and not masks[i].any():
                raise ValueError(
                    f"context_len {context_len} (batch clipped to {T} tokens) drops "
                    f"every scored position of a {ex.tokens.size}-token example")
    return tokens, masks


def _train(student: HybridModel, data: list, cfg: TrainConfig, step) -> TrainReport:
    """The training loop of both stages. Each step samples `cfg.batch`
    examples from `data`, calls `step(tokens, masks) -> (loss, grads)` and
    applies Adam to every tensor outside FROZEN. Raises once
    MAX_CONSECUTIVE_SKIPS steps in a row skip their update."""
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(trainable_params(student), cfg.lr, cfg.steps)
    report = TrainReport()
    t0 = time.perf_counter()
    with track_allocations() as tracker:
        for t in range(cfg.steps):
            idx = rng.integers(0, len(data), size=cfg.batch)
            tokens, masks = _stack_batch([data[i] for i in idx], cfg.context_len)
            loss, grads = step(tokens, masks)
            report.losses.append(float(loss))
            report.skipped.append(not opt.step(grads))
            report.opt_stats.append(opt.last_stats)
            if report.skipped[-MAX_CONSECUTIVE_SKIPS:] == [True] * MAX_CONSECUTIVE_SKIPS:
                raise ValueError(
                    f"{MAX_CONSECUTIVE_SKIPS} consecutive optimizer steps skipped on a "
                    f"non-finite gradient norm, the last at step {t}")
    report.peak_transient_elements = tracker.peak_elements
    report.wall_clock_s = time.perf_counter() - t0
    return report


def _ild_loss(student: HybridModel, teacher, tokens):
    """Stage-I alignment loss and grads for a stacked batch."""
    t_trace = teacher_forward(teacher, tokens, want_logits=False, want_trace=True)
    tapes: list = []
    s_trace = hybrid_forward(student, tokens, want_logits=False, want_trace=True,
                             tapes=tapes)
    value, dh_list, da_list = ild_grads(s_trace, t_trace)
    return value, hybrid_backward(student, tapes, d_final=None,
                                  dh_layers=dh_list, da_layers=da_list)


def train_stage1_ild(student: HybridModel, teacher, data: list,
                     cfg: TrainConfig) -> TrainReport:
    """Align student per-layer hidden states and mixer outputs to the teacher."""
    if len(student.layers) != teacher.config.n_layers:
        raise ValueError("student and teacher must have equal layer counts")
    return _train(student, data, cfg,
                  lambda tokens, _masks: _ild_loss(student, teacher, tokens))


def _stage2_loss(student: HybridModel, teacher, tokens, masks, cfg: TrainConfig):
    """Stage-II loss (token mean) and grads for a stacked batch: KL to the
    teacher through `cfg.loss_path`, or with no teacher next-token
    cross-entropy through the fused projection at the `masks` positions."""
    loss_cfg = cfg.loss_cfg()
    hidden = cfg.loss_path == "hidden"
    tapes: list = []
    s_trace = hybrid_forward(student, tokens, tapes=tapes,
                             want_logits=teacher is not None and not hidden)
    final = s_trace.final_hidden                        # (B, T, d)
    if teacher is None:
        targets = tokens[:, 1:][masks]
        if not targets.size:
            raise ValueError(
                f"no scored next-token target in a batch of {tokens.shape[1]}-token "
                f"sequences (context_len {cfg.context_len})")
        out = fused_linear_ce(final[:, :-1][masks], student.lm_head, targets, loss_cfg)
        value, d_final = out.value, np.zeros_like(final)
        d_final[:, :-1][masks] = out.grad
    elif hidden:
        t_final = teacher_forward(teacher, tokens, want_logits=False).final_hidden
        out = kl_hidden(final.reshape(-1, final.shape[-1]), student.lm_head,
                        t_final.reshape(-1, t_final.shape[-1]), teacher.lm_head,
                        loss_cfg)
        value, d_final = out.value, out.grad.reshape(final.shape)
    else:
        t_logits = teacher_forward(teacher, tokens).logits
        path = {"naive": kl_naive, "chunked": kl_chunked, "online": kl_online}[cfg.loss_path]
        V = student.config.vocab
        out = path(s_trace.logits.reshape(-1, V), t_logits.reshape(-1, V), loss_cfg)
        value, d_final = out.value, (out.grad @ student.lm_head).reshape(final.shape)
    return value, hybrid_backward(student, tapes, d_final=d_final)


def train_stage2_sft(student: HybridModel, teacher, data: list,
                     cfg: TrainConfig) -> TrainReport:
    """Fine-tune the assembled hybrid end to end: KL against the teacher's
    distribution when a teacher is given, next-token CE otherwise."""
    if teacher is not None and teacher.config.vocab != student.config.vocab:
        raise ValueError("student and teacher vocabularies differ")
    return _train(student, data, cfg,
                  lambda tokens, masks: _stage2_loss(student, teacher, tokens,
                                                     masks, cfg))


def argmax_agreement(student: HybridModel, teacher, data: list,
                     context_len: int) -> float:
    """Fraction of positions where student and teacher next-token argmax agree."""
    agree = 0
    total = 0
    for ex in data:
        tokens = _clip(ex.tokens, context_len)
        s = hybrid_forward(student, tokens).logits
        t = teacher_forward(teacher, tokens).logits
        agree += int(np.sum(np.argmax(s, axis=-1) == np.argmax(t, axis=-1)))
        total += tokens.size
    return agree / total


def audit_distillation(student: HybridModel, teacher, example,
                       cfg: TrainConfig, n_probes: int, seed: int = 0) -> float:
    """Gradient-audit residual of the stage-II training loss on one example."""
    tokens, masks = _stack_batch([example], cfg.context_len)
    return grad_audit(lambda: _stage2_loss(student, teacher, tokens, masks, cfg),
                      trainable_params(student), n_probes, seed=seed)


def grad_audit(loss_fn, params: dict, n_params: int, seed: int = 0,
               rel_step: float = 1e-3) -> float:
    """Max relative error between analytic gradients and central finite
    differences over `n_params` randomly probed scalar parameters.

    `loss_fn()` evaluates the loss at the current parameter values and returns
    (value, grads dict); probes perturb parameters in place and restore them.
    """
    if n_params < 1:
        raise ValueError("n_params must be >= 1")
    rng = np.random.default_rng(seed)
    _, grads = loss_fn()
    names = [n for n in sorted(params) if n in grads and params[n].size > 0]
    worst = 0.0
    for _ in range(n_params):
        name = names[rng.integers(0, len(names))]
        arr = params[name]
        flat = rng.integers(0, arr.size)
        idx = np.unravel_index(flat, arr.shape)
        base = arr[idx]
        h = rel_step * max(abs(base), 1e-2)
        arr[idx] = base + h
        up, _ = loss_fn()
        arr[idx] = base - h
        down, _ = loss_fn()
        arr[idx] = base
        fd = (up - down) / (2 * h)
        an = grads[name][idx]
        denom = max(abs(fd), abs(an), 1e-8)
        worst = max(worst, abs(fd - an) / denom)
    return worst
