"""Invariant suite behind `hybridkit verify`: factorization reconstruction,
chunked/sequential equivalence, KL path agreement, and a gradient audit on the
actual model pair."""

from dataclasses import dataclass

import numpy as np

from .gdn import CHUNK, gdn_forward_chunked, gdn_forward_sequential
from .hybrid import HybridModel
from .losses import LossConfig, kl_chunked, kl_hidden, kl_naive, kl_online
from .numerics import ATTN_BLOCK, repeat_kv, svd
from .synthetic import TrainExample
from .train import TrainConfig, audit_distillation


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed), "detail": self.detail}


def _svd_reconstruction(teacher, seed: int) -> CheckResult:
    worst = 0.0
    rng = np.random.default_rng(seed)
    for attn in (ly.mixer for ly in teacher.layers):
        kv = np.concatenate([repeat_kv(attn.wk, teacher.config.head_dim,
                                       teacher.config.group),
                             repeat_kv(attn.wv, teacher.config.head_dim,
                                       teacher.config.group)], axis=0)
        for mat in (attn.wq, kv):
            r = min(mat.shape)
            f = svd(mat, r)
            rec = f.u @ (f.sigma[:, None] * f.v.T)
            worst = max(worst, np.linalg.norm(rec - mat) / np.linalg.norm(mat))
    a = rng.normal(size=(24, 10))
    f = svd(a, 10)
    worst = max(worst, np.linalg.norm(f.u @ (f.sigma[:, None] * f.v.T) - a)
                / np.linalg.norm(a))
    return CheckResult("svd full-rank reconstruction", worst < 1e-5,
                       f"max rel Frobenius err {worst:.2e} (< 1e-5)")


def _chunked_equivalence(hybrid: HybridModel, seed: int) -> CheckResult:
    gdn_layers = [ly for ly in hybrid.layers if ly.kind == "gdn"]
    if not gdn_layers:
        return CheckResult("gdn chunked == sequential", True, "no gated-delta layers")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for T in (64, 70, 129):
        x = rng.normal(size=(T, hybrid.config.d_model))
        for ly in gdn_layers[:2]:
            y_seq, _ = gdn_forward_sequential(ly.mixer, hybrid.gdn_cfg, x)
            y_chk, _ = gdn_forward_chunked(ly.mixer, hybrid.gdn_cfg, x)
            worst = max(worst, np.max(np.abs(y_seq - y_chk))
                        / (np.max(np.abs(y_seq)) + 1e-30))
    return CheckResult("gdn chunked == sequential", worst < 1e-4,
                       f"max rel err {worst:.2e} (< 1e-4)")


def _kl_agreement(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    cfg = LossConfig(kl_chunk=64, vocab_tile=16)
    worst_v = worst_g = 0.0
    for _ in range(5):
        T, V, d = 150, 48, 12
        h_s = rng.normal(size=(T, d))
        h_t = rng.normal(size=(T, d))
        w_s = rng.normal(size=(V, d))
        w_t = rng.normal(size=(V, d))
        z_s, z_t = h_s @ w_s.T, h_t @ w_t.T
        ref = kl_naive(z_s, z_t)
        for path in (kl_chunked, kl_online):
            out = path(z_s, z_t, cfg)
            worst_v = max(worst_v, abs(out.value - ref.value))
            worst_g = max(worst_g, np.max(np.abs(out.grad - ref.grad)))
        hid = kl_hidden(h_s, w_s, h_t, w_t, cfg)
        worst_v = max(worst_v, abs(hid.value - ref.value))
        worst_g = max(worst_g, np.max(np.abs(hid.grad - ref.grad @ w_s)))
    ok = worst_v < 1e-5 and worst_g < 1e-4
    return CheckResult("kl paths agree", ok,
                       f"value diff {worst_v:.2e} (< 1e-5), grad diff {worst_g:.2e} (< 1e-4)")


def _kd_grad_audit(hybrid: HybridModel, teacher, seed: int) -> CheckResult:
    # Long enough to cross attention-block and GDN-chunk boundaries, where
    # the backward carries gradients from one block or chunk to the next.
    rng = np.random.default_rng(seed)
    example = TrainExample(rng.integers(0, hybrid.config.vocab,
                                        size=2 * max(ATTN_BLOCK, CHUNK) + 5))
    err = audit_distillation(hybrid, teacher, example, TrainConfig(stage=2),
                             n_probes=16, seed=seed)
    return CheckResult("gradient audit (hybrid through KD)", err < 1e-2,
                       f"max rel err {err:.2e} (< 1e-2)")


def run_verification(hybrid: HybridModel, teacher, seed: int = 0) -> list:
    return [
        _svd_reconstruction(teacher, seed),
        _chunked_equivalence(hybrid, seed + 1),
        _kl_agreement(seed + 2),
        _kd_grad_audit(hybrid, teacher, seed + 3),
    ]
