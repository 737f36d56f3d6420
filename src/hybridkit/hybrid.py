"""Hybrid model assembly, forward/decode, and memory accounting.

A hybrid stack keeps the teacher's embeddings, SwiGLU MLPs, and norms, and
replaces each attention mixer with either a latent-attention block (at the
layout's `mla_indices`) or a gated delta-rule block (everywhere else).
Stage-wise conversion produces "pure" models (all one kind); assembly then
picks per-layer blocks out of the two pure checkpoints.

KV-cache accounting: a teacher layer caches 2 * H_kv * d_h elements per
token, a latent layer r_kv + d_rope, a linear layer nothing, so

    ratio = |mla_indices| * (r_kv + d_rope) / (L * 2 * H_kv * d_h).

Training-memory accounting sizes the (T, V) logit-shaped tensors of a
distillation step at 2 bytes per element and removes the rows that each
memory technique eliminates.
"""

import json
from dataclasses import dataclass, fields

import numpy as np

from .accounting import record_alloc
from .checkpoint import TeacherCheckpoint, TransformerConfig
from .container import read_container, write_container
from .gdn import (GdnBlockWeights, GdnConfig, GdnState, gdn_backward,
                  gdn_forward_chunked, gdn_forward_sequential,
                  gdn_forward_train, init_gdn_from_teacher)
from .mla import (MlaBlockWeights, MlaCache, MlaConfig, init_mla_from_teacher,
                  mla_backward, mla_forward)
from .mlp import swiglu_backward, swiglu_forward
from .numerics import rmsnorm, rmsnorm_backward
from .teacher import Trace


@dataclass
class HybridLayout:
    """Which layers are latent attention; every other layer is gated delta."""
    n_layers: int
    mla_indices: tuple

    def __post_init__(self):
        self.mla_indices = tuple(sorted(int(i) for i in self.mla_indices))
        if len(set(self.mla_indices)) != len(self.mla_indices):
            raise ValueError("duplicate layer index in mla_indices")
        if self.mla_indices and (self.mla_indices[0] < 0
                                 or self.mla_indices[-1] >= self.n_layers):
            raise ValueError(f"mla_indices out of range [0, {self.n_layers})")

    def kind(self, i: int) -> str:
        return "mla" if i in self.mla_indices else "gdn"

    def to_dict(self) -> dict:
        return {"n_layers": self.n_layers, "mla_indices": list(self.mla_indices),
                "linear_kind": "gdn"}

    @classmethod
    def from_dict(cls, d: dict) -> "HybridLayout":
        kind = d.get("linear_kind", "gdn")
        if kind != "gdn":
            raise ValueError(f"unsupported linear_kind {kind!r}; only 'gdn' exists")
        return cls(n_layers=d["n_layers"], mla_indices=d["mla_indices"])

    @classmethod
    def from_json_file(cls, path) -> "HybridLayout":
        with open(path) as f:
            return cls.from_dict(json.load(f))


@dataclass
class HybridLayer:
    kind: str                 # "mla" | "gdn"
    mixer: object             # MlaBlockWeights | GdnBlockWeights
    mlp_gate: np.ndarray
    mlp_up: np.ndarray
    mlp_down: np.ndarray
    norm_attn: np.ndarray
    norm_mlp: np.ndarray


@dataclass
class HybridModel:
    config: TransformerConfig
    layout: HybridLayout
    layers: list
    embedding: np.ndarray
    final_norm: np.ndarray
    lm_head: np.ndarray
    mla_cfg: MlaConfig | None = None
    gdn_cfg: GdnConfig | None = None

    def named_tensors(self) -> dict:
        out = {}
        for i, ly in enumerate(self.layers):
            out.update(ly.mixer.named_tensors(f"{ly.kind}.{i}"))
            p = f"layers.{i}"
            out[f"{p}.mlp.gate"] = ly.mlp_gate
            out[f"{p}.mlp.up"] = ly.mlp_up
            out[f"{p}.mlp.down"] = ly.mlp_down
            out[f"{p}.norm_attn"] = ly.norm_attn
            out[f"{p}.norm_mlp"] = ly.norm_mlp
        out["embedding"] = self.embedding
        out["final_norm"] = self.final_norm
        out["lm_head"] = self.lm_head
        return out


# ---------------------------------------------------------------------------
# Conversion and assembly
# ---------------------------------------------------------------------------

def _reject_qk_norm(ckpt: TeacherCheckpoint) -> None:
    # Neither mixer has a place for the teacher's per-head Q/K RMSNorm, so
    # converting would drop it silently.
    if ckpt.config.qk_norm:
        raise ValueError("teacher uses qk_norm (per-head Q/K RMSNorm), which "
                         "conversion does not support")


def convert_teacher_to_mla(ckpt: TeacherCheckpoint, cfg: MlaConfig,
                           seed: int = 0) -> HybridModel:
    """Replace every attention layer with a latent-attention block."""
    _reject_qk_norm(ckpt)
    layout = HybridLayout(ckpt.config.n_layers, tuple(range(ckpt.config.n_layers)))
    layers = [
        HybridLayer("mla", init_mla_from_teacher(ly, ckpt.config, cfg, seed + i),
                    ly.mlp_gate.copy(), ly.mlp_up.copy(), ly.mlp_down.copy(),
                    ly.norm_attn.copy(), ly.norm_mlp.copy())
        for i, ly in enumerate(ckpt.layers)]
    return HybridModel(ckpt.config, layout, layers, ckpt.embedding.copy(),
                       ckpt.final_norm.copy(), ckpt.lm_head.copy(), mla_cfg=cfg)


def convert_teacher_to_gdn(ckpt: TeacherCheckpoint, cfg: GdnConfig,
                           seed: int = 0) -> HybridModel:
    """Replace every attention layer with a gated delta-rule block."""
    _reject_qk_norm(ckpt)
    layout = HybridLayout(ckpt.config.n_layers, ())
    layers = [
        HybridLayer("gdn", init_gdn_from_teacher(ly, ckpt.config, cfg, seed + i),
                    ly.mlp_gate.copy(), ly.mlp_up.copy(), ly.mlp_down.copy(),
                    ly.norm_attn.copy(), ly.norm_mlp.copy())
        for i, ly in enumerate(ckpt.layers)]
    return HybridModel(ckpt.config, layout, layers, ckpt.embedding.copy(),
                       ckpt.final_norm.copy(), ckpt.lm_head.copy(), gdn_cfg=cfg)


def assemble_hybrid(pure_mla: HybridModel, pure_gdn: HybridModel,
                    layout: HybridLayout, donor: str = "mla") -> HybridModel:
    """Pick per-layer blocks from the two pure stage-one checkpoints."""
    if pure_mla.config.to_dict() != pure_gdn.config.to_dict():
        raise ValueError("pure checkpoints disagree on the base config")
    if layout.n_layers != pure_mla.config.n_layers:
        raise ValueError("layout layer count does not match the checkpoints")
    if donor not in ("mla", "gdn"):
        raise ValueError("donor must be 'mla' or 'gdn'")
    src = {"mla": pure_mla, "gdn": pure_gdn}
    layers = [src[layout.kind(i)].layers[i] for i in range(layout.n_layers)]
    top = src[donor]
    return HybridModel(pure_mla.config, layout, layers, top.embedding,
                       top.final_norm, top.lm_head,
                       mla_cfg=pure_mla.mla_cfg, gdn_cfg=pure_gdn.gdn_cfg)


# ---------------------------------------------------------------------------
# Forward / decode / backward
# ---------------------------------------------------------------------------

def _fresh_cache(model: HybridModel, ly: HybridLayer):
    if ly.kind == "mla":
        return MlaCache.empty(model.mla_cfg)
    return GdnState.zeros(model.gdn_cfg)


def hybrid_forward(model: HybridModel, tokens, want_logits: bool = True,
                   want_trace: bool = False, caches: list | None = None,
                   position_offset: int = 0, tapes: list | None = None) -> Trace:
    """Run the stack; returns trace plus per-layer caches for continuation.

    `tokens` is one id sequence, or a batch of equal-length sequences (B, T)
    for fresh training forwards (no caches/offset in that case). `tapes`,
    when given an empty list, is filled with per-layer gradient tapes.
    """
    cfg = model.config
    tokens = np.asarray(tokens, dtype=np.int64)
    single = tokens.ndim == 1
    if tokens.ndim not in (1, 2) or tokens.size < 1:
        raise ValueError("tokens must be a non-empty 1-D or 2-D id array")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab:
        raise ValueError(f"token id out of range [0, {cfg.vocab})")
    if not single and (caches is not None or position_offset):
        raise ValueError("cached decode requires a single sequence")
    if single and caches is None:
        caches = [_fresh_cache(model, ly) for ly in model.layers]
    taping = tapes is not None
    if taping and position_offset != 0:
        raise ValueError("gradient tapes require a fresh-sequence forward")

    n_tokens = tokens.size
    h = model.embedding[tokens]
    hidden_states, mixer_outputs, new_caches = [], [], []
    for i, ly in enumerate(model.layers):
        cache = caches[i] if single else None
        tape = {} if taping else None
        h_in = h
        x = rmsnorm(h, ly.norm_attn, cfg.eps)
        if ly.kind == "mla":
            a, new_cache = mla_forward(ly.mixer, model.mla_cfg, x, cache=cache,
                                       position_offset=position_offset, tape=tape)
        elif taping:
            a, new_cache = gdn_forward_train(ly.mixer, model.gdn_cfg, x, tape)
        elif single and position_offset > 0:
            a, new_cache = gdn_forward_sequential(ly.mixer, model.gdn_cfg, x,
                                                  state=cache)
        else:
            a, new_cache = gdn_forward_chunked(ly.mixer, model.gdn_cfg, x,
                                               state=cache)
        new_caches.append(new_cache)
        h_mid = h + a
        x2 = rmsnorm(h_mid, ly.norm_mlp, cfg.eps)
        mlp_tape = {} if taping else None
        h = h_mid + swiglu_forward(x2, ly.mlp_gate, ly.mlp_up, ly.mlp_down,
                                   tape=mlp_tape)
        if taping:
            tape.update(layer_in=h_in, h_mid=h_mid, mlp=mlp_tape)
            tapes.append(tape)
        if want_trace:
            mixer_outputs.append(a)
            hidden_states.append(h)

    final = rmsnorm(h, model.final_norm, cfg.eps)
    logits = None
    if want_logits:
        record_alloc("hybrid_logits", n_tokens * cfg.vocab)
        logits = final @ model.lm_head.T
    if taping:
        tapes.append({"pre_final": h})
    return Trace(hidden_states, mixer_outputs, final, logits,
                 new_caches if single else None)


def hybrid_backward(model: HybridModel, tapes: list, d_final: np.ndarray | None,
                    dh_layers: list | None = None, da_layers: list | None = None):
    """Reverse through the stack given the gradient wrt the normed final
    hidden state (d_final) and/or per-layer trace gradients. Returns a grads
    dict keyed like named_tensors(); embeddings and LM head stay frozen."""
    cfg = model.config
    grads = {}
    top = tapes[-1]
    if d_final is not None:
        dh, grads["final_norm"] = rmsnorm_backward(top["pre_final"], model.final_norm,
                                                   cfg.eps, d_final)
    else:
        dh = np.zeros_like(top["pre_final"])
        grads["final_norm"] = np.zeros_like(model.final_norm)

    for i in range(len(model.layers) - 1, -1, -1):
        ly, tape = model.layers[i], tapes[i]
        if dh_layers is not None and dh_layers[i] is not None:
            dh = dh + dh_layers[i]
        dx2, mlp_grads = swiglu_backward(tape["mlp"], ly.mlp_gate, ly.mlp_up,
                                         ly.mlp_down, dh)
        dh_mid, dg_norm2 = rmsnorm_backward(tape["h_mid"], ly.norm_mlp, cfg.eps, dx2)
        dh_mid = dh_mid + dh
        da = dh_mid.copy()
        if da_layers is not None and da_layers[i] is not None:
            da = da + da_layers[i]
        if ly.kind == "mla":
            dx, mixer_grads = mla_backward(ly.mixer, model.mla_cfg, tape, da)
        else:
            dx, mixer_grads = gdn_backward(ly.mixer, model.gdn_cfg, tape, da)
        dh_in, dg_norm1 = rmsnorm_backward(tape["layer_in"], ly.norm_attn, cfg.eps, dx)
        dh = dh_mid + dh_in

        p = f"layers.{i}"
        grads[f"{p}.norm_attn"] = dg_norm1
        grads[f"{p}.norm_mlp"] = dg_norm2
        grads[f"{p}.mlp.gate"] = mlp_grads["gate"]
        grads[f"{p}.mlp.up"] = mlp_grads["up"]
        grads[f"{p}.mlp.down"] = mlp_grads["down"]
        for k, v in mixer_grads.items():
            grads[f"{ly.kind}.{i}.{k}"] = v
    return grads


# ---------------------------------------------------------------------------
# Accounting reports
# ---------------------------------------------------------------------------

@dataclass
class KvCacheReport:
    teacher_per_token: int
    hybrid_per_token: int
    ratio: float

    @property
    def percent(self) -> str:
        return f"{100.0 * self.ratio:.1f}%"

    def to_dict(self) -> dict:
        return {"teacher_per_token": self.teacher_per_token,
                "hybrid_per_token": self.hybrid_per_token,
                "ratio": self.ratio, "percent": self.percent}


def kv_cache_report(layout: HybridLayout, teacher_cfg: TransformerConfig,
                    mla_cfg: MlaConfig) -> KvCacheReport:
    teacher = teacher_cfg.n_layers * 2 * teacher_cfg.n_kv_heads * teacher_cfg.head_dim
    hybrid = len(layout.mla_indices) * mla_cfg.cache_per_token
    return KvCacheReport(teacher, hybrid, hybrid / teacher)


BYTES_PER_ELEMENT = 2  # accounting assumes 2-byte (bf16-class) storage

TECHNIQUE_ALIASES = {
    "fused-ce": "fused-ce", "chunked-ce": "fused-ce", "fused-linear-ce": "fused-ce",
    "chunked-kl": "chunked-kl",
    "fused-kl": "fused-kl", "online-kl": "fused-kl",
    "hidden-kl": "hidden-kl", "fused-kl-hidden": "hidden-kl",
    "hidden-state-kl": "hidden-kl",
}

# technique -> rows of the plan whose transients it eliminates
TECHNIQUE_REMOVES = {
    "fused-ce": ("student_logits",),
    "chunked-kl": ("softmax_transients",),
    "fused-kl": ("softmax_transients", "gradient_transients"),
    "hidden-kl": ("student_logits", "teacher_logits"),
}


@dataclass
class MemoryPlan:
    tokens: int
    vocab: int
    techniques: tuple
    rows: dict                # row name -> residual bytes
    logit_tensor_bytes: int   # one (T, V) tensor at 2 bytes/element

    @property
    def total_bytes(self) -> int:
        return sum(self.rows.values())

    def to_dict(self) -> dict:
        return {"tokens": self.tokens, "vocab": self.vocab,
                "techniques": list(self.techniques), "rows": dict(self.rows),
                "logit_tensor_bytes": self.logit_tensor_bytes,
                "logit_tensor_display": format_gb(self.logit_tensor_bytes),
                "total_bytes": self.total_bytes}


def format_gb(n_bytes: int) -> str:
    gb = n_bytes / 2 ** 30
    return f"≈{gb:.0f} GB" if gb >= 10 else f"≈{gb:.2f} GB"


def normalize_techniques(techniques) -> tuple:
    out = []
    for t in techniques:
        key = str(t).strip().lower()
        if key not in TECHNIQUE_ALIASES:
            raise ValueError(f"unknown memory technique {t!r}; "
                             f"choose from {sorted(set(TECHNIQUE_ALIASES))}")
        canon = TECHNIQUE_ALIASES[key]
        if canon not in out:
            out.append(canon)
    return tuple(out)


def memory_plan(tokens: int, vocab: int, techniques=()) -> MemoryPlan:
    """Logit-shaped tensor budget of one distillation step, minus whatever the
    selected techniques eliminate."""
    if tokens < 1 or vocab < 1:
        raise ValueError("tokens and vocab must be >= 1")
    techniques = normalize_techniques(techniques)
    tv = tokens * vocab * BYTES_PER_ELEMENT
    rows = {
        "student_logits": tv,
        "teacher_logits": tv,
        "softmax_transients": 2 * tv,
        "gradient_transients": tv,
    }
    for t in techniques:
        for row in TECHNIQUE_REMOVES[t]:
            rows[row] = 0
    return MemoryPlan(tokens, vocab, techniques, rows, tv)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_hybrid(model: HybridModel, path) -> None:
    meta = {
        "kind": "hybrid",
        "config": model.config.to_dict(),
        "layout": model.layout.to_dict(),
        "mla_cfg": model.mla_cfg.to_dict() if model.mla_cfg else None,
        "gdn_cfg": model.gdn_cfg.to_dict() if model.gdn_cfg else None,
    }
    write_container(path, model.named_tensors(), meta)


_MLP_NORM_TENSORS = ("mlp.gate", "mlp.up", "mlp.down", "norm_attn", "norm_mlp")


def _mixer_fields(kind: str, mla_cfg: MlaConfig | None) -> list:
    if kind == "gdn":
        return [f.name for f in fields(GdnBlockWeights)]
    if mla_cfg is None:
        raise ValueError("hybrid checkpoint has latent-attention layers but no mla_cfg")
    return [f.name for f in fields(MlaBlockWeights)
            if f.name != "w_gate" or mla_cfg.gate_mode]


def _hybrid_names(meta: dict | None) -> set | None:
    if meta is None or meta.get("kind") != "hybrid":
        return None
    n_layers = TransformerConfig.from_dict(meta["config"]).n_layers
    layout = HybridLayout.from_dict(meta["layout"])
    mla_cfg = MlaConfig.from_dict(meta["mla_cfg"]) if meta.get("mla_cfg") else None
    names = {"embedding", "final_norm", "lm_head"}
    for i in range(n_layers):
        kind = layout.kind(i)
        names |= {f"{kind}.{i}.{f}" for f in _mixer_fields(kind, mla_cfg)}
        names |= {f"layers.{i}.{name}" for name in _MLP_NORM_TENSORS}
    return names


def load_hybrid(path) -> HybridModel:
    tensors, meta = read_container(path, expected=_hybrid_names)
    if meta is None or meta.get("kind") != "hybrid":
        raise ValueError(f"{path} is not a hybrid checkpoint")
    cfg = TransformerConfig.from_dict(meta["config"])
    layout = HybridLayout.from_dict(meta["layout"])
    mla_cfg = MlaConfig.from_dict(meta["mla_cfg"]) if meta.get("mla_cfg") else None
    gdn_cfg = GdnConfig.from_dict(meta["gdn_cfg"]) if meta.get("gdn_cfg") else None

    layers = []
    for i in range(cfg.n_layers):
        kind = layout.kind(i)
        weights = MlaBlockWeights if kind == "mla" else GdnBlockWeights
        mixer = weights(**{f: tensors[f"{kind}.{i}.{f}"]
                           for f in _mixer_fields(kind, mla_cfg)})
        lp = f"layers.{i}"
        layers.append(HybridLayer(kind, mixer, *(tensors[f"{lp}.{name}"]
                                                 for name in _MLP_NORM_TENSORS)))
    return HybridModel(cfg, layout, layers, tensors["embedding"],
                       tensors["final_norm"], tensors["lm_head"],
                       mla_cfg=mla_cfg, gdn_cfg=gdn_cfg)
