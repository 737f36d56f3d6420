"""Hybrid model assembly, the stack forward/decode/backward, and memory
accounting.

A hybrid stack keeps the teacher's embeddings, SwiGLU MLPs, and norms, and
replaces each gqa mixer with either a latent-attention block (at the
layout's `mla_indices`) or a gated delta-rule block (everywhere else).
Stage-wise conversion produces "pure" models (all one kind); assembly then
picks per-layer blocks out of the two pure checkpoints. `hybrid_forward` runs
stacks of all three kinds, the teacher's too; gqa layers have no backward.

KV-cache accounting: a teacher layer caches 2 * H_kv * d_h elements per
token, a latent layer r_kv + d_rope, a linear layer nothing, so

    ratio = |mla_indices| * (r_kv + d_rope) / (L * 2 * H_kv * d_h).

Training-memory accounting sizes the (T, V) logit-shaped tensors of a
distillation step at 2 bytes per element and removes the rows that each
memory technique eliminates.
"""

from dataclasses import dataclass

import numpy as np

from . import teacher
from .accounting import record_alloc
from .checkpoint import (SHARED_LAYER_TENSORS, HybridLayer, HybridModel,
                         TransformerConfig, mixer_prefix, stack_from_tensors,
                         stack_shapes)
from .container import read_container, write_container
from .gdn import (GdnBlockWeights, GdnConfig, gdn_backward,
                  gdn_forward_chunked, gdn_forward_sequential,
                  gdn_forward_train, init_gdn_from_teacher)
from .mla import (MlaBlockWeights, MlaConfig, init_mla_from_teacher,
                  mla_backward, mla_forward)
from .mlp import swiglu_backward, swiglu_forward
from .numerics import rmsnorm, rmsnorm_backward, rope_inv_freq, rope_tables
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


# ---------------------------------------------------------------------------
# Conversion and assembly
# ---------------------------------------------------------------------------

def _convert(ckpt: HybridModel, kind: str, cfg: MlaConfig | GdnConfig,
             seed: int) -> HybridModel:
    """Replace every gqa layer of a teacher with a `kind` block initialized
    from it (layer i at seed + i); the shared tensors and the top are copied."""
    # Neither mixer has a place for the teacher's per-head Q/K RMSNorm, so
    # converting would drop it silently.
    if ckpt.config.qk_norm:
        raise ValueError("teacher uses qk_norm (per-head Q/K RMSNorm), which "
                         "conversion does not support")
    # Read from the module globals on each call, so a wrapper set on
    # `hybrid.init_*_from_teacher` is the one that runs.
    init = init_mla_from_teacher if kind == "mla" else init_gdn_from_teacher
    layers = [HybridLayer(kind, init(ly.mixer, ckpt.config, cfg, seed + i),
                          **{f: getattr(ly, f).copy() for f in SHARED_LAYER_TENSORS})
              for i, ly in enumerate(ckpt.layers)]
    return HybridModel(ckpt.config, layers, ckpt.embedding.copy(),
                       ckpt.final_norm.copy(), ckpt.lm_head.copy(),
                       **{f"{kind}_cfg": cfg})


def convert_teacher_to_mla(ckpt: HybridModel, cfg: MlaConfig,
                           seed: int = 0) -> HybridModel:
    """Replace every attention layer with a latent-attention block."""
    return _convert(ckpt, "mla", cfg, seed)


def convert_teacher_to_gdn(ckpt: HybridModel, cfg: GdnConfig,
                           seed: int = 0) -> HybridModel:
    """Replace every attention layer with a gated delta-rule block."""
    return _convert(ckpt, "gdn", cfg, seed)


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
    for kind, model in src.items():
        wrong = [f"{ly.kind} layer {i}" for i, ly in enumerate(model.layers)
                 if ly.kind != kind]
        if wrong:
            raise ValueError(f"the pure {kind} model holds a {wrong[0]}")
    layers = [src[layout.kind(i)].layers[i] for i in range(layout.n_layers)]
    top = src[donor]
    return HybridModel(pure_mla.config, layers, top.embedding,
                       top.final_norm, top.lm_head,
                       mla_cfg=pure_mla.mla_cfg, gdn_cfg=pure_gdn.gdn_cfg)


# ---------------------------------------------------------------------------
# Forward / decode / backward
# ---------------------------------------------------------------------------

def hybrid_forward(model: HybridModel, tokens, want_logits: bool = True,
                   want_trace: bool = False, caches: list | None = None,
                   position_offset: int = 0, tapes: list | None = None) -> Trace:
    """Run the stack; returns trace plus per-layer caches for continuation.

    `tokens` is one id sequence, or a batch of equal-length sequences (B, T)
    for fresh training forwards (no caches/offset in that case). `tapes`,
    when given an empty list, is filled with per-layer gradient tapes; it
    too takes a fresh sequence only, and a stack of mla and gdn layers.
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
    taping = tapes is not None
    if taping and (caches is not None or position_offset != 0):
        raise ValueError("gradient tapes require a fresh-sequence forward")

    n_tokens = tokens.size
    h = model.embedding[tokens]
    hidden_states, mixer_outputs, new_caches = [], [], []
    for i, ly in enumerate(model.layers):
        cache = None if caches is None else caches[i]
        tape = {} if taping else None
        h_in = h
        x = rmsnorm(h, ly.norm_attn, cfg.eps)
        if ly.kind == "gqa":
            if taping:
                raise ValueError(f"layer {i} is a gqa layer, which has no backward for a tape")
            if cache is not None and len(cache) != position_offset:
                raise ValueError(f"layer {i} cache holds {len(cache)} tokens, "
                                 f"expected {position_offset}")
            positions = np.arange(position_offset, position_offset + tokens.shape[-1])
            rope = rope_tables(rope_inv_freq(cfg.head_dim, cfg.rope_theta), positions)
            a, new_cache = teacher.gqa_attention(ly.mixer, cfg, x, *rope, cache=cache)
        elif ly.kind == "mla":
            a, new_cache = mla_forward(ly.mixer, model.mla_cfg, x, cache=cache,
                                       position_offset=position_offset, tape=tape)
        elif taping:
            a, new_cache = gdn_forward_train(ly.mixer, model.gdn_cfg, x, tape)
        elif single and position_offset > 0 and tokens.size == 1:
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
        role = "teacher" if all(ly.kind == "gqa" for ly in model.layers) else "hybrid"
        record_alloc(f"{role}_logits", n_tokens * cfg.vocab)
        logits = final @ model.lm_head.T
    if taping:
        tapes.append({"pre_final": h})
    return Trace(hidden_states, mixer_outputs, final, logits,
                 new_caches if single else None)


def teacher_forward(model: HybridModel, tokens, want_logits: bool = True,
                    want_trace: bool = False) -> Trace:
    """The teacher side of a distillation step: `hybrid_forward` of a fresh
    sequence or batch. Training calls it through this name, which the
    benchmark's traced run wraps to time the teacher apart from the student."""
    return hybrid_forward(model, tokens, want_logits=want_logits, want_trace=want_trace)


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
        shared = {f"mlp_{k}": g for k, g in mlp_grads.items()}
        dh_mid, shared["norm_mlp"] = rmsnorm_backward(tape["h_mid"], ly.norm_mlp,
                                                      cfg.eps, dx2)
        dh_mid = dh_mid + dh
        da = dh_mid.copy()
        if da_layers is not None and da_layers[i] is not None:
            da = da + da_layers[i]
        if ly.kind == "mla":
            dx, mixer_grads = mla_backward(ly.mixer, model.mla_cfg, tape, da)
        else:
            dx, mixer_grads = gdn_backward(ly.mixer, model.gdn_cfg, tape, da)
        dh_in, shared["norm_attn"] = rmsnorm_backward(tape["layer_in"], ly.norm_attn,
                                                      cfg.eps, dx)
        dh = dh_mid + dh_in

        for f, name in SHARED_LAYER_TENSORS.items():
            grads[f"layers.{i}.{name}"] = shared[f]
        for k, v in mixer_grads.items():
            grads[f"{mixer_prefix(ly.kind, i)}.{k}"] = v
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
    full = teacher_cfg.n_layers * 2 * teacher_cfg.n_kv_heads * teacher_cfg.head_dim
    hybrid = len(layout.mla_indices) * mla_cfg.cache_per_token
    return KvCacheReport(full, hybrid, hybrid / full)


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
    kinds = [ly.kind for ly in model.layers]
    if "gqa" in kinds:
        raise ValueError("a hybrid checkpoint holds no gqa layer; save a teacher "
                         "with save_teacher")
    meta = {
        "kind": "hybrid",
        "config": model.config.to_dict(),
        "layout": HybridLayout(len(kinds), [i for i, k in enumerate(kinds)
                                            if k == "mla"]).to_dict(),
        "mla_cfg": model.mla_cfg.to_dict() if model.mla_cfg else None,
        "gdn_cfg": model.gdn_cfg.to_dict() if model.gdn_cfg else None,
    }
    write_container(path, model.named_tensors(), meta)


def _hybrid_schema(meta: dict):
    """(config, layer kinds, kind -> mixer field shapes, mla_cfg, gdn_cfg)."""
    cfg = TransformerConfig.from_dict(meta["config"])
    layout = HybridLayout.from_dict(meta["layout"])
    mla_cfg = MlaConfig.from_dict(meta["mla_cfg"]) if meta.get("mla_cfg") else None
    gdn_cfg = GdnConfig.from_dict(meta["gdn_cfg"]) if meta.get("gdn_cfg") else None
    return (cfg, [layout.kind(i) for i in range(cfg.n_layers)],
            lambda kind: _mixer_shapes(kind, cfg.d_model, mla_cfg, gdn_cfg), mla_cfg, gdn_cfg)


def _mixer_shapes(kind: str, d: int, mla_cfg: MlaConfig | None,
                  gdn_cfg: GdnConfig | None) -> dict:
    if kind == "gdn":
        if gdn_cfg is None:
            raise ValueError("hybrid checkpoint has gated-delta layers but no gdn_cfg")
        return GdnBlockWeights.shapes(gdn_cfg)
    if mla_cfg is None:
        raise ValueError("hybrid checkpoint has latent-attention layers but no mla_cfg")
    return MlaBlockWeights.shapes(mla_cfg, d)


def _hybrid_shapes(meta: dict | None) -> dict | None:
    """Name -> shape of every tensor the hybrid described by `meta` holds."""
    if meta is None or meta.get("kind") != "hybrid":
        return None
    cfg, kinds, mixer_shapes, _, _ = _hybrid_schema(meta)
    return stack_shapes(cfg, kinds, mixer_shapes)


def load_hybrid(path) -> HybridModel:
    tensors, meta = read_container(path, expected=_hybrid_shapes)
    if meta is None or meta.get("kind") != "hybrid":
        raise ValueError(f"{path} is not a hybrid checkpoint")
    cfg, kinds, mixer_shapes, mla_cfg, gdn_cfg = _hybrid_schema(meta)
    return stack_from_tensors(cfg, kinds, tensors, mixer_shapes,
                              {"mla": MlaBlockWeights, "gdn": GdnBlockWeights},
                              mla_cfg=mla_cfg, gdn_cfg=gdn_cfg)
