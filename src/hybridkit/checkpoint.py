"""The one model schema: a residual stack of mixer layers, the teacher config,
toy teacher generation, and teacher serialization.

Every layer pairs a mixer with a SwiGLU MLP and two RMSNorms. The mixer's
kind is "gqa" (teacher attention, `teacher.GqaWeights`), "mla" (latent
attention) or "gdn" (gated delta rule). A teacher is a model whose layers
are all "gqa"; conversion and assembly make the other two kinds.

Tensor naming: a gqa mixer under `layers.{i}.attn.` (`wq, wk, wv, wo`, and
`q_norm, k_norm` with qk_norm), any other mixer under `{kind}.{i}.`;
`layers.{i}.mlp.{gate,up,down}`, `layers.{i}.{norm_attn,norm_mlp}`, plus
`embedding`, `final_norm`, `lm_head`.
"""

from dataclasses import dataclass, fields

import numpy as np

from .container import read_container, write_container
from .numerics import f32_resolution
from .teacher import GqaWeights


@dataclass
class TransformerConfig:
    d_model: int
    n_layers: int
    n_q_heads: int
    n_kv_heads: int
    head_dim: int
    vocab: int
    mlp_hidden: int
    rope_theta: float = 10000.0
    eps: float = 1e-5
    qk_norm: bool = False

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name != "qk_norm" and (not isinstance(v, (int, float)) or v <= 0):
                raise ValueError(f"config field {f.name} must be positive, got {v}")
        if self.n_q_heads % self.n_kv_heads != 0:
            raise ValueError("n_q_heads must be divisible by n_kv_heads")

    @property
    def group(self) -> int:
        return self.n_q_heads // self.n_kv_heads

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "TransformerConfig":
        return cls(**d)


# Layer field -> tensor name under `layers.{i}.`, in container order after
# the mixer's tensors. Conversion keeps these from the teacher layer.
SHARED_LAYER_TENSORS = {"mlp_gate": "mlp.gate", "mlp_up": "mlp.up", "mlp_down": "mlp.down",
                        "norm_attn": "norm_attn", "norm_mlp": "norm_mlp"}


def mixer_prefix(kind: str, i: int) -> str:
    """Name prefix of layer i's mixer tensors."""
    return f"layers.{i}.attn" if kind == "gqa" else f"{kind}.{i}"


@dataclass
class HybridLayer:
    """A mixer plus the SHARED_LAYER_TENSORS."""
    kind: str                 # "gqa" | "mla" | "gdn"
    mixer: object             # GqaWeights | MlaBlockWeights | GdnBlockWeights
    mlp_gate: np.ndarray      # (mlp_hidden, d)
    mlp_up: np.ndarray        # (mlp_hidden, d)
    mlp_down: np.ndarray      # (d, mlp_hidden)
    norm_attn: np.ndarray     # (d,)
    norm_mlp: np.ndarray      # (d,)


@dataclass
class HybridModel:
    config: TransformerConfig
    layers: list
    embedding: np.ndarray     # (V, d)
    final_norm: np.ndarray    # (d,)
    lm_head: np.ndarray       # (V, d)
    mla_cfg: object = None    # MlaConfig, when a layer is "mla"
    gdn_cfg: object = None    # GdnConfig, when a layer is "gdn"

    def named_tensors(self) -> dict:
        out = {}
        for i, ly in enumerate(self.layers):
            out.update(ly.mixer.named_tensors(mixer_prefix(ly.kind, i)))
            for f, name in SHARED_LAYER_TENSORS.items():
                out[f"layers.{i}.{name}"] = getattr(ly, f)
        out["embedding"] = self.embedding
        out["final_norm"] = self.final_norm
        out["lm_head"] = self.lm_head
        return out


def stack_shapes(c: TransformerConfig, kinds: list, mixer_shapes) -> dict:
    """Tensor name -> shape for every tensor of a stack with config `c` whose
    layer i has kind kinds[i]; `mixer_shapes(kind)` maps a mixer's fields to
    their shapes."""
    d, h = c.d_model, c.mlp_hidden
    shared = dict(zip(SHARED_LAYER_TENSORS.values(), ((h, d), (h, d), (d, h), (d,), (d,))))
    shapes = {}
    for i, kind in enumerate(kinds):
        shapes.update({f"{mixer_prefix(kind, i)}.{f}": shape
                       for f, shape in mixer_shapes(kind).items()})
        shapes.update({f"layers.{i}.{name}": shape for name, shape in shared.items()})
    shapes.update(embedding=(c.vocab, d), final_norm=(d,), lm_head=(c.vocab, d))
    return shapes


def stack_from_tensors(c: TransformerConfig, kinds: list, tensors: dict, mixer_shapes,
                       mixer_types: dict, **mixer_cfgs) -> HybridModel:
    """The model whose tensors `stack_shapes(c, kinds, mixer_shapes)` names;
    `mixer_types` maps each kind to its weights class."""
    layers = []
    for i, kind in enumerate(kinds):
        prefix = mixer_prefix(kind, i)
        mixer = mixer_types[kind](**{f: tensors[f"{prefix}.{f}"] for f in mixer_shapes(kind)})
        layers.append(HybridLayer(kind, mixer, **{
            f: tensors[f"layers.{i}.{name}"] for f, name in SHARED_LAYER_TENSORS.items()}))
    return HybridModel(c, layers, tensors["embedding"], tensors["final_norm"],
                       tensors["lm_head"], **mixer_cfgs)


def teacher_shapes(c: TransformerConfig) -> dict:
    """Tensor name -> shape for every tensor a teacher with config `c` holds."""
    return stack_shapes(c, ["gqa"] * c.n_layers, lambda _kind: GqaWeights.shapes(c))


def validate_teacher(model: HybridModel) -> None:
    """Raise ValueError unless `model` is a stack of gqa layers holding every
    tensor its config names, at its shape, with finite values."""
    c = model.config
    kinds = [ly.kind for ly in model.layers]
    if kinds != ["gqa"] * c.n_layers:
        raise ValueError(f"expected {c.n_layers} gqa layers, got {kinds}")
    tensors = model.named_tensors()
    for name, want in teacher_shapes(c).items():
        if tensors.get(name) is None:
            raise ValueError(f"tensor {name} missing")
        if tensors[name].shape != want:
            raise ValueError(f"{name}: shape {tensors[name].shape}, expected {want}")
    for name, t in tensors.items():
        if not np.all(np.isfinite(t)):
            raise ValueError(f"tensor {name} has non-finite values")


def gen_toy_teacher(config: TransformerConfig, seed: int) -> HybridModel:
    """Deterministic toy teacher: PCG64(seed), normal weights at std 1/sqrt(fan_in)."""
    rng = np.random.default_rng(seed)

    def w(rows, cols):
        return f32_resolution(rng.normal(0.0, 1.0 / np.sqrt(cols), size=(rows, cols)))

    c = config
    layers = []
    for _ in range(c.n_layers):
        attn = GqaWeights(
            wq=w(c.n_q_heads * c.head_dim, c.d_model),
            wk=w(c.n_kv_heads * c.head_dim, c.d_model),
            wv=w(c.n_kv_heads * c.head_dim, c.d_model),
            wo=w(c.d_model, c.n_q_heads * c.head_dim),
            q_norm=np.ones(c.head_dim) if c.qk_norm else None,
            k_norm=np.ones(c.head_dim) if c.qk_norm else None)
        layers.append(HybridLayer(
            "gqa", attn,
            mlp_gate=w(c.mlp_hidden, c.d_model),
            mlp_up=w(c.mlp_hidden, c.d_model),
            mlp_down=w(c.d_model, c.mlp_hidden),
            norm_attn=np.ones(c.d_model),
            norm_mlp=np.ones(c.d_model),
        ))
    model = HybridModel(c, layers, embedding=w(c.vocab, c.d_model),
                        final_norm=np.ones(c.d_model), lm_head=w(c.vocab, c.d_model))
    validate_teacher(model)
    return model


def save_teacher(model: HybridModel, path) -> None:
    validate_teacher(model)
    meta = {"kind": "teacher", "config": model.config.to_dict()}
    write_container(path, model.named_tensors(), meta)


def _teacher_shapes(meta: dict | None) -> dict | None:
    """Name -> shape of every tensor the teacher described by `meta` holds."""
    if meta is None or meta.get("kind") != "teacher":
        return None
    return teacher_shapes(TransformerConfig.from_dict(meta["config"]))


def load_teacher(path) -> HybridModel:
    tensors, meta = read_container(path, expected=_teacher_shapes)
    if meta is None or meta.get("kind") != "teacher":
        raise ValueError(f"{path} is not a teacher checkpoint")
    c = TransformerConfig.from_dict(meta["config"])
    return stack_from_tensors(c, ["gqa"] * c.n_layers, tensors,
                              lambda _kind: GqaWeights.shapes(c), {"gqa": GqaWeights})
