"""Teacher checkpoint schema: a GQA transformer's config and weights, toy
generation, and container serialization.

Tensor naming: `layers.{i}.attn.{wq,wk,wv,wo}`, `layers.{i}.attn.{q_norm,k_norm}`
(optional), `layers.{i}.mlp.{gate,up,down}`, `layers.{i}.{norm_attn,norm_mlp}`,
plus `embedding`, `final_norm`, `lm_head`.
"""

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .container import read_container, write_container
from .numerics import f32_resolution


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

    @classmethod
    def from_json_file(cls, path) -> "TransformerConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))


@dataclass
class TeacherLayer:
    wq: np.ndarray        # (H_q*d_h, d)
    wk: np.ndarray        # (H_kv*d_h, d)
    wv: np.ndarray        # (H_kv*d_h, d)
    wo: np.ndarray        # (d, H_q*d_h)
    mlp_gate: np.ndarray  # (mlp_hidden, d)
    mlp_up: np.ndarray    # (mlp_hidden, d)
    mlp_down: np.ndarray  # (d, mlp_hidden)
    norm_attn: np.ndarray  # (d,)
    norm_mlp: np.ndarray   # (d,)
    q_norm: np.ndarray | None = None  # (d_h,) when config.qk_norm
    k_norm: np.ndarray | None = None


# TeacherLayer field -> tensor name under `layers.{i}.`, in container order.
_LAYER_TENSORS = {
    "wq": "attn.wq", "wk": "attn.wk", "wv": "attn.wv", "wo": "attn.wo",
    "q_norm": "attn.q_norm", "k_norm": "attn.k_norm",
    "mlp_gate": "mlp.gate", "mlp_up": "mlp.up", "mlp_down": "mlp.down",
    "norm_attn": "norm_attn", "norm_mlp": "norm_mlp",
}
_QK_NORM_FIELDS = ("q_norm", "k_norm")


@dataclass
class TeacherCheckpoint:
    config: TransformerConfig
    layers: list = field(default_factory=list)
    embedding: np.ndarray = None   # (V, d)
    final_norm: np.ndarray = None  # (d,)
    lm_head: np.ndarray = None     # (V, d)

    def named_tensors(self) -> dict:
        out = {}
        for i, ly in enumerate(self.layers):
            for f, name in _LAYER_TENSORS.items():
                if getattr(ly, f) is not None:
                    out[f"layers.{i}.{name}"] = getattr(ly, f)
        out["embedding"] = self.embedding
        out["final_norm"] = self.final_norm
        out["lm_head"] = self.lm_head
        return out

    def validate(self) -> None:
        c = self.config
        if len(self.layers) != c.n_layers:
            raise ValueError(f"expected {c.n_layers} layers, got {len(self.layers)}")
        shapes = {
            "wq": (c.n_q_heads * c.head_dim, c.d_model),
            "wk": (c.n_kv_heads * c.head_dim, c.d_model),
            "wv": (c.n_kv_heads * c.head_dim, c.d_model),
            "wo": (c.d_model, c.n_q_heads * c.head_dim),
            "mlp_gate": (c.mlp_hidden, c.d_model),
            "mlp_up": (c.mlp_hidden, c.d_model),
            "mlp_down": (c.d_model, c.mlp_hidden),
            "norm_attn": (c.d_model,),
            "norm_mlp": (c.d_model,),
        }
        for i, ly in enumerate(self.layers):
            for name, want in shapes.items():
                got = getattr(ly, name).shape
                if got != want:
                    raise ValueError(f"layer {i} {name}: shape {got}, expected {want}")
            if c.qk_norm and (ly.q_norm is None or ly.k_norm is None):
                raise ValueError(f"layer {i}: config.qk_norm set but q/k norms missing")
        if self.embedding.shape != (c.vocab, c.d_model):
            raise ValueError("embedding shape mismatch")
        if self.lm_head.shape != (c.vocab, c.d_model):
            raise ValueError("lm_head shape mismatch")
        if self.final_norm.shape != (c.d_model,):
            raise ValueError("final_norm shape mismatch")
        for name, t in self.named_tensors().items():
            if not np.all(np.isfinite(t)):
                raise ValueError(f"tensor {name} has non-finite values")


def gen_toy_teacher(config: TransformerConfig, seed: int) -> TeacherCheckpoint:
    """Deterministic toy teacher: PCG64(seed), normal weights at std 1/sqrt(fan_in)."""
    rng = np.random.default_rng(seed)

    def w(rows, cols):
        return f32_resolution(rng.normal(0.0, 1.0 / np.sqrt(cols), size=(rows, cols)))

    c = config
    layers = []
    for _ in range(c.n_layers):
        layers.append(TeacherLayer(
            wq=w(c.n_q_heads * c.head_dim, c.d_model),
            wk=w(c.n_kv_heads * c.head_dim, c.d_model),
            wv=w(c.n_kv_heads * c.head_dim, c.d_model),
            wo=w(c.d_model, c.n_q_heads * c.head_dim),
            mlp_gate=w(c.mlp_hidden, c.d_model),
            mlp_up=w(c.mlp_hidden, c.d_model),
            mlp_down=w(c.d_model, c.mlp_hidden),
            norm_attn=np.ones(c.d_model),
            norm_mlp=np.ones(c.d_model),
            q_norm=np.ones(c.head_dim) if c.qk_norm else None,
            k_norm=np.ones(c.head_dim) if c.qk_norm else None,
        ))
    ckpt = TeacherCheckpoint(
        config=c,
        layers=layers,
        embedding=w(c.vocab, c.d_model),
        final_norm=np.ones(c.d_model),
        lm_head=w(c.vocab, c.d_model),
    )
    ckpt.validate()
    return ckpt


def save_teacher(ckpt: TeacherCheckpoint, path) -> None:
    ckpt.validate()
    meta = {"kind": "teacher", "config": ckpt.config.to_dict()}
    write_container(path, ckpt.named_tensors(), meta)


def _teacher_names(meta: dict | None) -> set | None:
    """Every tensor name the teacher checkpoint described by `meta` holds."""
    if meta is None or meta.get("kind") != "teacher":
        return None
    c = TransformerConfig.from_dict(meta["config"])
    per_layer = [name for f, name in _LAYER_TENSORS.items()
                 if c.qk_norm or f not in _QK_NORM_FIELDS]
    return {f"layers.{i}.{name}" for i in range(c.n_layers)
            for name in per_layer} | {"embedding", "final_norm", "lm_head"}


def load_teacher(path) -> TeacherCheckpoint:
    tensors, meta = read_container(path, expected=_teacher_names)
    if meta is None or meta.get("kind") != "teacher":
        raise ValueError(f"{path} is not a teacher checkpoint")
    c = TransformerConfig.from_dict(meta["config"])
    layers = [TeacherLayer(**{f: tensors.get(f"layers.{i}.{name}")
                              for f, name in _LAYER_TENSORS.items()})
              for i in range(c.n_layers)]
    ckpt = TeacherCheckpoint(
        config=c,
        layers=layers,
        embedding=tensors["embedding"],
        final_norm=tensors["final_norm"],
        lm_head=tensors["lm_head"],
    )
    ckpt.validate()
    return ckpt
