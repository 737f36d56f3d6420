"""The one model schema: a residual stack of mixer layers, its container
metadata, shape map and checks, toy teacher generation, and teacher save/load.

Every layer pairs a mixer with a SwiGLU MLP and two RMSNorms. The mixer's
kind is "gqa" (teacher attention), "mla" (latent attention) or "gdn" (gated
delta rule); `MIXERS` maps each to its weights class. A teacher is a model
whose layers are all "gqa"; conversion and assembly make the other two kinds.
Teacher and hybrid containers are checked, written and read by the same pure
functions here; `save_teacher`/`load_teacher` and `hybrid.save_hybrid`/
`load_hybrid` wrap their own module's `write_container`/`read_container`.

Tensor naming: a gqa mixer under `layers.{i}.attn.` (`wq, wk, wv, wo`, and
`q_norm, k_norm` with qk_norm), any other mixer under `{kind}.{i}.`;
`layers.{i}.mlp.{gate,up,down}`, `layers.{i}.{norm_attn,norm_mlp}`, plus
`embedding`, `final_norm`, `lm_head`.
"""

from dataclasses import dataclass, fields

import numpy as np

from .container import ContainerError, read_container, write_container
from .gdn import GdnBlockWeights, GdnConfig
from .mla import MlaBlockWeights, MlaConfig
from .numerics import f32_resolution
from .teacher import GqaWeights, TransformerConfig

MIXERS = {"gqa": GqaWeights, "mla": MlaBlockWeights, "gdn": GdnBlockWeights}


@dataclass
class HybridLayout:
    """Which layers are latent attention; every other layer is gated delta."""
    n_layers: int
    mla_indices: tuple

    def __post_init__(self):
        self.mla_indices = tuple(sorted(int(i) for i in self.mla_indices))
        if self.n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {self.n_layers}")
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
        d = dict(d)
        kind = d.pop("linear_kind", "gdn")
        if kind != "gdn":
            raise ValueError(f"unsupported linear_kind {kind!r}; only 'gdn' exists")
        return cls(d.pop("n_layers"), d.pop("mla_indices"), **d)


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
    mla_cfg: MlaConfig | None = None  # when a layer is "mla"
    gdn_cfg: GdnConfig | None = None  # when a layer is "gdn"

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


def model_shapes(c: TransformerConfig, kinds: list, mla_cfg: MlaConfig | None = None,
                 gdn_cfg: GdnConfig | None = None) -> dict:
    """Tensor name -> shape, in container order, of every tensor of a stack
    with config `c` whose layer i has kind kinds[i]."""
    d, h = c.d_model, c.mlp_hidden
    mixers = {"gqa": GqaWeights.shapes(c)}
    if mla_cfg is not None:
        mixers["mla"] = MlaBlockWeights.shapes(mla_cfg, d)
    if gdn_cfg is not None:
        mixers["gdn"] = GdnBlockWeights.shapes(gdn_cfg)
    shared = dict(zip(SHARED_LAYER_TENSORS.values(), ((h, d), (h, d), (d, h), (d,), (d,))))
    shapes = {}
    for i, kind in enumerate(kinds):
        if kind not in mixers:
            raise ValueError(f"layer {i} has kind {kind!r}, but no {kind}_cfg is given")
        shapes.update({f"{mixer_prefix(kind, i)}.{f}": shape
                       for f, shape in mixers[kind].items()})
        shapes.update({f"layers.{i}.{name}": shape for name, shape in shared.items()})
    shapes.update(embedding=(c.vocab, d), final_norm=(d,), lm_head=(c.vocab, d))
    return shapes


def validate_model(model: HybridModel) -> None:
    """Raise ValueError unless `model` holds exactly the tensors that its
    config, layer kinds and mixer configs name, each at its shape and finite."""
    c, kinds = model.config, [ly.kind for ly in model.layers]
    if len(kinds) != c.n_layers:
        raise ValueError(f"config has {c.n_layers} layers, the model {len(kinds)}")
    want = model_shapes(c, kinds, model.mla_cfg, model.gdn_cfg)
    tensors = model.named_tensors()
    extra = sorted(set(tensors) - set(want))
    if extra:
        raise ValueError(f"unexpected tensor {extra[0]}")
    for name, shape in want.items():
        t = tensors.get(name)
        if t is None:
            raise ValueError(f"tensor {name} missing")
        if t.shape != shape:
            raise ValueError(f"tensor {name}: shape {t.shape}, expected {shape}")
        if not np.isfinite(t).all():
            raise ValueError(f"tensor {name} has non-finite values")


def model_meta(model: HybridModel, kind: str) -> dict:
    """The `__meta__` of `model`'s container, once `validate_model` passes:
    kind "teacher" for a stack of gqa layers, "hybrid" for a stack of mla
    and gdn layers. A ValueError for a mix, or unless the kind is `kind`."""
    validate_model(model)
    kinds = [ly.kind for ly in model.layers]
    meta = {"kind": "teacher", "config": model.config.to_dict()}
    if "gqa" not in kinds:
        meta.update(kind="hybrid", layout=HybridLayout(len(kinds), [
            i for i, k in enumerate(kinds) if k == "mla"]).to_dict(),
            mla_cfg=model.mla_cfg and model.mla_cfg.to_dict(),
            gdn_cfg=model.gdn_cfg and model.gdn_cfg.to_dict())
    elif set(kinds) != {"gqa"}:
        raise ValueError(f"layers of kinds {kinds} mix gqa with other mixers")
    if meta["kind"] != kind:
        raise ValueError(f"a {meta['kind']} model cannot be saved as a {kind}")
    return meta


_META_FIELDS = {"teacher": {"kind", "config"},
                "hybrid": {"kind", "config", "layout", "mla_cfg", "gdn_cfg"}}


def read_meta(meta, kind: str | None = None) -> tuple:
    """(config, layer kinds, mla_cfg, gdn_cfg) of a teacher or hybrid
    container's metadata, of kind `kind` when given. Another kind, an
    unknown, missing or out-of-range field, or a layout whose layer count is
    not the config's, raises ContainerError."""
    allowed = (kind,) if kind else tuple(_META_FIELDS)
    if not isinstance(meta, dict) or meta.get("kind") not in allowed:
        raise ContainerError(f"the container is not a {' or '.join(allowed)} checkpoint")
    try:
        unknown = sorted(set(meta) - _META_FIELDS[meta["kind"]])
        if unknown:
            raise ValueError(f"unknown field {unknown[0]!r}")
        c = TransformerConfig.from_dict(meta["config"])
        if meta["kind"] == "teacher":
            return c, ["gqa"] * c.n_layers, None, None
        layout = HybridLayout.from_dict(meta["layout"])
        if layout.n_layers != c.n_layers:
            raise ValueError(f"layout has {layout.n_layers} layers, config {c.n_layers}")
        mla_cfg, gdn_cfg = (cls.from_dict(meta[key]) if meta.get(key) is not None else None
                            for cls, key in ((MlaConfig, "mla_cfg"), (GdnConfig, "gdn_cfg")))
        return c, [layout.kind(i) for i in range(c.n_layers)], mla_cfg, gdn_cfg
    except KeyError as e:
        raise ContainerError(f"metadata lacks field {e}") from e
    except (TypeError, ValueError) as e:
        raise ContainerError(f"metadata: {e}") from e


def container_shapes(meta) -> dict:
    """What `read_container` checks a teacher or hybrid file against."""
    return model_shapes(*read_meta(meta))


def build_model(tensors: dict, c: TransformerConfig, kinds: list,
                mla_cfg: MlaConfig | None = None,
                gdn_cfg: GdnConfig | None = None) -> HybridModel:
    """The model of config `c` and layer kinds `kinds` that holds the tensors
    `model_shapes` names, taken from `tensors`."""
    names = model_shapes(c, kinds, mla_cfg, gdn_cfg)
    layers = []
    for i, k in enumerate(kinds):
        prefix = mixer_prefix(k, i)
        mixer = MIXERS[k](**{f.name: tensors[f"{prefix}.{f.name}"] for f in fields(MIXERS[k])
                             if f"{prefix}.{f.name}" in names})
        layers.append(HybridLayer(k, mixer, **{
            f: tensors[f"layers.{i}.{name}"] for f, name in SHARED_LAYER_TENSORS.items()}))
    return HybridModel(c, layers, tensors["embedding"], tensors["final_norm"],
                       tensors["lm_head"], mla_cfg, gdn_cfg)


def gen_toy_teacher(config: TransformerConfig, seed: int) -> HybridModel:
    """Deterministic toy teacher: PCG64(seed) draws every matrix in container
    order, normal at std 1/sqrt(fan_in); every norm is ones."""
    rng = np.random.default_rng(seed)
    kinds = ["gqa"] * config.n_layers
    tensors = {name: f32_resolution(rng.normal(0.0, 1.0 / np.sqrt(shape[1]), size=shape))
               if len(shape) == 2 else np.ones(shape)
               for name, shape in model_shapes(config, kinds).items()}
    return build_model(tensors, config, kinds)


def save_teacher(model: HybridModel, path) -> None:
    write_container(path, model.named_tensors(), model_meta(model, "teacher"))


def load_teacher(path) -> HybridModel:
    tensors, meta = read_container(path, expected=container_shapes)
    return build_model(tensors, *read_meta(meta, "teacher"))
