import hashlib
import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from hybridkit.checkpoint import (TransformerConfig, gen_toy_teacher,
                                  load_teacher, save_teacher, validate_teacher)
from hybridkit.container import ContainerError, read_container, write_container
from hybridkit.hybrid import (HybridLayout, assemble_hybrid, convert_teacher_to_gdn,
                              convert_teacher_to_mla, load_hybrid, save_hybrid)


def _edit_index(path, name, **fields):
    """Rewrite the header entry of tensor `name`, keeping the payload."""
    with open(path, "rb") as f:
        hlen = int.from_bytes(f.read(8), "little")
        index = json.loads(f.read(hlen))
        payload = f.read()
    index[name].update(fields)
    header = json.dumps(index).encode()
    with open(path, "wb") as f:
        f.write(len(header).to_bytes(8, "little"))
        f.write(header)
        f.write(payload)


class TestContainerFormat:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "t.ckpt"
        write_container(path, {"w": np.array([1.0, -2.0, 0.5]),
                               "b": np.array([[3.0], [0.25]])}, meta={"kind": "raw"})
        header = (b'{"w": {"dtype": "f32", "shape": [3], "byte_offset": 0, "byte_length": 12}, '
                  b'"b": {"dtype": "f32", "shape": [2, 1], "byte_offset": 16, "byte_length": 8}, '
                  b'"__meta__": {"kind": "raw"}}')
        assert len(header) == 180   # 4 spaces bring 8 + 180 to a multiple of 8
        expected = ((184).to_bytes(8, "little") + header + b" " * 4
                    + struct.pack("<3f", 1.0, -2.0, 0.5) + b"\x00" * 4
                    + struct.pack("<2f", 3.0, 0.25))
        assert path.read_bytes() == expected

    def test_models_rewrite_byte_identical(self, tmp_path, toy_teacher, toy_mla_config,
                                           toy_gdn_config):
        hybrid = assemble_hybrid(convert_teacher_to_mla(toy_teacher, toy_mla_config, seed=1),
                                 convert_teacher_to_gdn(toy_teacher, toy_gdn_config, seed=2),
                                 HybridLayout(4, (1, 3)))
        for model, save, load in ((toy_teacher, save_teacher, load_teacher),
                                  (hybrid, save_hybrid, load_hybrid)):
            first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
            save(model, first)
            save(load(first), second)
            assert first.read_bytes() == second.read_bytes()

    def test_round_trip_bit_exact(self, tmp_path, rng):
        tensors = {"a": np.float32(rng.normal(size=(3, 5))).astype(np.float64),
                   "b.c": np.float32(rng.normal(size=7)).astype(np.float64)}
        path = tmp_path / "t.ckpt"
        write_container(path, tensors, meta={"kind": "raw"})
        loaded, meta = read_container(path)
        assert meta == {"kind": "raw"}
        for k in tensors:
            assert np.array_equal(loaded[k], tensors[k])

    def test_scalar_keeps_its_shape(self, tmp_path):
        path = tmp_path / "t.ckpt"
        write_container(path, {"s": np.array(2.5), "v": np.ones(2)})
        loaded, _ = read_container(path, expected={"s": (), "v": (2,)})
        assert loaded["s"].shape == () and loaded["s"] == 2.5
        with open(path, "rb") as f:
            index = json.loads(f.read(int.from_bytes(f.read(8), "little")))
        assert index["s"]["shape"] == [] and index["s"]["byte_length"] == 4

    def test_offsets_aligned(self, tmp_path, rng):
        tensors = {"odd": np.ones(3), "next": np.ones(5)}
        path = tmp_path / "t.ckpt"
        write_container(path, tensors)
        with open(path, "rb") as f:
            hlen = int.from_bytes(f.read(8), "little")
            index = json.loads(f.read(hlen))
        for entry in index.values():
            assert entry["byte_offset"] % 8 == 0
            assert entry["byte_length"] == 4 * int(np.prod(entry["shape"]))

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        write_container(path, {"a": np.ones(100)})
        data = path.read_bytes()
        path.write_bytes(data[:-40])
        with pytest.raises(ContainerError, match="payload shorter than index"):
            read_container(path)

    def test_byte_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        write_container(path, {"a": np.ones(4)})
        _edit_index(path, "a", byte_length=12)
        with pytest.raises(ContainerError, match="byte_length"):
            read_container(path)

    def test_shape_overflowing_int64_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        write_container(path, {"a": np.ones(2)})
        _edit_index(path, "a", shape=[2**32, 2**32], byte_length=0)   # wraps to 0 in int64
        with pytest.raises(ContainerError, match="tensor 'a': byte_length 0"):
            read_container(path)

    @pytest.mark.parametrize("fields", [
        {"shape": [-1], "byte_length": -4},   # would load as the whole payload
        {"byte_offset": -8},
        {"byte_length": -8},
    ])
    def test_negative_index_field_rejected(self, tmp_path, fields):
        path = tmp_path / "t.ckpt"
        write_container(path, {"a": np.ones(2), "b": np.ones(4)})
        _edit_index(path, "b", **fields)
        with pytest.raises(ContainerError, match="tensor 'b': negative"):
            read_container(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        body = b"this is not json"
        path.write_bytes(len(body).to_bytes(8, "little") + body)
        with pytest.raises(ContainerError, match="malformed JSON header"):
            read_container(path)

    def test_nonfinite_payload_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        arr = np.ones(4)
        arr[2] = np.inf
        write_container(path, {"a": arr})
        with pytest.raises(ContainerError, match="non-finite"):
            read_container(path)

    def test_unknown_extra_tensor_warns_but_loads(self, tmp_path):
        path = tmp_path / "t.ckpt"
        write_container(path, {"known": np.ones(2), "mystery": np.ones(3)})
        with pytest.warns(UserWarning, match="mystery"):
            tensors, _ = read_container(path, expected={"known": (2,)})
        assert "mystery" in tensors


class TestTeacherCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path, toy_teacher):
        path = tmp_path / "teacher.ckpt"
        save_teacher(toy_teacher, path)
        loaded = load_teacher(path)
        for name, t in toy_teacher.named_tensors().items():
            assert np.array_equal(loaded.named_tensors()[name], t), name

    def test_missing_tensor_named(self, tmp_path, toy_teacher):
        path = tmp_path / "teacher.ckpt"
        save_teacher(toy_teacher, path)
        tensors, meta = read_container(path)
        del tensors["layers.1.attn.wv"]
        write_container(path, tensors, meta)
        with pytest.raises(ValueError, match=r"teacher\.ckpt.*layers\.1\.attn\.wv"):
            load_teacher(path)

    def test_extra_tensor_warns_and_loads(self, tmp_path, toy_teacher):
        path = tmp_path / "teacher.ckpt"
        save_teacher(toy_teacher, path)
        tensors, meta = read_container(path)
        write_container(path, {**tensors, "mystery": np.ones(3)}, meta)
        with pytest.warns(UserWarning, match="mystery"):
            loaded = load_teacher(path)
        assert loaded.named_tensors().keys() == toy_teacher.named_tensors().keys()

    def test_gen_deterministic(self, toy_config):
        a = gen_toy_teacher(toy_config, seed=7)
        b = gen_toy_teacher(toy_config, seed=7)
        for name, t in a.named_tensors().items():
            assert np.array_equal(b.named_tensors()[name], t)
        c = gen_toy_teacher(toy_config, seed=8)
        assert not np.array_equal(a.embedding, c.embedding)

    def test_shapes_validate(self):
        cfg = TransformerConfig(d_model=32, n_layers=4, n_q_heads=4, n_kv_heads=2,
                                head_dim=8, vocab=64, mlp_hidden=64)
        ckpt = gen_toy_teacher(cfg, 0)
        validate_teacher(ckpt)
        assert ckpt.layers[0].mixer.wq.shape == (32, 32)
        assert ckpt.layers[0].mixer.wk.shape == (16, 32)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TransformerConfig(d_model=32, n_layers=4, n_q_heads=3, n_kv_heads=2,
                              head_dim=8, vocab=64, mlp_hidden=64)
        with pytest.raises(ValueError):
            TransformerConfig(d_model=0, n_layers=4, n_q_heads=4, n_kv_heads=2,
                              head_dim=8, vocab=64, mlp_hidden=64)

    def test_config_json_round_trip(self, tmp_path, toy_config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(toy_config.to_dict()))
        assert TransformerConfig.from_dict(json.loads(path.read_text())) == toy_config

    def test_file_bytes_pinned_by_digest(self, tmp_path, toy_config, toy_gdn_config):
        # Whole files, weights included: a refactor of the schema or of
        # generation and conversion must leave every byte as it was. Latent
        # attention is left out, as its SVD may differ between BLAS builds.
        teacher = gen_toy_teacher(toy_config, 0)
        models = {"teacher": teacher,
                  "teacher_qk_norm": gen_toy_teacher(replace(toy_config, qk_norm=True), 0),
                  "gdn": convert_teacher_to_gdn(teacher, toy_gdn_config, seed=20)}
        digests = {}
        for name, model in models.items():
            path = tmp_path / f"{name}.ckpt"
            (save_hybrid if name == "gdn" else save_teacher)(model, path)
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digests == {
            "teacher": "acfcdf6d16ec08549a17c1dc7144bdad8d62d3c4addfa9ebd5414f3737b6ad0d",
            "teacher_qk_norm":
                "c2d8baaa0c1e3480150c449a39c8cfcfe7dd804652e2c96be4de16e689373ce1",
            "gdn": "68e552a19e9214391d48d505b125fa8eb7d6c122da96ae42b0af1a4e8b9bed5a",
        }
