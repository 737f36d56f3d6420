import json

import numpy as np
import pytest

from hybridkit.checkpoint import (TransformerConfig, gen_toy_teacher,
                                  load_teacher, save_teacher)
from hybridkit.container import ContainerError, read_container, write_container


class TestContainerFormat:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        tensors = {"a": np.float32(rng.normal(size=(3, 5))).astype(np.float64),
                   "b.c": np.float32(rng.normal(size=7)).astype(np.float64)}
        path = tmp_path / "t.ckpt"
        write_container(path, tensors, meta={"kind": "raw"})
        loaded, meta = read_container(path)
        assert meta == {"kind": "raw"}
        for k in tensors:
            assert np.array_equal(loaded[k], tensors[k])

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
        with open(path, "rb") as f:
            hlen = int.from_bytes(f.read(8), "little")
            index = json.loads(f.read(hlen))
            payload = f.read()
        index["a"]["byte_length"] = 12
        header = json.dumps(index).encode()
        with open(path, "wb") as f:
            f.write(len(header).to_bytes(8, "little"))
            f.write(header)
            f.write(payload)
        with pytest.raises(ContainerError, match="byte_length"):
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
            tensors, _ = read_container(path, expected={"known"})
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
        ckpt.validate()
        assert ckpt.layers[0].wq.shape == (32, 32)
        assert ckpt.layers[0].wk.shape == (16, 32)

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
        assert TransformerConfig.from_json_file(path) == toy_config
