import json

import numpy as np
import pytest

from hybridkit.cli import main
from hybridkit.container import read_container, write_container


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A full pipeline run: teacher -> pure models -> hybrid."""
    d = tmp_path_factory.mktemp("cli")
    cfg = {"d_model": 32, "n_layers": 4, "n_q_heads": 4, "n_kv_heads": 2,
           "head_dim": 8, "vocab": 64, "mlp_hidden": 64}
    (d / "teacher.json").write_text(json.dumps(cfg))
    (d / "layout.json").write_text(json.dumps({"n_layers": 4, "mla_indices": [1, 3]}))
    (d / "mla.json").write_text(json.dumps(
        {"r_q": 16, "r_kv": 8, "d_qk_nope": 4, "d_qk_rope": 4, "d_v": 8,
         "n_heads": 4}))
    assert main(["gen-teacher", "--config", str(d / "teacher.json"),
                 "--seed", "0", "--out", str(d / "t.ckpt")]) == 0
    assert main(["convert-mla", "--teacher", str(d / "t.ckpt"),
                 "--mla-config", str(d / "mla.json"),
                 "--out", str(d / "mla.ckpt")]) == 0
    assert main(["convert-gdn", "--teacher", str(d / "t.ckpt"),
                 "--heads", "2", "--out", str(d / "gdn.ckpt")]) == 0
    assert main(["assemble", "--mla", str(d / "mla.ckpt"),
                 "--gdn", str(d / "gdn.ckpt"), "--layout", str(d / "layout.json"),
                 "--out", str(d / "hybrid.ckpt")]) == 0
    return d


class TestPipeline:
    def test_artifacts_exist(self, workdir):
        for name in ("t.ckpt", "mla.ckpt", "gdn.ckpt", "hybrid.ckpt"):
            assert (workdir / name).exists()

    def test_verify_passes_on_fresh_conversion(self, workdir, capsys):
        rc = main(["verify", "--hybrid", str(workdir / "hybrid.ckpt"),
                   "--teacher", str(workdir / "t.ckpt")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out

    def test_verify_json_is_single_document(self, workdir, capsys):
        rc = main(["verify", "--hybrid", str(workdir / "hybrid.ckpt"),
                   "--teacher", str(workdir / "t.ckpt"), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert len(doc["checks"]) == 4

    def test_train_stage2_and_report(self, workdir, tmp_path, capsys):
        report = tmp_path / "steps.jsonl"
        rc = main(["train", "--stage", "2", "--student", str(workdir / "hybrid.ckpt"),
                   "--teacher", str(workdir / "t.ckpt"), "--steps", "3",
                   "--batch", "2", "--context-len", "32", "--data-size", "4",
                   "--out", str(tmp_path / "trained.ckpt"),
                   "--report", str(report), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["steps"] == 3
        lines = [json.loads(line) for line in report.read_text().splitlines()]
        assert len(lines) == 4 and "summary" in lines[-1]

    def test_eval_niah_runs(self, workdir, capsys):
        rc = main(["eval-niah", "--model", str(workdir / "hybrid.ckpt"),
                   "--haystack-len", "24", "--items", "4", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "24" in doc["accuracy"]


class TestReports:
    def test_kv_report_table1(self, tmp_path, capsys):
        cfg = {"d_model": 2048, "n_layers": 16, "n_q_heads": 32, "n_kv_heads": 8,
               "head_dim": 64, "vocab": 128256, "mlp_hidden": 8192}
        mla = {"r_q": 256, "r_kv": 128, "d_qk_nope": 32, "d_qk_rope": 32,
               "d_v": 64, "n_heads": 32}
        layout = {"n_layers": 16, "mla_indices": [1, 5, 10, 14]}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        (tmp_path / "m.json").write_text(json.dumps(mla))
        (tmp_path / "l.json").write_text(json.dumps(layout))
        rc = main(["kv-report", "--layout", str(tmp_path / "l.json"),
                   "--teacher-config", str(tmp_path / "c.json"),
                   "--mla-config", str(tmp_path / "m.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3.9%" in out

    def test_mem_plan_16gb(self, capsys):
        rc = main(["mem-plan", "--tokens", "65536", "--vocab", "128256"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "16,810,770,432" in out
        assert "≈16 GB" in out

    def test_mem_plan_techniques(self, capsys):
        rc = main(["mem-plan", "--tokens", "65536", "--vocab", "128256",
                   "--techniques", "hidden-kl,chunked-ce", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"]["student_logits"] == 0
        assert doc["rows"]["teacher_logits"] == 0


class TestErrors:
    def test_unknown_flag_exits_one(self, capsys):
        rc = main(["mem-plan", "--tokens", "4", "--vocab", "4", "--frobnicate"])
        assert rc == 1
        assert "--frobnicate" in capsys.readouterr().err

    def test_missing_file_exits_one(self, capsys):
        rc = main(["convert-gdn", "--teacher", "/nonexistent.ckpt",
                   "--out", "/tmp/x.ckpt"])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_bad_technique_exits_one(self, capsys):
        rc = main(["mem-plan", "--tokens", "4", "--vocab", "4",
                   "--techniques", "nope"])
        assert rc == 1

    def test_wrong_checkpoint_kind_exits_one(self, workdir, capsys):
        rc = main(["convert-gdn", "--teacher", str(workdir / "hybrid.ckpt"),
                   "--out", "/tmp/x.ckpt"])
        assert rc == 1

    def test_qk_norm_teacher_conversion_exits_one(self, tmp_path, capsys):
        cfg = {"d_model": 32, "n_layers": 2, "n_q_heads": 4, "n_kv_heads": 2,
               "head_dim": 8, "vocab": 64, "mlp_hidden": 64, "qk_norm": True}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["gen-teacher", "--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "t.ckpt")]) == 0
        for cmd in ("convert-mla", "convert-gdn"):
            rc = main([cmd, "--teacher", str(tmp_path / "t.ckpt"),
                       "--out", str(tmp_path / "x.ckpt")])
            assert rc == 1
            assert "qk_norm" in capsys.readouterr().err
            assert not (tmp_path / "x.ckpt").exists()

    def test_missing_teacher_tensor_exits_one(self, workdir, tmp_path, capsys):
        tensors, meta = read_container(workdir / "t.ckpt")
        del tensors["layers.1.attn.wv"]
        write_container(tmp_path / "t.ckpt", tensors, meta)
        rc = main(["convert-mla", "--teacher", str(tmp_path / "t.ckpt"),
                   "--mla-config", str(workdir / "mla.json"),
                   "--out", str(tmp_path / "x.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "layers.1.attn.wv" in err and "t.ckpt" in err
