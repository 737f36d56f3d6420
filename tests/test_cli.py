import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hybridkit
from hybridkit.checkpoint import load_teacher
from hybridkit.cli import main
from hybridkit.container import read_container, write_container
from hybridkit.hybrid import load_hybrid
from hybridkit.synthetic import gen_ngram_corpus
from hybridkit.train import argmax_agreement


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A full pipeline run: teacher -> pure models -> hybrid."""
    d = tmp_path_factory.mktemp("cli")
    cfg = {"d_model": 32, "n_layers": 4, "n_q_heads": 4, "n_kv_heads": 2,
           "head_dim": 8, "vocab": 64, "mlp_hidden": 64}
    (d / "teacher.json").write_text(json.dumps(cfg))
    (d / "layout.json").write_text(json.dumps({"n_layers": 4, "mla_indices": [1, 3]}))
    (d / "layout3.json").write_text(json.dumps({"n_layers": 3, "mla_indices": [1]}))
    (d / "layout8.json").write_text(json.dumps({"n_layers": 8, "mla_indices": [1, 3, 5, 7]}))
    mla = {"r_q": 16, "r_kv": 8, "d_qk_nope": 4, "d_qk_rope": 4, "d_v": 8, "n_heads": 4}
    (d / "mla.json").write_text(json.dumps(mla))
    # Valid as a config, but beyond the teacher's query rank at conversion.
    (d / "mla_big_rq.json").write_text(json.dumps({**mla, "r_q": 999}))
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

    def test_train_stage2_scores_agreement_on_held_out_data(self, workdir,
                                                           tmp_path, capsys):
        rc = main(["train", "--stage", "2", "--student", str(workdir / "hybrid.ckpt"),
                   "--teacher", str(workdir / "t.ckpt"), "--steps", "2",
                   "--batch", "2", "--context-len", "32", "--data-size", "4",
                   "--out", str(tmp_path / "trained.ckpt"), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        drawn = gen_ngram_corpus(64, 8, 32, seed=0)
        # The training examples are those a 4-example draw gives.
        for a, b in zip(drawn[:4], gen_ngram_corpus(64, 4, 32, seed=0)):
            assert np.array_equal(a.tokens, b.tokens)
        held_out = argmax_agreement(load_hybrid(tmp_path / "trained.ckpt"),
                                    load_teacher(workdir / "t.ckpt"), drawn[4:], 32)
        assert doc["metrics"]["argmax_agreement"] == held_out

    def test_train_stage2_audit_without_teacher(self, workdir, capsys):
        rc = main(["train", "--stage", "2", "--student", str(workdir / "hybrid.ckpt"),
                   "--steps", "1", "--batch", "2", "--context-len", "32",
                   "--data-size", "4", "--audit-probes", "4", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.isfinite(doc["metrics"]["grad_audit_max_rel_err"])

    def test_nonfinite_loss_is_strict_json_null(self, workdir, tmp_path, capsys,
                                                monkeypatch):
        def load_with_nan(path):
            model = load_hybrid(path)
            model.layers[0].mixer.w_o[0, 0] = np.nan
            return model

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        monkeypatch.setattr("hybridkit.cli.load_hybrid", load_with_nan)
        report = tmp_path / "steps.jsonl"
        with np.errstate(invalid="ignore", over="ignore"):
            rc = main(["train", "--stage", "2", "--student",
                       str(workdir / "hybrid.ckpt"), "--steps", "2", "--batch", "1",
                       "--context-len", "32", "--data-size", "1",
                       "--report", str(report), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["first_loss"] is None and doc["final_loss"] is None
        lines = [json.loads(line, parse_constant=reject)
                 for line in report.read_text().splitlines()]
        assert [rec["loss"] for rec in lines[:-1]] == [None, None]

    def test_train_on_niah_data(self, workdir, capsys):
        rc = main(["train", "--stage", "2", "--student", str(workdir / "hybrid.ckpt"),
                   "--data", "niah", "--steps", "1", "--batch", "2",
                   "--context-len", "32", "--data-size", "2", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["steps"] == 1 and np.isfinite(doc["final_loss"])

    def test_convert_mla_yarn_factor(self, workdir, tmp_path, capsys):
        out = tmp_path / "yarn.ckpt"
        rc = main(["convert-mla", "--teacher", str(workdir / "t.ckpt"),
                   "--mla-config", str(workdir / "mla.json"), "--yarn-factor", "2",
                   "--out", str(out), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["mla_config"]["yarn_factor"] == 2.0
        assert load_hybrid(out).mla_cfg.yarn_factor == 2.0

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


TRAIN = ["train", "--stage", "2", "--student", "{d}/hybrid.ckpt", "--steps", "1",
         "--batch", "1", "--data-size", "1", "--context-len", "32"]


# Each bad value, and the flag the error must name.
BAD_FLAGS = [
    (TRAIN + ["--steps", "0"], "--steps"),
    (TRAIN + ["--data-size", "0"], "--data-size"),
    (TRAIN + ["--batch", "0"], "--batch"),
    (TRAIN + ["--lr", "0"], "--lr"),
    (TRAIN + ["--kl-chunk", "0"], "--kl-chunk"),
    (TRAIN + ["--context-len", "1"], "--context-len"),
    (TRAIN + ["--data", "niah", "--needles", "40"], "--needles"),
    (["convert-mla", "--teacher", "{d}/t.ckpt", "--yarn-factor", "0.5",
      "--out", "{out}"], "--yarn-factor"),
    (["convert-mla", "--teacher", "{d}/t.ckpt", "--cache-per-token", "2",
      "--out", "{out}"], "--cache-per-token"),
    (["convert-mla", "--teacher", "{d}/t.ckpt", "--mla-config", "{d}/mla_big_rq.json",
      "--out", "{out}"], "--mla-config"),
    (["convert-gdn", "--teacher", "{d}/t.ckpt", "--heads", "5", "--out", "{out}"],
     "--heads"),
    (["eval-niah", "--model", "{d}/hybrid.ckpt", "--haystack-len", "1"],
     "--haystack-len"),
    (["eval-niah", "--model", "{d}/hybrid.ckpt", "--items", "0"], "--items"),
    (["mem-plan", "--tokens", "0", "--vocab", "4"], "--tokens"),
    (["assemble", "--mla", "{d}/gdn.ckpt", "--gdn", "{d}/mla.ckpt",
      "--layout", "{d}/layout.json", "--out", "{out}"], "--mla"),
    (["assemble", "--mla", "{d}/mla.ckpt", "--gdn", "{d}/gdn.ckpt",
      "--layout", "{d}/layout3.json", "--out", "{out}"], "--layout"),
    (["mem-plan", "--tokens", "4", "--vocab", "0"], "--vocab"),
    (["kv-report", "--layout", "{d}/layout8.json", "--teacher-config", "{d}/teacher.json",
      "--mla-config", "{d}/mla.json"], "--layout"),
]


def _ids(flags):
    """Test ids: each flag, with -2, -3, ... on its repeats, so that a new
    case never renumbers the ids of the cases before it."""
    return [f if flags[:i].count(f) == 0 else f"{f}-{flags[:i].count(f) + 1}"
            for i, f in enumerate(flags)]


# Each bad config file: the flag that reads it, the file's content, and an
# argv in which the file replaces that flag's value.
KV_REPORT = ["kv-report", "--layout", "{d}/layout.json", "--teacher-config",
             "{d}/teacher.json", "--mla-config", "{d}/mla.json"]
BAD_CONFIG_FILES = [
    ("--config", {"d_model": 32, "n_layers": 4, "n_q_heads": 4, "n_kv_heads": 2,
                  "head_dim": 8, "vocab": 64, "mlp_hidden": 64, "bogus": 1},
     ["gen-teacher", "--config", "{d}/teacher.json", "--out", "{out}"]),
    ("--layout", {"n_layers": 4}, KV_REPORT),
    ("--mla-config", {"r_q": 0, "r_kv": 8, "d_qk_nope": 4, "d_qk_rope": 4,
                      "d_v": 8, "n_heads": 4},
     ["convert-mla", "--teacher", "{d}/t.ckpt", "--mla-config", "{d}/mla.json",
      "--out", "{out}"]),
    ("--teacher-config", {"d_model": 32, "n_layers": 0, "n_q_heads": 4,
                          "n_kv_heads": 2, "head_dim": 8, "vocab": 64,
                          "mlp_hidden": 64}, KV_REPORT),
    ("--layout", {"n_layers": 0, "mla_indices": []}, KV_REPORT),
]


# Each metadata edit that no loader may accept: the checkpoint it edits, the
# edit, and an argv in which the edited file replaces "{bad}".
CONVERT_GDN = ["convert-gdn", "--teacher", "{bad}", "--out", "{out}"]
EVAL_NIAH = ["eval-niah", "--model", "{bad}", "--haystack-len", "24", "--items", "4"]
BAD_METADATA = [
    ("t.ckpt", lambda meta: meta["config"].update(bogus=1), CONVERT_GDN),
    ("t.ckpt", lambda meta: meta.pop("config"), CONVERT_GDN),
    ("t.ckpt", lambda meta: meta["config"].pop("vocab"), CONVERT_GDN),
    ("hybrid.ckpt", lambda meta: meta.pop("layout"), EVAL_NIAH),
    ("hybrid.ckpt", lambda meta: meta["gdn_cfg"].update(bogus=2), EVAL_NIAH),
    ("gdn.ckpt", lambda meta: meta["layout"].update(n_layers=5), EVAL_NIAH),
]
BAD_METADATA_IDS = ["config_unknown_key", "no_config", "config_no_vocab", "no_layout",
                    "gdn_cfg_unknown_key", "layout_longer_than_config"]


class TestErrors:
    @pytest.mark.parametrize("flag, content, argv", BAD_CONFIG_FILES,
                             ids=_ids([flag for flag, _, _ in BAD_CONFIG_FILES]))
    def test_bad_config_file_exits_one_naming_it(self, workdir, tmp_path, capsys,
                                                flag, content, argv):
        # An unknown key, a missing key and out-of-range values.
        bad, out = tmp_path / "bad.json", tmp_path / "x.ckpt"
        bad.write_text(json.dumps(content))
        argv = [a.format(d=workdir, out=out) for a in argv]
        argv[argv.index(flag) + 1] = str(bad)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert flag in err and str(bad) in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", BAD_FLAGS,
                             ids=_ids([flag for _, flag in BAD_FLAGS]))
    def test_bad_flag_value_exits_one_naming_it(self, workdir, tmp_path, capsys,
                                               argv, flag):
        out = tmp_path / "x.ckpt"
        rc = main([a.format(d=workdir, out=out) for a in argv])
        assert rc == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, edit, argv", BAD_METADATA, ids=BAD_METADATA_IDS)
    def test_bad_metadata_exits_one_naming_it(self, workdir, tmp_path, capsys,
                                              name, edit, argv):
        tensors, meta = read_container(workdir / name)
        edit(meta)
        bad, out = tmp_path / name, tmp_path / "x.ckpt"
        write_container(bad, tensors, meta)
        assert main([a.format(bad=bad, out=out) for a in argv]) == 1
        err = capsys.readouterr().err
        assert argv[argv.index("{bad}") - 1] in err and str(bad) in err
        assert "Traceback" not in err
        assert not out.exists()

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
        assert "--techniques" in capsys.readouterr().err

    def test_wrong_checkpoint_kind_exits_one(self, workdir, capsys):
        rc = main(["convert-gdn", "--teacher", str(workdir / "hybrid.ckpt"),
                   "--out", "/tmp/x.ckpt"])
        assert rc == 1
        rc = main(["train", "--stage", "2", "--student", str(workdir / "t.ckpt")])
        assert rc == 1
        assert "is not a hybrid checkpoint" in capsys.readouterr().err

    def test_consecutive_skipped_steps_exit_two(self, workdir):
        # In a subprocess: in-process, pytest turns the overflow's
        # RuntimeWarning into an error before the run can skip a step.
        src = str(Path(hybridkit.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        run = subprocess.run(
            [sys.executable, "-m", "hybridkit.cli", "train", "--stage", "2",
             "--student", str(workdir / "gdn.ckpt"), "--steps", "8",
             "--context-len", "16", "--data-size", "4", "--batch", "1",
             "--lr", "1e30"], capture_output=True, text=True, env=env, timeout=300)
        assert run.returncode == 2, run.stderr
        assert "consecutive optimizer steps skipped" in run.stderr

    def test_diverged_run_writes_no_checkpoint(self, workdir, tmp_path):
        # In a subprocess, as in test_consecutive_skipped_steps_exit_two. The
        # lr overflows the float32 weights in one step; the save must refuse them.
        src = str(Path(hybridkit.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = tmp_path / "blown.ckpt"
        run = subprocess.run(
            [sys.executable, "-m", "hybridkit.cli", "train", "--stage", "2",
             "--student", str(workdir / "gdn.ckpt"), "--steps", "1",
             "--context-len", "16", "--data-size", "4", "--batch", "1",
             "--lr", "1e39", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=300)
        assert run.returncode == 2, run.stderr
        assert "tensor gdn.0.w_q has non-finite values" in run.stderr
        assert not out.exists()

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

    def test_wrong_shape_teacher_tensor_exits_one(self, workdir, tmp_path, capsys):
        tensors, meta = read_container(workdir / "t.ckpt")
        tensors["layers.0.attn.wq"] = tensors["layers.0.attn.wq"][:, :-1]
        write_container(tmp_path / "bad_shape.ckpt", tensors, meta)
        rc = main(["convert-gdn", "--teacher", str(tmp_path / "bad_shape.ckpt"),
                   "--out", str(tmp_path / "x.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "layers.0.attn.wq" in err and "bad_shape.ckpt" in err
        assert "(32, 31)" in err and "(32, 32)" in err

    def test_non_finite_teacher_tensor_exits_one(self, workdir, tmp_path, capsys):
        tensors, meta = read_container(workdir / "t.ckpt")
        tensors["layers.2.mlp.up"][3, 5] = np.nan
        write_container(tmp_path / "nan.ckpt", tensors, meta)
        rc = main(["convert-gdn", "--teacher", str(tmp_path / "nan.ckpt"),
                   "--out", str(tmp_path / "x.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "layers.2.mlp.up" in err and "non-finite" in err
        assert err.count("--teacher") == 1 and err.count("nan.ckpt") == 1

    def test_wrong_shape_hybrid_tensor_exits_one(self, workdir, tmp_path, capsys):
        tensors, meta = read_container(workdir / "hybrid.ckpt")
        tensors["mla.1.w_kb"] = tensors["mla.1.w_kb"][:, :-1]
        write_container(tmp_path / "h.ckpt", tensors, meta)
        rc = main(["eval-niah", "--model", str(tmp_path / "h.ckpt"),
                   "--haystack-len", "24", "--items", "4"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "mla.1.w_kb" in err and "h.ckpt" in err and "(16, 7)" in err
        # A truncated file names the flag and the file, each once.
        (tmp_path / "cut.ckpt").write_bytes((workdir / "hybrid.ckpt").read_bytes()[:100])
        rc = main(["train", "--stage", "2", "--student", str(tmp_path / "cut.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "truncated" in err
        assert err.count("--student") == 1 and err.count("cut.ckpt") == 1
