"""Command-line surface for the conversion/training pipeline.

Exit codes: 0 success, 1 validation error (bad flags, missing/invalid files),
2 runtime failure. `--json` prints a single JSON document on stdout.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import verify as verify_mod
from .checkpoint import TransformerConfig, gen_toy_teacher, load_teacher, save_teacher
from .gdn import GdnConfig
from .hybrid import (HybridLayout, assemble_hybrid, convert_teacher_to_gdn,
                     convert_teacher_to_mla, format_gb, hybrid_forward,
                     kv_cache_report, load_hybrid, memory_plan, save_hybrid)
from .mla import MlaConfig, default_mla_config, yarn_scale
from .synthetic import gen_ngram_corpus, niah_eval, niah_generate
from .train import (KL_PATHS, TrainConfig, argmax_agreement, audit_distillation,
                    train_stage1_ild, train_stage2_sft)


class CliError(Exception):
    """Validation failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _number(kind, low, strict: bool = False):
    """argparse type: a finite `kind` value >= low (> low if `strict`).
    argparse names the flag when it rejects one."""
    def parse(text):
        value = kind(text)
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


def _from_flags(flags: str, build, *args, **kwargs):
    """Call `build`, turning its ValueError into a CliError naming `flags`."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        raise CliError(f"{flags}: {e}")


def _emit(args, payload: dict, human_lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human_lines:
            print(line)


def _load_json(path, what: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise CliError(f"{what} file not found: {path}")
    except json.JSONDecodeError as e:
        raise CliError(f"{what} file {path} is not valid JSON: {e}")


def _config_file(cls, path, flag: str):
    """`cls.from_dict` of the JSON object in `path`; an unknown, missing or
    out-of-range key becomes a CliError naming `flag` and the file."""
    d = _load_json(path, flag)
    if not isinstance(d, dict):
        raise CliError(f"{flag} file {path}: expected a JSON object")
    try:
        return cls.from_dict(d)
    except KeyError as e:
        raise CliError(f"{flag} file {path}: missing key {e}")
    except (TypeError, ValueError) as e:
        raise CliError(f"{flag} file {path}: {e}")


def cmd_gen_teacher(args):
    cfg = _config_file(TransformerConfig, args.config, "--config")
    ckpt = gen_toy_teacher(cfg, args.seed)
    save_teacher(ckpt, args.out)
    _emit(args, {"out": args.out, "config": cfg.to_dict(), "seed": args.seed},
          [f"wrote teacher checkpoint to {args.out}"])
    return 0


def _open(load, path, flag: str):
    """`load(path)` of a checkpoint; a missing file or one of the wrong kind,
    shape or content is a CliError naming `flag` and the file."""
    try:
        return load(path)
    except FileNotFoundError:
        raise CliError(f"{flag} file not found: {path}")
    except ValueError as e:
        text = str(e) if str(path) in str(e) else f"{path}: {e}"
        raise CliError(f"{flag} file {text}")


def cmd_convert_mla(args):
    teacher = _open(load_teacher, args.teacher, "--teacher")
    flag = "--mla-config" if args.mla_config else "--cache-per-token"
    if args.mla_config:
        cfg = _config_file(MlaConfig, args.mla_config, flag)
    else:
        cfg = _from_flags(flag, default_mla_config, teacher.config, args.cache_per_token)
    if args.yarn_factor > 1.0:
        cfg = yarn_scale(cfg, args.yarn_factor)
    model = _from_flags(f"--teacher/{flag}", convert_teacher_to_mla, teacher, cfg,
                        seed=args.seed)
    save_hybrid(model, args.out)
    _emit(args, {"out": args.out, "mla_config": cfg.to_dict()},
          [f"wrote pure latent-attention model to {args.out}",
           f"cache per token: {cfg.cache_per_token} elements"])
    return 0


def cmd_convert_gdn(args):
    teacher = _open(load_teacher, args.teacher, "--teacher")
    cfg = _from_flags("--heads", GdnConfig, d=teacher.config.d_model,
                      n_heads=args.heads)
    model = _from_flags("--teacher/--heads", convert_teacher_to_gdn, teacher, cfg,
                        seed=args.seed)
    save_hybrid(model, args.out)
    _emit(args, {"out": args.out, "gdn_config": cfg.to_dict()},
          [f"wrote pure gated-delta model to {args.out}"])
    return 0


def cmd_assemble(args):
    pure_mla = _open(load_hybrid, args.mla, "--mla")
    pure_gdn = _open(load_hybrid, args.gdn, "--gdn")
    layout = _config_file(HybridLayout, args.layout, "--layout")
    model = _from_flags("--mla/--gdn/--layout", assemble_hybrid, pure_mla, pure_gdn,
                        layout, donor=args.donor)
    save_hybrid(model, args.out)
    _emit(args, {"out": args.out, "layout": layout.to_dict()},
          [f"wrote hybrid model to {args.out}",
           f"{len(layout.mla_indices)} latent-attention + "
           f"{layout.n_layers - len(layout.mla_indices)} gated-delta layers"])
    return 0


def cmd_verify(args):
    teacher = _open(load_teacher, args.teacher, "--teacher")
    hybrid = _open(load_hybrid, args.hybrid, "--hybrid")
    results = verify_mod.run_verification(hybrid, teacher, seed=args.seed)
    ok = all(r.passed for r in results)
    payload = {"passed": ok, "checks": [r.to_dict() for r in results]}
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name:<38} {r.detail}"
             for r in results]
    lines.append("all checks passed" if ok else "some checks FAILED")
    _emit(args, payload, lines)
    return 0 if ok else 2


def cmd_kv_report(args):
    layout = _config_file(HybridLayout, args.layout, "--layout")
    teacher_cfg = _config_file(TransformerConfig, args.teacher_config,
                               "--teacher-config")
    mla_cfg = _config_file(MlaConfig, args.mla_config, "--mla-config")
    rep = _from_flags("--layout/--teacher-config", kv_cache_report, layout, teacher_cfg,
                      mla_cfg)
    _emit(args, rep.to_dict(), [
        f"teacher cache/token: {rep.teacher_per_token} elements",
        f"hybrid cache/token:  {rep.hybrid_per_token} elements "
        f"({len(layout.mla_indices)} latent layers x {mla_cfg.cache_per_token})",
        f"KV cache: {rep.percent}"])
    return 0


def cmd_mem_plan(args):
    techniques = [t for t in (args.techniques or "").split(",") if t]
    plan = _from_flags("--techniques", memory_plan, args.tokens, args.vocab, techniques)
    lines = [f"logit tensor ({args.tokens} x {args.vocab} @ 2 B): "
             f"{plan.logit_tensor_bytes:,} bytes {format_gb(plan.logit_tensor_bytes)}"]
    for row, b in plan.rows.items():
        lines.append(f"  {row:<22} {b:>18,} bytes" + ("  (eliminated)" if b == 0 else ""))
    lines.append(f"total resident: {plan.total_bytes:,} bytes {format_gb(plan.total_bytes)}")
    _emit(args, plan.to_dict(), lines)
    return 0


def _train_data(args, vocab: int, n: int):
    if args.data == "ngram":
        return gen_ngram_corpus(vocab, n, args.context_len, seed=args.data_seed)
    return _from_flags("--needles/--context-len", niah_generate, args.context_len - 3,
                       args.needles, seed=args.data_seed, vocab=vocab, n_items=n)


def cmd_train(args):
    cfg = TrainConfig(stage=args.stage, context_len=args.context_len, lr=args.lr,
                      steps=args.steps, batch=args.batch, seed=args.seed,
                      loss_path=args.loss_path, kl_chunk=args.kl_chunk,
                      vocab_tile=args.vocab_tile, swap_kl=args.swap_kl)
    student = _open(load_hybrid, args.student, "--student")
    teacher = _open(load_teacher, args.teacher, "--teacher") if args.teacher else None
    # argmax_agreement scores 4 held-out examples drawn after the training
    # ones; both generators draw in turn, so the training data is unchanged.
    data = _train_data(args, student.config.vocab, args.data_size + 4)
    data, held_out = data[:-4], data[-4:]

    if args.stage == 1:
        if teacher is None:
            raise CliError("--teacher is required for stage 1")
        report = train_stage1_ild(student, teacher, data, cfg)
    else:
        report = train_stage2_sft(student, teacher, data, cfg)
        if teacher is not None:
            report.metrics["argmax_agreement"] = argmax_agreement(
                student, teacher, held_out, cfg.context_len)
        if args.audit_probes > 0:
            report.metrics["grad_audit_max_rel_err"] = audit_distillation(
                student, teacher, data[0], cfg, args.audit_probes)
    if args.out:
        save_hybrid(student, args.out)
    if args.report:
        with open(args.report, "w") as f:
            for rec in report.step_records():
                f.write(json.dumps(rec) + "\n")
            f.write(json.dumps({"summary": report.summary()}) + "\n")
    _emit(args, report.summary(),
          [f"stage {args.stage}: {len(report.losses)} steps, "
           f"loss {report.losses[0]:.4f} -> {report.losses[-1]:.4f}",
           *(f"{k}: {v}" for k, v in report.metrics.items()),
           *([f"wrote trained model to {args.out}"] if args.out else [])])
    return 0


def cmd_eval_niah(args):
    model = _open(load_hybrid, args.model, "--model")

    def predict(tokens):
        return int(np.argmax(hybrid_forward(model, tokens).logits[-1]))

    accs = {}
    for length in args.haystack_len:
        examples = _from_flags("--needles/--haystack-len", niah_generate, length,
                               args.needles, seed=args.seed, vocab=model.config.vocab,
                               n_items=args.items)
        accs.update(niah_eval(predict, examples))
    _emit(args, {"accuracy": {str(k): v for k, v in accs.items()}},
          [f"context {k}: accuracy {v:.1%}" for k, v in accs.items()])
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="hybridkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--json", action="store_true", help="emit JSON on stdout")
        return sp

    sp = add("gen-teacher", cmd_gen_teacher, help="generate a toy GQA teacher")
    sp.add_argument("--config", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)

    sp = add("convert-mla", cmd_convert_mla,
             help="initialize a pure latent-attention model from a teacher")
    sp.add_argument("--teacher", required=True)
    sp.add_argument("--mla-config")
    sp.add_argument("--cache-per-token", type=_number(int, 1), default=None)
    sp.add_argument("--yarn-factor", type=_number(float, 1.0), default=1.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)

    sp = add("convert-gdn", cmd_convert_gdn,
             help="initialize a pure gated-delta model from a teacher")
    sp.add_argument("--teacher", required=True)
    sp.add_argument("--heads", type=_number(int, 1), default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)

    sp = add("assemble", cmd_assemble, help="assemble a hybrid from pure models")
    sp.add_argument("--mla", required=True)
    sp.add_argument("--gdn", required=True)
    sp.add_argument("--layout", required=True)
    sp.add_argument("--donor", choices=("mla", "gdn"), default="mla")
    sp.add_argument("--out", required=True)

    sp = add("verify", cmd_verify, help="run the invariant suite on a hybrid")
    sp.add_argument("--hybrid", required=True)
    sp.add_argument("--teacher", required=True)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("kv-report", cmd_kv_report, help="KV-cache footprint of a layout")
    sp.add_argument("--layout", required=True)
    sp.add_argument("--teacher-config", required=True)
    sp.add_argument("--mla-config", required=True)

    sp = add("mem-plan", cmd_mem_plan, help="distillation-step memory accounting")
    sp.add_argument("--tokens", type=_number(int, 1), required=True)
    sp.add_argument("--vocab", type=_number(int, 1), required=True)
    sp.add_argument("--techniques", default="")

    sp = add("train", cmd_train, help="run a distillation stage")
    sp.add_argument("--stage", type=int, choices=(1, 2), required=True)
    sp.add_argument("--student", required=True)
    sp.add_argument("--teacher")
    sp.add_argument("--out")
    sp.add_argument("--report", help="write per-step JSON lines here")
    sp.add_argument("--data", choices=("ngram", "niah"), default="ngram")
    sp.add_argument("--data-seed", type=int, default=0)
    sp.add_argument("--data-size", type=_number(int, 1), default=64)
    sp.add_argument("--needles", type=_number(int, 1), default=1)
    sp.add_argument("--context-len", type=_number(int, 2), default=256)
    sp.add_argument("--lr", type=_number(float, 0.0, strict=True), default=2e-4)
    sp.add_argument("--steps", type=_number(int, 1), default=100)
    sp.add_argument("--batch", type=_number(int, 1), default=4)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--loss-path", choices=KL_PATHS, default="naive")
    sp.add_argument("--kl-chunk", type=_number(int, 1), default=4096)
    sp.add_argument("--vocab-tile", type=_number(int, 1), default=128)
    sp.add_argument("--swap-kl", action="store_true",
                    help="distill with KL(teacher || student)")
    sp.add_argument("--audit-probes", type=_number(int, 0), default=0,
                    help="finite-difference audit after stage-2 training")

    sp = add("eval-niah", cmd_eval_niah, help="needle-in-haystack retrieval eval")
    sp.add_argument("--model", required=True)
    sp.add_argument("--haystack-len", type=_number(int, 1), nargs="+", default=[128])
    sp.add_argument("--needles", type=_number(int, 1), default=1)
    sp.add_argument("--items", type=_number(int, 1), default=64)
    sp.add_argument("--seed", type=int, default=0)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, np.linalg.LinAlgError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
