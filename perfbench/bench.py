"""hybridkit benchmark workloads: set-up, the timed loop, output checks, and
the per-layer breakdown of the traced run. `run.py` is the command-line entry.

Both workloads share one model: a toy GQA teacher (d_model 128, 4 layers,
8 query / 2 KV heads of width 16, SwiGLU 512, vocab 8192), its
latent-attention conversion from `default_mla_config` (r_kv 24 + d_rope 8 =
32 cached elements per token), its gated-delta conversion (4 heads), and the
hybrid with latent attention at layers {1, 3}.

Every workload runs the same round of seven segments, one after another:

  serve     closed loop, one client: a prefill of the prompt, then greedy
            single-token cached decode steps
  ild       one stage-1 alignment step of the pure gated-delta student
  naive, chunked, online, hidden, ce
            one stage-2 step of the hybrid per loss path, each from a fresh
            copy of the hybrid with the same seed and data; `ce` runs
            without teacher, through the fused linear cross-entropy

Each end-to-end metric times one segment only, so a change to one layer or
loss path shows in its own metric. The workloads differ in context length:

  long_ctx   training T=512 (stage 1 B=2, stage 2 B=1, kl_chunk 256);
             1024-token prompts and 1024 decode steps, up to the 2048-token
             rope limit
  short_ctx  training T=128 (same batches, kl_chunk 64); 128-token prompts
             and 256 decode steps

The batches are small and the decode runs long so that a run of 45 seconds
holds several samples of every segment and a few thousand decode steps: the
medians and the p99 then rest on enough samples to be steady.
"""

import contextlib
import copy
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hybridkit.checkpoint as checkpoint
import hybridkit.gdn as gdn
import hybridkit.hybrid as hybrid
import hybridkit.mla as mla
import hybridkit.synthetic as synthetic
import hybridkit.teacher as teacher_mod
import hybridkit.train as train

from spans import Tracer

KL_PATHS = ("naive", "chunked", "online", "hidden")
STAGE2_PATHS = KL_PATHS + ("ce",)
# Serving first: every round then starts a request, so even a slow host
# fits at least two requests, and the decode tail percentile stays the same
# from run to run.
SEGMENTS = ("serve", "ild") + STAGE2_PATHS
KL_AGREEMENT = 1e-5       # acceptance criterion 5: KL paths agree per step
DECODE_AGREEMENT = 1e-5   # acceptance criterion 9: decode logits match prefill
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10      # samples that must lie beyond the tail percentile
CTX_WINDOW = 64           # decode tokens at each end of a request


@dataclass(frozen=True)
class Sizes:
    """Model and workload shapes; the defaults are those of long_ctx."""
    d_model: int = 128
    n_layers: int = 4
    n_q_heads: int = 8
    n_kv_heads: int = 2
    head_dim: int = 16
    mlp_hidden: int = 512
    vocab: int = 8192
    gdn_heads: int = 4
    mla_layers: tuple = (1, 3)
    stage1_batch: int = 2
    stage2_batch: int = 1
    train_len: int = 512
    train_corpus: int = 32
    kl_chunk: int = 256
    prompt_len: int = 1024
    decode_len: int = 1024
    prompts: int = 8
    setups: int = 7


WORKLOADS = {
    "long_ctx": Sizes(),
    "short_ctx": Sizes(train_len=128, kl_chunk=64, prompt_len=128, decode_len=256),
}


@dataclass
class Models:
    teacher: object
    pure_gdn: object
    hybrid: object
    data: list       # training sequences
    prompts: list    # serving prompts


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)   # end to end: name -> (value, unit)
    layers: dict = field(default_factory=dict)    # per layer, traced run only
    ops: dict = field(default_factory=dict)       # kind -> [attempted, failed]
    details: dict = field(default_factory=dict)

    def count(self, kind: str, n: int = 1, failed: int = 0) -> None:
        tally = self.ops.setdefault(kind, [0, 0])
        tally[0] += n
        tally[1] += failed

    def fail(self, kind: str, failed: int) -> None:
        self.ops.setdefault(kind, [0, 0])[1] += failed

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.ops.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.ops.values())


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def warm_lapack(sizes: Sizes) -> None:
    """The first SVD of a given size in a fresh process pays LAPACK start-up
    (about 1 s against 10 ms warm), which would make setup_s measure process
    age rather than conversion work. Factorize unrelated matrices of the
    conversion's shapes (query and joint KV projections) before the clock
    starts; a 4x4 SVD does not remove the spike."""
    rng = np.random.default_rng(0)
    q_rows = sizes.n_q_heads * sizes.head_dim
    for rows in (q_rows, 2 * q_rows):
        np.linalg.svd(rng.normal(size=(rows, sizes.d_model)), full_matrices=False)


def set_up(sizes: Sizes, seed: int, workdir: Path) -> Models:
    """The CLI flow: generate the teacher, round-trip it through a container,
    convert to pure latent-attention and pure gated-delta models, round-trip
    both, assemble the hybrid; then generate the training corpus and the
    prompts."""
    cfg = checkpoint.TransformerConfig(
        d_model=sizes.d_model, n_layers=sizes.n_layers, n_q_heads=sizes.n_q_heads,
        n_kv_heads=sizes.n_kv_heads, head_dim=sizes.head_dim,
        vocab=sizes.vocab, mlp_hidden=sizes.mlp_hidden)
    path = workdir / "teacher.hk"
    checkpoint.save_teacher(checkpoint.gen_toy_teacher(cfg, seed), path)
    teacher = checkpoint.load_teacher(path)

    path = workdir / "pure_mla.hk"
    hybrid.save_hybrid(hybrid.convert_teacher_to_mla(
        teacher, mla.default_mla_config(cfg), seed=seed + 1), path)
    pure_mla = hybrid.load_hybrid(path)

    path = workdir / "pure_gdn.hk"
    hybrid.save_hybrid(hybrid.convert_teacher_to_gdn(
        teacher, gdn.GdnConfig(d=cfg.d_model, n_heads=sizes.gdn_heads),
        seed=seed + 2), path)
    pure_gdn = hybrid.load_hybrid(path)

    model = hybrid.assemble_hybrid(
        pure_mla, pure_gdn, hybrid.HybridLayout(cfg.n_layers, sizes.mla_layers))
    data = synthetic.gen_ngram_corpus(cfg.vocab, sizes.train_corpus, sizes.train_len,
                                      seed)
    prompts = synthetic.gen_ngram_corpus(cfg.vocab, sizes.prompts, sizes.prompt_len,
                                         seed + 3)
    return Models(teacher, pure_gdn, model, data, prompts)


def setup_patches():
    return [
        (checkpoint, "gen_toy_teacher", "checkpoint.gen_toy_teacher"),
        (checkpoint, "write_container", "container.write"),
        (hybrid, "write_container", "container.write"),
        (checkpoint, "read_container", "container.read"),
        (hybrid, "read_container", "container.read"),
        (hybrid, "init_mla_from_teacher", "mla.init"),
        (hybrid, "init_gdn_from_teacher", "gdn.init"),
        (mla, "svd", "numerics.svd"),
        (synthetic, "gen_ngram_corpus", "synthetic.corpus"),
    ]


def repeated_setup(sizes: Sizes, seed: int, workdir: Path, result: Result,
                   tracer: Tracer | None) -> Models:
    """Set up `sizes.setups` times; setup_s is the median. Each round writes
    into a fresh directory, so no round reads another's files. In the traced
    run every round is traced."""
    warm_lapack(sizes)
    times = []
    for i in range(sizes.setups):
        d = workdir / f"setup{i}"
        d.mkdir()
        t0 = time.perf_counter()
        if tracer is None:
            models = set_up(sizes, seed, d)
        else:
            with tracer.installed(setup_patches()), tracer.span("setup"):
                models = set_up(sizes, seed, d)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(d)
    result.metrics["setup_s"] = (statistics.median(times), "s")
    result.details["setup_runs"] = len(times)
    return models


# ---------------------------------------------------------------------------
# Tracing helpers
# ---------------------------------------------------------------------------

def training_patches(tracer: Tracer):
    def peak(path):
        return lambda out: tracer.note(f"losses.{path}.peak_elements",
                                       out.peak_elements)

    return [
        (train, "teacher_forward", "teacher.forward"),
        (teacher_mod, "gqa_attention", "teacher.gqa_attention"),
        (train, "hybrid_forward", "hybrid.forward"),
        (train, "hybrid_backward", "hybrid.backward"),
        (hybrid, "mla_forward", "mla.forward"),
        (hybrid, "mla_backward", "mla.backward"),
        (hybrid, "gdn_forward_train", "gdn.forward"),
        (hybrid, "gdn_backward", "gdn.backward"),
        (hybrid, "swiglu_forward", "mlp.forward"),
        (hybrid, "swiglu_backward", "mlp.backward"),
        (hybrid, "rmsnorm", "numerics.rmsnorm"),
        (hybrid, "rmsnorm_backward", "numerics.rmsnorm_backward"),
        (train, "ild_grads", "losses.ild"),
        (train, "kl_naive", "losses.kl_naive", peak("kl_naive")),
        (train, "kl_chunked", "losses.kl_chunked", peak("kl_chunked")),
        (train, "kl_online", "losses.kl_online", peak("kl_online")),
        (train, "kl_hidden", "losses.kl_hidden", peak("kl_hidden")),
        (train, "fused_linear_ce", "losses.fused_ce", peak("fused_ce")),
        (train.Adam, "step", "train.adam"),
    ]


def _by_offset(prefix: str):
    """Span namer telling a prefill from a cached decode step."""
    def name(*args, position_offset=0, **kwargs):
        return f"{prefix}.decode" if position_offset else f"{prefix}.prefill"
    return name


def serving_patches():
    # MLP and norms stay unwrapped here: in serving their time is part of the
    # hybrid.{prefill,decode}.self_ms remainder.
    return [
        (hybrid, "hybrid_forward", _by_offset("hybrid")),
        (hybrid, "mla_forward", _by_offset("mla")),
        (hybrid, "gdn_forward_chunked", "gdn.prefill"),
        (hybrid, "gdn_forward_sequential", "gdn.decode"),
    ]


def layer_metrics(tracer: Tracer, root_ops: dict, result: Result) -> None:
    """Self time per layer, averaged over the operations of the root spans
    that ran it: per set-up, per training step, per prefill, or per decoded
    token. A training root's own self time is the stage loop outside every
    wrapped call, reported as train.data.ms; other roots' self time is the
    part trace.coverage leaves out."""
    self_t = tracer.self_times()
    roots = tracer.roots()
    totals, seen_in = {}, {}
    for idx, (name, _, _, parent) in enumerate(tracer.spans):
        if parent >= 0:
            metric = f"{name}.self_ms" if name.startswith("hybrid.") else f"{name}.ms"
        elif name.startswith("train."):
            metric = "train.data.ms"
        else:
            continue
        totals[metric] = totals.get(metric, 0.0) + self_t[idx]
        seen_in.setdefault(metric, set()).add(roots[idx])
    for metric, total in sorted(totals.items()):
        n_ops = sum(root_ops[r] for r in seen_in[metric])
        result.layers[metric] = (1e3 * total / n_ops, "ms")
    for name, value in sorted(tracer.counts.items()):
        result.layers[name] = (value, "elements")

    shares = [1.0 - self_t[r] / (tracer.spans[r][2] - tracer.spans[r][1])
              for r in root_ops if tracer.spans[r][0] != "setup"]
    result.layers["trace.coverage"] = (statistics.median(shares), "ratio")

    # Root durations per operation, against which the self times above add up.
    per_root = {}
    for r, n_ops in root_ops.items():
        name, start, end, _ = tracer.spans[r]
        total = per_root.setdefault(name, [0.0, 0])
        total[0] += end - start
        total[1] += n_ops
    result.details["traced_ms_per_op"] = {
        name: 1e3 * t / n for name, (t, n) in sorted(per_root.items())}


def context_growth(tracer: Tracer, ctx_roots: dict, result: Result) -> None:
    """Median latent-attention self time per token over the first and the
    last CTX_WINDOW decode steps of the traced requests."""
    self_t = tracer.self_times()
    roots = tracer.roots()
    per_root = {}
    for idx, span in enumerate(tracer.spans):
        if span[0] == "mla.decode":
            per_root[roots[idx]] = per_root.get(roots[idx], 0.0) + self_t[idx]
    for end, root_list in ctx_roots.items():
        result.layers[f"mla.decode.ms.ctx_{end}"] = (
            1e3 * statistics.median(per_root[r] for r in root_list), "ms")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def failed_losses(losses) -> int:
    return sum(not np.isfinite(v) for v in losses)


def kl_disagreements(series: dict) -> int:
    """Steps, over all KL paths, whose loss lies more than KL_AGREEMENT from
    the median of the paths' losses at that step."""
    bad = 0
    for step in range(max(len(s) for s in series.values())):
        values = [s[step] for s in series.values() if step < len(s)]
        ref = statistics.median(values)
        bad += sum(not abs(v - ref) <= KL_AGREEMENT for v in values)
    return bad


def cache_budget_ok(model, caches, n_tokens: int) -> bool:
    """Every latent cache holds exactly r_kv + d_rope elements per token."""
    cfg = model.mla_cfg
    return all(c.latents.shape == (n_tokens, cfg.r_kv)
               and c.rope_keys.shape == (n_tokens, cfg.d_qk_rope)
               for c in caches if isinstance(c, mla.MlaCache))


def decode_mismatches(model, tokens, prefill_last, decode_logits) -> int:
    """Operations of one request (its prefill's last row, then each decode
    step) whose logits differ from a one-shot prefill of the same tokens by
    more than DECODE_AGREEMENT (max abs)."""
    full = hybrid.hybrid_forward(model, tokens).logits
    got = np.concatenate([prefill_last[None]] + list(decode_logits))
    diff = np.max(np.abs(got - full[len(tokens) - len(got):]), axis=-1)
    return int(np.sum(~(diff <= DECODE_AGREEMENT)))


def tail_percentile(n: int) -> float:
    """Highest of TAIL_PERCENTILES that leaves >= TAIL_MIN_BEYOND of n samples
    beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p
    raise ValueError(f"{n} samples are too few for a tail percentile")


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------

class Workload:
    """One run: set-up, an untimed warm-up, the timed rounds, the checks.

    In the traced run even rounds are traced and odd rounds are not, so the
    two kinds of round give trace.overhead from the same run."""

    def __init__(self, sizes: Sizes, seed: int, tracer: Tracer | None,
                 workdir: Path):
        self.sizes, self.seed, self.tracer = sizes, seed, tracer
        self.result = Result()
        self.models = repeated_setup(sizes, seed, workdir, self.result, tracer)
        # Stage 1 trains its own copy: the hybrid shares the pure-GDN layers.
        self.stage1_student = copy.deepcopy(self.models.pure_gdn)
        self.root_ops = ({} if tracer is None else
                         {r: 1 for r, s in enumerate(tracer.spans) if s[3] < 0})
        self.rates = {s: [] for s in ("ild",) + STAGE2_PATHS}
        self.peaks = {p: set() for p in STAGE2_PATHS}
        self.losses = []          # per round: path -> KL loss series
        self.prefill_rates, self.decode_ms = [], []
        self.times = {s: ([], []) for s in SEGMENTS}   # (traced, untraced) seconds
        self.ctx_roots = {"start": [], "end": []}
        self.first_request = {}   # checked against a one-shot prefill at the end
        self.final_caches = []

    def traced(self, rnd: int) -> bool:
        return self.tracer is not None and rnd >= 0 and rnd % 2 == 0

    def training_call(self, root: str, trace_this: bool, fn):
        if not trace_this:
            return fn()
        with self.tracer.installed(training_patches(self.tracer)), \
                self.tracer.span(root) as idx:
            report = fn()
        self.root_ops[idx] = len(report.losses)
        return report

    def ild(self, rnd: int) -> None:
        """One stage-1 step; the student keeps training across rounds, with
        batch seed = seed + round."""
        s = self.sizes
        cfg = train.TrainConfig(stage=1, context_len=s.train_len, steps=1,
                                batch=s.stage1_batch, seed=self.seed + rnd)
        t0 = time.perf_counter()
        report = self.training_call(
            "train.stage1", self.traced(rnd),
            lambda: train.train_stage1_ild(self.stage1_student, self.models.teacher,
                                           self.models.data, cfg))
        dt = time.perf_counter() - t0
        if rnd >= 0:
            self.record("ild", rnd, dt, s.stage1_batch * s.train_len * cfg.steps)
            self.result.count("train_step", cfg.steps, failed_losses(report.losses))

    def stage2(self, path: str, rnd: int) -> None:
        """One stage-2 step from a fresh copy of the hybrid, with the same seed
        and data on every path; the fused-CE path runs without teacher."""
        s = self.sizes
        student = copy.deepcopy(self.models.hybrid)
        cfg = train.TrainConfig(stage=2, context_len=s.train_len, steps=1,
                                batch=s.stage2_batch, seed=self.seed,
                                loss_path="naive" if path == "ce" else path,
                                kl_chunk=s.kl_chunk)
        teacher = None if path == "ce" else self.models.teacher
        t0 = time.perf_counter()
        report = self.training_call(
            f"train.stage2.{path}", self.traced(rnd),
            lambda: train.train_stage2_sft(student, teacher, self.models.data, cfg))
        dt = time.perf_counter() - t0
        if rnd < 0:
            return
        self.record(path, rnd, dt, s.stage2_batch * s.train_len * len(report.losses))
        self.peaks[path].add(report.peak_transient_elements)
        while len(self.losses) <= rnd:
            self.losses.append({})
        if path in KL_PATHS:
            self.losses[rnd][path] = report.losses
        self.result.count("train_step", len(report.losses),
                          failed_losses(report.losses))

    def record(self, segment: str, rnd: int, seconds: float, tokens: int) -> None:
        self.rates[segment].append(tokens / seconds)
        self.times[segment][0 if self.traced(rnd) else 1].append(seconds)

    def step(self, tokens, offset, caches, root):
        """One forward plus greedy pick; `root` names the traced root span."""
        def fn():
            out = hybrid.hybrid_forward(self.models.hybrid, tokens, caches=caches,
                                        position_offset=offset)
            return out, int(np.argmax(out.logits[-1]))
        if root is None:
            return fn()
        with self.tracer.span(root) as idx:
            out = fn()
        self.root_ops[idx] = 1
        return out

    def serve(self, rnd: int, n_decode: int | None = None) -> None:
        """One request: prefill the prompt, then greedy cached decode."""
        s, model = self.sizes, self.models.hybrid
        P = s.prompt_len
        N = s.decode_len if n_decode is None else n_decode
        prompt = self.models.prompts[rnd % len(self.models.prompts)].tokens
        timed = rnd >= 0
        trace_this = self.traced(rnd)
        record = timed and not self.first_request
        window = min(CTX_WINDOW, N // 2)
        t_req = time.perf_counter()
        with (self.tracer.installed(serving_patches()) if trace_this
              else contextlib.nullcontext()):
            t0 = time.perf_counter()
            out, nxt = self.step(prompt, 0, None,
                                 "serve.prefill" if trace_this else None)
            dt = time.perf_counter() - t0
            caches = out.caches
            if timed:
                self.prefill_rates.append(P / dt)
                ok = np.all(np.isfinite(out.logits[-1])) and cache_budget_ok(
                    model, caches, P)
                self.result.count("prefill", 1, int(not ok))
            if record:
                self.first_request.update(prefill_last=out.logits[-1], decoded=[])
            fed = []
            if timed:
                self.decode_ms.append([])
            for j in range(N):
                fed.append(nxt)
                n_roots = len(self.tracer.spans) if trace_this else 0
                t0 = time.perf_counter()
                out, nxt = self.step(np.array(fed[-1:]), P + j, caches,
                                     "serve.decode" if trace_this else None)
                dt = time.perf_counter() - t0
                caches = out.caches
                if not timed:
                    continue
                self.decode_ms[-1].append(1e3 * dt)
                ok = np.all(np.isfinite(out.logits)) and cache_budget_ok(
                    model, caches, P + j + 1)
                self.result.count("decode_token", 1, int(not ok))
                if record:
                    self.first_request["decoded"].append(out.logits)
                if trace_this and j < window:
                    self.ctx_roots["start"].append(n_roots)
                elif trace_this and j >= N - window:
                    self.ctx_roots["end"].append(n_roots)
        if timed:
            self.times["serve"][0 if trace_this else 1].append(
                time.perf_counter() - t_req)
            self.final_caches[:] = caches
        if record:
            self.first_request["tokens"] = np.concatenate([prompt, np.array(fed)])

    def segment(self, name: str, rnd: int) -> None:
        if name == "serve":
            self.serve(rnd)
        elif name == "ild":
            self.ild(rnd)
        else:
            self.stage2(name, rnd)

    def warm_up(self) -> None:
        """Untimed: fault in the buffers the timed segments reuse. The naive
        path has the largest; a short request warms prefill and decode."""
        self.ild(-1)
        self.stage2("naive", -1)
        self.serve(-1, n_decode=min(self.sizes.decode_len, CTX_WINDOW))

    def timed_loop(self, seconds: float) -> float:
        """Run segment i mod 7 of round i // 7 for i = 0, 1, ... until the next
        segment, if it lasts as long as it did in the round before, would end
        after `seconds`. The first round always runs whole, and in the traced
        run so does the second, which is untraced.

        Returns the process's peak RSS in MB once the first round has run.
        Every buffer of the workload exists by then; the glibc heap keeps
        growing in steps with the number of calls, which would tie the figure
        to how many calls the host's speed let a run fit."""
        deadline = time.perf_counter() + seconds
        whole = len(SEGMENTS) * (1 if self.tracer is None else 2)
        last = {}
        rss = None
        i = 0
        while True:
            rnd, name = divmod(i, len(SEGMENTS))
            name = SEGMENTS[name]
            if i >= whole and time.perf_counter() + last[name] > deadline:
                return rss
            t0 = time.perf_counter()
            self.segment(name, rnd)
            last[name] = time.perf_counter() - t0
            i += 1
            if i == len(SEGMENTS):
                rss = peak_rss_mb()

    def run(self, seconds: float) -> Result:
        self.warm_up()
        rss = self.timed_loop(seconds)
        result, model = self.result, self.models.hybrid

        for series in self.losses:
            if series:
                result.fail("train_step", kl_disagreements(series))
        # Outside the timed region: the first timed request against a one-shot
        # prefill of the same tokens.
        first = self.first_request
        result.fail("decode_token", decode_mismatches(
            model, first["tokens"], first["prefill_last"], first["decoded"]))

        m = result.metrics
        for segment, rates in self.rates.items():
            m[f"tokens_per_s.{segment}"] = (statistics.median(rates), "tokens/s")
        for path in ("naive", "hidden", "ce"):
            m[f"peak_elements.{path}"] = (max(self.peaks[path]), "elements")
        m["peak_rss_mb"] = (rss, "MB")
        m["prefill_tokens_per_s"] = (statistics.median(self.prefill_rates), "tokens/s")
        m["decode_ms_p50"] = (float(np.median(np.concatenate(self.decode_ms))), "ms")
        # The tail is taken per request and the median over requests reported:
        # the host stalls now and then for tens of ms, which slows a few
        # consecutive steps, and one request hit by several stalls would set a
        # tail over all steps of the run.
        pct = tail_percentile(self.sizes.decode_len)
        m["decode_ms_tail"] = (statistics.median(
            float(np.percentile(d, pct)) for d in self.decode_ms), "ms")
        mla_caches = [c for c in self.final_caches if isinstance(c, mla.MlaCache)]
        m["kv_cache_elements_per_token"] = (
            sum((c.latents.size + c.rope_keys.size) / len(c) for c in mla_caches),
            "elements")
        result.details["decode_tail"] = {
            "percentile": pct, "samples_per_request": self.sizes.decode_len,
            "requests": len(self.decode_ms)}
        result.details["samples"] = {
            "requests": len(self.prefill_rates),
            **{s: len(r) for s, r in self.rates.items()}}
        if self.tracer is not None:
            self.trace_metrics(mla_caches)
        return result

    def trace_metrics(self, mla_caches) -> None:
        layers = self.result.layers
        layer_metrics(self.tracer, self.root_ops, self.result)
        context_growth(self.tracer, self.ctx_roots, self.result)
        layers["mla.cache_elements"] = (
            sum(c.latents.size + c.rope_keys.size for c in mla_caches), "elements")
        layers["gdn.state_elements"] = (sum(
            c.s.size + c.conv_q.size + c.conv_k.size + c.conv_v.size
            for c in self.final_caches if isinstance(c, gdn.GdnState)), "elements")
        # Per kind of segment, median traced / median untraced time; the
        # median of those ratios, minus one.
        ratios = [statistics.median(t) / statistics.median(u)
                  for t, u in self.times.values() if t and u]
        if ratios:
            layers["trace.overhead"] = (statistics.median(ratios) - 1.0, "ratio")


def run(workload: str, seed: int, seconds: float, trace: bool, parent: Path,
        sizes: Sizes | None = None) -> Result:
    """Run one workload; set-up files go to a directory under `parent` that
    is removed afterwards. `sizes` replaces the workload's shapes (tests)."""
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=parent))
    try:
        return Workload(sizes or WORKLOADS[workload], seed,
                        Tracer() if trace else None, workdir).run(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
