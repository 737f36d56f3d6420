"""hybridkit: upcycle GQA transformer checkpoints into hybrid models that mix
latent-attention layers with gated delta-rule layers, distill them in two
stages, and account for KV-cache and training memory."""

from .checkpoint import (HybridModel, TransformerConfig, gen_toy_teacher,
                         load_teacher, save_teacher)
from .gdn import (GdnBlockWeights, GdnConfig, GdnState, gdn_forward_chunked,
                  gdn_forward_sequential, gdn_param_count, init_gdn_from_teacher)
from .hybrid import (HybridLayout, KvCacheReport, MemoryPlan, assemble_hybrid,
                     convert_teacher_to_gdn, convert_teacher_to_mla,
                     hybrid_forward, kv_cache_report, load_hybrid, memory_plan,
                     save_hybrid, teacher_forward)
from .losses import (LossConfig, LossValueAndGrad, fused_linear_ce, ild_grads,
                     kl_chunked, kl_hidden, kl_naive, kl_online)
from .mla import (MlaBlockWeights, MlaCache, MlaConfig, default_mla_config,
                  init_mla_from_teacher, mla_forward, yarn_scale)
from .numerics import SvdResult, repeat_kv, rmsnorm, svd
from .synthetic import gen_ngram_corpus, niah_eval, niah_generate
from .teacher import GqaCache, GqaWeights, Trace, gqa_attention
from .train import (TrainConfig, TrainReport, argmax_agreement, grad_audit,
                    train_stage1_ild, train_stage2_sft)

__version__ = "0.1.0"
