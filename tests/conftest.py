import numpy as np
import pytest
from hypothesis import settings

from hybridkit.checkpoint import TransformerConfig, gen_toy_teacher
from hybridkit.gdn import GdnConfig
from hybridkit.mla import MlaConfig

# Property tests draw a fixed example set, so every run checks the same
# cases; no database of failing examples is kept between runs.
settings.register_profile("repo", derandomize=True, database=None, deadline=None)
settings.load_profile("repo")


@pytest.fixture(scope="session")
def toy_config():
    return TransformerConfig(d_model=32, n_layers=4, n_q_heads=4, n_kv_heads=2,
                             head_dim=8, vocab=64, mlp_hidden=64)


@pytest.fixture(scope="session")
def toy_teacher(toy_config):
    return gen_toy_teacher(toy_config, seed=0)


@pytest.fixture(scope="session")
def toy_mla_config():
    return MlaConfig(r_q=16, r_kv=8, d_qk_nope=4, d_qk_rope=4, d_v=8, n_heads=4)


@pytest.fixture(scope="session")
def toy_gdn_config():
    return GdnConfig(d=32, n_heads=2)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
