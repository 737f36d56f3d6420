import numpy as np
import pytest

from hybridkit.synthetic import (BRANCHING, N_KEYS, N_VALUES, gen_ngram_corpus, niah_eval,
                                 niah_generate)


class TestCorpus:
    def test_deterministic(self):
        a = gen_ngram_corpus(64, 4, 32, seed=3)
        b = gen_ngram_corpus(64, 4, 32, seed=3)
        assert all(np.array_equal(x.tokens, y.tokens) for x, y in zip(a, b))

    def test_token_range(self):
        for ex in gen_ngram_corpus(50, 8, 64, seed=0):
            assert ex.tokens.min() >= 0 and ex.tokens.max() < 50

    @pytest.mark.parametrize("seed", [0, 5])
    def test_tokens_follow_the_seeds_successor_table(self, seed):
        # A non-first token leaves its predecessor's successor list only when
        # the walk resets (p 0.1) to a fresh uniform token outside that list,
        # so the share is a binomial mean of 0.1 * (1 - 4/V). Repeated entries
        # in a table row lower it by about 0.1 * 6/V^2 (9e-6 at V 256), far
        # inside the 5-sigma band over the 16,320 tokens checked here.
        vocab, n, L = 256, 64, 256
        successors = np.random.default_rng(seed).integers(0, vocab, size=(vocab, BRANCHING))
        toks = np.stack([ex.tokens for ex in gen_ngram_corpus(vocab, n, L, seed)])
        listed = (successors[toks[:, :-1]] == toks[:, 1:, None]).any(axis=-1)
        p = 0.1 * (1 - BRANCHING / vocab)
        band = 5 * np.sqrt(p * (1 - p) / listed.size)
        assert abs((~listed).mean() - p) < band

    @pytest.mark.parametrize("n, k", [(8, 3), (5, 5), (12, 1), (4, 0)])
    def test_longer_corpus_extends_shorter(self, n, k):
        longer = gen_ngram_corpus(64, n, 40, seed=9)[:k]
        shorter = gen_ngram_corpus(64, k, 40, seed=9)
        assert len(longer) == len(shorter) == k
        assert all(np.array_equal(a.tokens, b.tokens) for a, b in zip(longer, shorter))

    def test_degenerate_sizes(self):
        single = gen_ngram_corpus(64, 3, 1, seed=2)
        assert [ex.tokens.shape for ex in single] == [(1,)] * 3
        assert all(ex.tokens.dtype == np.int64 for ex in single)
        assert gen_ngram_corpus(64, 0, 16, seed=2) == []


class TestNiah:
    def test_structure(self):
        for ex in niah_generate(40, 2, seed=1, vocab=64, n_items=8):
            assert ex.tokens.size == 43
            assert ex.tokens[40] == 63              # query marker
            assert ex.loss_mask.shape == (42,)
            assert np.flatnonzero(ex.loss_mask).tolist() == [41]   # only the answer

    def test_queried_needle_present(self):
        for ex in niah_generate(40, 1, seed=2, vocab=64, n_items=16):
            key = ex.tokens[41]
            pos = np.where(ex.tokens[:40] == key)[0]
            assert len(pos) >= 1
            assert ex.tokens[pos[0] + 1] == ex.tokens[42]

    def test_copy_model_retrieves_every_needle(self):
        # Keys never occur as filler, so the key's haystack slot holds the needle.
        def copy(toks):
            return int(toks[np.flatnonzero(toks[:-2] == toks[-1])[0] + 1])

        examples = (niah_generate(32, 3, seed=4, vocab=64, n_items=32)
                    + niah_generate(16, 2, seed=4, vocab=64, n_items=8))
        assert niah_eval(copy, examples) == {16: 1.0, 32: 1.0}

    def test_random_model_achieves_chance(self):
        examples = niah_generate(64, 1, seed=5, vocab=64, n_items=400)
        rng = np.random.default_rng(0)
        val0 = 64 - N_VALUES - 1   # first value id
        acc = niah_eval(lambda toks: int(rng.integers(val0, val0 + N_VALUES)), examples)
        assert acc[64] < 3.0 / N_VALUES

    def test_haystack_too_short_rejected(self):
        with pytest.raises(ValueError, match="haystack"):
            niah_generate(3, 2, seed=0)

    def test_vocab_too_small_rejected(self):
        with pytest.raises(ValueError, match="vocab"):
            niah_generate(16, 1, seed=0, vocab=N_KEYS + N_VALUES + 1)
