import numpy as np
import pytest

from hybridkit.synthetic import (BRANCHING, gen_ngram_corpus, niah_eval, niah_generate,
                                 niah_train_examples)


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
        ds = niah_generate(40, 2, seed=1, vocab=64, n_items=8)
        for item in ds.items:
            assert item.tokens.size == 43
            assert item.tokens[40] == 63              # query marker
            assert item.tokens[-1] == item.answer
            assert item.answer_pos == 41

    def test_queried_needle_present(self):
        ds = niah_generate(40, 1, seed=2, vocab=64, n_items=16)
        for item in ds.items:
            key = item.tokens[item.answer_pos]
            hay = item.tokens[:40]
            pos = np.where(hay == key)[0]
            assert len(pos) >= 1
            assert item.tokens[pos[0] + 1] == item.answer

    def test_copy_model_on_final_position_needle(self):
        ds = niah_generate(32, 1, seed=4, vocab=64, needle_pos=30, n_items=32)
        acc = niah_eval(lambda toks: int(toks[-3]), ds)
        assert acc[32] == 1.0

    def test_random_model_achieves_chance(self):
        ds = niah_generate(64, 1, seed=5, vocab=64, n_values=16, n_items=400)
        rng = np.random.default_rng(0)
        val0 = 64 - 16 - 1 - 8 + 8  # filler + keys boundary
        acc = niah_eval(lambda toks: int(rng.integers(39, 55)), ds)
        assert acc[64] < 3.0 / 16

    def test_train_examples_mask_only_answer(self):
        ds = niah_generate(24, 1, seed=6, vocab=64, n_items=4)
        for ex, item in zip(niah_train_examples(ds), ds.items):
            assert ex.loss_mask.sum() == 1
            assert ex.loss_mask[item.answer_pos]
            assert ex.tokens[item.answer_pos + 1] == item.answer

    def test_haystack_too_short_rejected(self):
        with pytest.raises(ValueError, match="haystack"):
            niah_generate(3, 2, seed=0)

    def test_eval_accepts_model_objects(self, toy_teacher):
        ds = niah_generate(16, 1, seed=7, vocab=64, n_items=4)
        acc = niah_eval(toy_teacher, ds)
        assert 0.0 <= acc[16] <= 1.0
