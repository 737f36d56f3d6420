"""Synthetic corpora and the needle-in-a-haystack retrieval harness.

Token space layout for retrieval tasks (within a model vocab V):
fillers occupy [0, n_filler), keys [n_filler, n_filler + N_KEYS), values
[n_filler + N_KEYS, V - 1), and the final id V - 1 is the query marker. A
sequence embeds `[key value]` pairs inside filler text and ends with
`[QUERY key answer]`; the answer is the only scored token.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class TrainExample:
    tokens: np.ndarray
    loss_mask: np.ndarray | None = None  # True where next-token CE is scored


BRANCHING = 4   # likely successors per token in the bigram language
N_KEYS = 8      # retrieval key ids
N_VALUES = 16   # retrieval value ids


def gen_ngram_corpus(vocab: int, n_sequences: int, seq_len: int, seed: int) -> list:
    """A fixed list of sequences from the seed's bigram language: position 0,
    and a later position with probability 0.1, takes a fresh uniform token,
    any other one of its predecessor's BRANCHING successors. The table and
    the walks draw from two generators seeded alike; each sequence draws its
    flags, fresh tokens and picks in turn, so a longer corpus extends a
    shorter one. All sequences walk together, one vector step per position."""
    successors = np.random.default_rng(seed).integers(0, vocab, size=(vocab, BRANCHING))
    rng = np.random.default_rng(seed)
    walk = np.empty((n_sequences, seq_len), dtype=bool)
    toks = np.empty((n_sequences, seq_len), dtype=np.int64)
    pick = np.empty_like(toks)
    for i in range(n_sequences):
        walk[i] = rng.random(seq_len) >= 0.1
        toks[i] = rng.integers(0, vocab, seq_len)
        pick[i] = rng.integers(0, BRANCHING, seq_len)
    for t in range(1, seq_len):
        np.copyto(toks[:, t], successors[toks[:, t - 1], pick[:, t]], where=walk[:, t])
    return [TrainExample(tokens=row) for row in toks]


def niah_generate(haystack_len: int, n_needles: int, seed: int, vocab: int = 64,
                  n_items: int = 64) -> list:
    """`n_items` retrieval examples: `haystack_len` filler tokens holding
    `n_needles` key->value pairs at distinct even slots, then `[QUERY key
    value]` for one of them. Each loss_mask scores only the answer, predicted
    at index `haystack_len + 1`."""
    if haystack_len // 2 - 1 < n_needles:   # needle slots are even positions
        raise ValueError(f"a {haystack_len}-token haystack has no room for "
                         f"{n_needles} needle(s)")
    n_filler = vocab - N_KEYS - N_VALUES - 1
    if n_filler < 1:
        raise ValueError("vocab too small for the key/value ranges")
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n_items):
        toks = rng.integers(0, n_filler, size=haystack_len + 3)
        keys = n_filler + rng.choice(N_KEYS, size=n_needles, replace=False)
        values = n_filler + N_KEYS + rng.integers(0, N_VALUES, size=n_needles)
        slots = np.sort(rng.choice(haystack_len // 2 - 1, size=n_needles, replace=False)) * 2
        target = rng.integers(0, n_needles)
        toks[slots], toks[slots + 1] = keys, values
        toks[haystack_len:] = vocab - 1, keys[target], values[target]
        examples.append(TrainExample(
            tokens=toks, loss_mask=np.arange(haystack_len + 2) == haystack_len + 1))
    return examples


def niah_eval(predict, examples: list) -> dict:
    """Exact-match accuracy per haystack length of `predict`, a callable
    tokens -> id, asked at each example's scored position."""
    hits: dict = {}
    totals: dict = {}
    for ex in examples:
        pos = int(np.flatnonzero(ex.loss_mask)[0])
        hit = predict(ex.tokens[: pos + 1]) == ex.tokens[pos + 1]
        length = ex.tokens.size - 3
        totals[length] = totals.get(length, 0) + 1
        hits[length] = hits.get(length, 0) + int(hit)
    return {length: hits[length] / totals[length] for length in sorted(totals)}
