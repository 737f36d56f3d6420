"""Synthetic corpora and the needle-in-a-haystack retrieval harness.

Token space layout for retrieval tasks (within a model vocab V):
fillers occupy [0, n_filler), keys [n_filler, n_filler + n_keys), values
[n_filler + n_keys, n_filler + n_keys + n_values), and the final id V - 1 is
the query marker. A sequence embeds `[key value]` pairs inside filler text and
ends with `[QUERY key answer]`; the answer position is the only scored token.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class TrainExample:
    tokens: np.ndarray
    loss_mask: np.ndarray | None = None  # True where next-token CE is scored


@dataclass
class NiahItem:
    tokens: np.ndarray       # ends with [query, key, answer]
    answer: int
    context_len: int
    answer_pos: int          # index of the token that predicts the answer


@dataclass
class NiahDataset:
    items: list = field(default_factory=list)
    n_values: int = 0


BRANCHING = 4   # likely successors per token in the bigram language


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


def _token_ranges(vocab: int, n_keys: int, n_values: int):
    n_filler = vocab - n_keys - n_values - 1
    if n_filler < 1:
        raise ValueError("vocab too small for the requested key/value ranges")
    return n_filler, n_filler, n_filler + n_keys, vocab - 1


def niah_generate(haystack_len: int, n_needles: int, seed: int, vocab: int = 64,
                  n_keys: int = 8, n_values: int = 16, n_items: int = 64,
                  needle_pos: int | None = None) -> NiahDataset:
    """Sequences of `haystack_len` filler tokens with `n_needles` embedded
    key->value pairs and a trailing query. `needle_pos` pins the queried
    needle's location (e.g. the final filler slot)."""
    if haystack_len // 2 - 1 < n_needles:   # needle slots are even positions
        raise ValueError(f"a {haystack_len}-token haystack has no room for "
                         f"{n_needles} needle(s)")
    rng = np.random.default_rng(seed)
    n_filler, key0, val0, query_tok = _token_ranges(vocab, n_keys, n_values)
    items = []
    for _ in range(n_items):
        toks = rng.integers(0, n_filler, size=haystack_len + 3)
        keys = rng.choice(n_keys, size=n_needles, replace=False)
        values = rng.integers(0, n_values, size=n_needles)
        slots = np.sort(rng.choice(haystack_len // 2 - 1, size=n_needles, replace=False)) * 2
        target = int(rng.integers(0, n_needles))
        if needle_pos is not None:
            slots[target] = needle_pos
        order = [i for i in range(n_needles) if i != target] + [target]
        for i in order:  # target written last so a pinned slot stays intact
            toks[slots[i]] = key0 + keys[i]
            toks[slots[i] + 1] = val0 + values[i]
        toks[haystack_len] = query_tok
        toks[haystack_len + 1] = key0 + keys[target]
        toks[haystack_len + 2] = val0 + values[target]
        items.append(NiahItem(tokens=toks, answer=int(toks[-1]),
                              context_len=haystack_len, answer_pos=haystack_len + 1))
    return NiahDataset(items=items, n_values=n_values)


def niah_train_examples(dataset: NiahDataset) -> list:
    """Retrieval items as next-token training examples scored on the answer."""
    out = []
    for item in dataset.items:
        mask = np.zeros(item.tokens.size - 1, dtype=bool)
        mask[item.answer_pos] = True
        out.append(TrainExample(tokens=item.tokens, loss_mask=mask))
    return out


def niah_eval(model, dataset: NiahDataset) -> dict:
    """Exact-match retrieval accuracy per context length.

    `model` is either a callable tokens -> predicted id, or a model object
    understood by `predict_next` (hybrid or teacher checkpoint).
    """
    if callable(model):
        predict = model
    else:
        from .checkpoint import TeacherCheckpoint
        from .hybrid import HybridModel, hybrid_forward
        from .teacher import teacher_forward

        def predict(tokens):
            if isinstance(model, HybridModel):
                logits = hybrid_forward(model, tokens).logits
            elif isinstance(model, TeacherCheckpoint):
                logits = teacher_forward(model, tokens).logits
            else:
                raise TypeError(f"cannot evaluate model of type {type(model)!r}")
            return int(np.argmax(logits[-1]))

    hits: dict = {}
    totals: dict = {}
    for item in dataset.items:
        pred = predict(item.tokens[: item.answer_pos + 1])
        totals[item.context_len] = totals.get(item.context_len, 0) + 1
        hits[item.context_len] = hits.get(item.context_len, 0) + int(pred == item.answer)
    return {length: hits[length] / totals[length] for length in sorted(totals)}
