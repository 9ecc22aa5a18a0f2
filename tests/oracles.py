"""Independent brute-force reference implementations used as test oracles.

Deliberately written with different techniques than the library (character
scans, quadratic recounts, full rescans) so that agreement is meaningful.
"""

from __future__ import annotations

import math

import numpy as np

import tweetembed.model
from tweetembed.model import (MAX_NLL, PARAM_FIELDS, ModelParams, Workspace,
                             _forward_to_logits, _in_parts)
from tweetembed.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, EpochLog,
                                 TrainingDiverged)

PADS = ("<PAD_L1>", "<PAD_L2>", "<PAD_R1>", "<PAD_R2>")


def oracle_tokenize(text: str) -> list[str]:
    words: list[str] = []
    current: list[str] = []
    for ch in text + " ":
        if ch.isspace():
            if current:
                words.append("".join(current))
                current = []
        else:
            current.append(ch)
    out: list[str] = []
    for token in words:
        if token in ("T_HANDLE", "LINK"):
            out.append(token)
        elif token[0] == "@" and len(token) >= 2:
            out.append("T_HANDLE")
        elif token.lower()[:7] == "http://" or token.lower()[:8] == "https://":
            out.append("LINK")
        else:
            out.append(token.lower())
    return out


def oracle_windows(tokens: list[str]) -> list[tuple[str, ...]]:
    padded = [PADS[0], PADS[1]] + list(tokens) + [PADS[2], PADS[3]]
    return [tuple(padded[i - 2 : i + 3]) for i in range(2, len(padded) - 2)]


def oracle_count(tweets: list[str]):
    """Quadratic recount: enumerate all windows, then re-scan per distinct one."""
    windows: list[tuple[str, ...]] = []
    total_tweets = 0
    total_tokens = 0
    for tweet in tweets:
        tokens = oracle_tokenize(tweet)
        if not tokens:
            continue
        total_tweets += 1
        total_tokens += len(tokens)
        windows.extend(oracle_windows(tokens))
    records = {}
    for gram in set(windows):
        records[gram] = sum(1 for other in windows if other == gram)
    return records, total_tweets, total_tokens


def oracle_dictionary(records: dict) -> list[tuple[str, int]]:
    freqs: dict[str, int] = {}
    for gram, count in records.items():
        center = gram[2]
        if center in PADS:
            continue
        freqs[center] = freqs.get(center, 0) + count
    items = list(freqs.items())
    items.sort(key=lambda kv: kv[0])
    items.sort(key=lambda kv: kv[1], reverse=True)  # stable: keeps word order in ties
    return items


def dictionary_entries(dictionary) -> list[tuple[str, int]]:
    """A `Dictionary`'s (word, frequency) pairs in rank order, the oracles' form."""
    return [(dictionary.types[i], freq)
            for i, freq in zip(dictionary.ids.tolist(), dictionary.freqs.tolist())]


def oracle_write_dictionary(entries: list[tuple[str, int]], path) -> None:
    """The dictionary file written one `word<TAB>frequency<TAB>rank` line at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rank, (word, freq) in enumerate(entries):
            fh.write(f"{word}\t{freq}\t{rank}\n")


def type_ids(db, words) -> np.ndarray:
    """The type ids of `words` in `db`, in order: the vocabulary `filter_ngrams` takes."""
    return np.array([db.types.index(word) for word in words], dtype=np.int32)


def oracle_filter(records: dict, vocab_words: list[str],
                  include_boundary: bool = False) -> set[tuple[str, ...]]:
    """Token-level scan; returns the set of qualifying 5-gram token tuples."""
    vocab = set(vocab_words)
    context_ok = vocab | (set(PADS) if include_boundary else set())
    out = set()
    for gram in records:
        w1, w2, w3, w4, w5 = gram
        if w3 in vocab and all(t in context_ok for t in (w1, w2, w4, w5)):
            out.add(gram)
    return out


def oracle_cosine(u, v) -> float:
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return dot / (nu * nv)


def oracle_topological(words, vectors, word_classes) -> tuple[int, int]:
    """(evaluated, passed) by direct definition, all cosines via oracle_cosine."""
    usable = [w for w in words if any(x != 0.0 for x in vectors[words.index(w)])
              and w in word_classes]
    evaluated = passed = 0
    for w in usable:
        same, diff = [], []
        for other in usable:
            if other == w:
                continue
            cos = oracle_cosine(vectors[words.index(w)], vectors[words.index(other)])
            if word_classes[w] & word_classes[other]:
                same.append(cos)
            else:
                diff.append(cos)
        if not same or not diff:
            continue
        evaluated += 1
        if min(same) > max(diff):
            passed += 1
    return evaluated, passed


def oracle_suite(words, vectors, classes, pairs, membership, distinction, equivalence):
    """The standard suite's reports as tuples of TestReport fields, by
    direct definition over pair lists, with every cosine from oracle_cosine.

    `classes` maps a class name to its members and `pairs` lists the
    equivalence pairs as (left, right). A test with no pairs at all divides
    by zero.
    """
    vec = dict(zip(words, vectors))

    def scorable(w):
        return w in vec and any(x != 0.0 for x in vec[w])

    word_classes: dict[str, set[str]] = {}
    for name, members in classes.items():
        for w in members:
            word_classes.setdefault(w, set()).add(name)
    gold = sorted(word_classes)
    within = [(a, b) for a in gold for b in gold if a < b and word_classes[a] & word_classes[b]]
    across = [(a, b) for a in gold for b in gold
              if a < b and not word_classes[a] & word_classes[b]]

    def threshold_reports(name, pair_list, thresholds, passes):
        covered = [(a, b) for a, b in pair_list if a in vec and b in vec]
        cosines = [oracle_cosine(vec[a], vec[b]) for a, b in covered
                   if scorable(a) and scorable(b)]
        out = []
        for t in thresholds:
            passed = sum(1 for c in cosines if passes(c, t))
            out.append((name, t, len(covered) / len(pair_list), len(cosines), passed,
                        passed / len(cosines) if cosines else None, len(covered) - len(cosines)))
        return out

    reports = (threshold_reports("class_membership", within, membership, lambda c, t: c > t)
               + threshold_reports("class_distinction", across, distinction, lambda c, t: c < t)
               + threshold_reports("word_equivalence", pairs, equivalence, lambda c, t: c > t))
    usable = [w for w in gold if scorable(w)]
    if sum(1 for members in classes.values() if sum(w in usable for w in members) >= 2) >= 2:
        evaluated, passed = oracle_topological(words, vectors, word_classes)
        zero = sum(1 for w in gold if w in vec and not scorable(w))
        reports.append(("topological_consistency", None, len(usable) / len(gold), evaluated,
                        passed, passed / evaluated if evaluated else None, zero))
    return reports


def oracle_permutation(n: int, seed: int) -> list[int]:
    """Fisher-Yates over scalar SplitMix64 draws, one Python-int draw per swap."""
    mask = (1 << 64) - 1
    state = seed & mask
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        j = z % (i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def oracle_derive_seed(seed: int, stream: int) -> int:
    """One scalar SplitMix64 step from `seed`, plus stream * GAMMA, in Python ints."""
    mask = (1 << 64) - 1
    z = (seed + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    return (z + (stream & mask) * 0x9E3779B97F4A7C15) & mask


def oracle_sigmoid(x):
    """Logistic function by boolean masks, each side with its own temporaries."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def oracle_softmax(logits):
    """Row-wise softmax with one fresh array per step."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def oracle_adam_step(params, grads, state, cfg):
    """Textbook bias-corrected Adam (Kingma & Ba), with m_hat and v_hat spelled out."""
    state.t += 1
    t = state.t
    for name in PARAM_FIELDS:
        g = getattr(grads, name)
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient in {name} at step {t}")
        m = getattr(state.m, name)
        v = getattr(state.v, name)
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        getattr(params, name)[...] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def oracle_forward(params, contexts):
    """(merged, ctx_act, logits, probs) for a (B, 4) batch, each row's
    input built by concatenating its four embedding rows, and every layer
    as a fresh array through the oracle sigmoid and softmax. The products
    are (B, .) @ (., .) GEMMs of the library's shapes, so their bits match."""
    merged = np.array([np.concatenate([params.w_input[i] for i in row]) for row in contexts],
                      dtype=np.float64).reshape(len(contexts), -1)
    ctx_act = oracle_sigmoid(merged @ params.w_ctx + params.b_ctx)
    logits = ctx_act @ params.w_output + params.b_out
    return merged, ctx_act, logits, oracle_softmax(logits)


def oracle_nll(params, contexts, targets):
    """Each row's loss -ln p_target, from the oracle's probabilities, with
    p_target clamped at 1e-12 (the library's LOSS_FLOOR)."""
    probs = oracle_forward(params, contexts)[3]
    return -np.log(np.maximum(probs[np.arange(len(targets)), targets], 1e-12))


def oracle_evaluate(params, contexts, targets, ws=None):
    """(mean loss, clamp count) by `model.evaluate`'s row-by-row form before
    it grouped rows by context: the forward pass runs once per row, in
    chunks of EVAL_CHUNK_ROWS rows (the last two sharing their rows when
    the last would be one row long), each chunk's losses clamped and
    summed on their own and the sums added in order. With a pool in `ws`,
    a chunk splits in halves as the library's passes do."""
    n = targets.shape[0]
    chunk_rows = tweetembed.model.EVAL_CHUNK_ROWS
    if ws is None:
        ws = Workspace(params.hyper, min(n, chunk_rows))
    bounds = [*range(0, n, chunk_rows), n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        bounds[-2] -= 1
    losses = np.empty(min(n, chunk_rows))
    total = 0.0
    n_clamped = 0
    for lo, hi in zip(bounds, bounds[1:]):
        nll = losses[:hi - lo]

        def rows(a, b):  # rows lo + a .. lo + b - 1 of the dataset
            m = b - a
            logits = _forward_to_logits(params, contexts[lo + a:lo + b], ws, a)[-1]
            top = np.max(logits, axis=1, out=ws.top[a:b])
            np.subtract(top, logits[ws.row_ids[:m], targets[lo + a:lo + b]], out=nll[a:b])
            logits -= top[:, None]
            np.exp(logits, out=logits)
            np.log(np.sum(logits, axis=1, out=top), out=top)
            nll[a:b] += top

        _in_parts(ws.pool, hi - lo, rows, params.hyper.vocab_size, least=2)
        n_clamped += int(np.count_nonzero(nll > MAX_NLL))
        np.minimum(nll, MAX_NLL, out=nll)
        total += float(nll.sum())
    return total / n, n_clamped


def oracle_backward(params, contexts, targets):
    """The mean cross-entropy gradient with one fresh array per step, and
    the shared input rows accumulated by `np.add.at` into zeros."""
    batch = targets.shape[0]
    merged, ctx_act, _, probs = oracle_forward(params, contexts)
    d_out_pre = probs.copy()
    d_out_pre[np.arange(batch), targets] -= 1.0
    d_out_pre = d_out_pre / batch
    d_act = d_out_pre @ params.w_output.T
    d_ctx_pre = d_act * ctx_act * (1.0 - ctx_act)
    d_merged = d_ctx_pre @ params.w_ctx.T
    grads = ModelParams(params.hyper)
    grads.w_output[...] = ctx_act.T @ d_out_pre
    grads.b_out[...] = d_out_pre.sum(axis=0)
    grads.w_ctx[...] = merged.T @ d_ctx_pre
    grads.b_ctx[...] = d_ctx_pre.sum(axis=0)
    np.add.at(grads.w_input, contexts.ravel(), d_merged.reshape(-1, params.hyper.d_in))
    return grads


def read_run_log(path) -> list[EpochLog]:
    """A run log's lines `epoch<TAB>train<TAB>val<TAB>secs` as EpochLogs."""
    logs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            epoch, train_loss, val_loss, secs = line.rstrip("\n").split("\t")
            logs.append(EpochLog(int(epoch), float(train_loss), float(val_loss), float(secs)))
    return logs


def example_grams(vocab, examples) -> list[tuple[str, ...]]:
    """Training example rows (c1 c2 c4 c5 target ids) as 5-gram token
    tuples, in row order; ids past the words are the four pads."""
    tokens = [*vocab, *PADS]
    return [tuple(tokens[i] for i in (c1, c2, target, c4, c5))
            for c1, c2, c4, c5, target in examples.tolist()]


def db_records(db) -> dict[tuple[str, ...], int]:
    """An NGramDatabase's rows as {token tuple: count}, the oracles' form."""
    return {tuple(db.types[i] for i in row): count
            for row, count in zip(db.records.tolist(), db.counts.tolist())}


def read_ngram_tsv(path) -> tuple[list[tuple[tuple[str, ...], int]], int, int]:
    """The 5-gram TSV text view, parsed line by line: its rows in file order
    as (token tuple, count) and the header's total_tweets and total_tokens.
    Every line must end in a newline, every row have six tab-separated
    fields and every number be ASCII digits."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *lines = fh.read().split("\n")
    assert lines.pop() == ""
    tweets, tokens = header.split("\t")
    assert tweets[:len("#total_tweets=")] == "#total_tweets="
    assert tokens[:len("#total_tokens=")] == "#total_tokens="
    numbers = [tweets[len("#total_tweets="):], tokens[len("#total_tokens="):]]
    rows = []
    for line in lines:
        fields = line.split("\t")
        assert len(fields) == 6, line
        numbers.append(fields[5])
        rows.append((tuple(fields[:5]), fields[5]))
    assert all(number and all("0" <= ch <= "9" for ch in number) for number in numbers)
    return ([(gram, int(count)) for gram, count in rows], int(numbers[0]), int(numbers[1]))
