import math

import numpy as np
import pytest

import tweetembed.model
from tweetembed.manifest import read_container
from tweetembed.model import (
    CHECKPOINT_MAGIC,
    LOSS_FLOOR,
    MAX_NLL,
    PARAM_FIELDS,
    ModelHyper,
    ModelParams,
    Workspace,
    backward_arrays,
    evaluate,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
    sigmoid,
    softmax,
)

from memory import traced_peak
from oracles import oracle_backward, oracle_nll, oracle_sigmoid, oracle_softmax


def tiny_hyper(**kwargs):
    defaults = dict(vocab_size=8, d_in=4, d_ctx=4)
    defaults.update(kwargs)
    return ModelHyper(**defaults)


def fresh_sigmoid(x):
    """`sigmoid` into a new array, leaving `x` alone."""
    x = np.array(x, dtype=np.float64)  # a copy, which sigmoid overwrites as scratch
    return sigmoid(x, np.empty_like(x))


def one(context):
    """A batch of size 1 holding one context."""
    return np.array([context], dtype=np.int64)


def zero_params(hyper):
    params = init_params(hyper, seed=0)
    for name in PARAM_FIELDS:
        getattr(params, name)[...] = 0.0
    return params


class TestInit:
    def test_shapes_include_boundary_rows(self):
        params = init_params(tiny_hyper(), seed=1)
        assert params.w_input.shape == (12, 4)
        assert params.w_ctx.shape == (16, 4)
        assert params.b_ctx.shape == (4,)
        assert params.w_output.shape == (4, 8)
        assert params.b_out.shape == (8,)

    def test_same_seed_identical(self):
        a = init_params(tiny_hyper(), seed=7)
        b = init_params(tiny_hyper(), seed=7)
        for name in PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_biases_zero(self):
        params = init_params(tiny_hyper(), seed=3)
        assert not params.b_ctx.any()
        assert not params.b_out.any()

    def test_glorot_bounds(self):
        params = init_params(tiny_hyper(vocab_size=100, d_in=10, d_ctx=10), seed=2)
        limit = math.sqrt(6.0 / (104 + 10))
        assert np.abs(params.w_input).max() <= limit

    def test_bad_hyper_rejected(self):
        with pytest.raises(ValueError):
            ModelHyper(vocab_size=0)
        with pytest.raises(ValueError):
            ModelHyper(vocab_size=4, d_in=0)


class TestFlatLayout:
    def test_named_arrays_are_views_of_flat_in_field_order(self):
        params = init_params(tiny_hyper(), seed=4)
        assert params.flat.shape == (param_count(params.hyper),)
        start = 0
        for name in PARAM_FIELDS:
            arr = getattr(params, name)
            assert np.shares_memory(arr, params.flat), name
            np.testing.assert_array_equal(params.flat[start:start + arr.size], arr.ravel())
            start += arr.size
        assert start == params.flat.size
        params.flat[...] = 0.0
        assert not any(getattr(params, name).any() for name in PARAM_FIELDS)

    def test_rebinding_an_array_raises(self):
        params = init_params(tiny_hyper(), seed=4)
        for name in (*PARAM_FIELDS, "flat"):
            before = getattr(params, name)
            with pytest.raises(AttributeError):
                setattr(params, name, before.copy())
            assert getattr(params, name) is before
        with pytest.raises(AttributeError):
            params.b_out += 1.0

    def test_wrong_flat_rejected(self):
        hyper = tiny_hyper()
        size = param_count(hyper)
        assert not ModelParams(hyper).flat.any()
        for flat in (np.zeros(size - 1), np.zeros(size, dtype=np.float32),
                     np.zeros(2 * size)[::2]):
            with pytest.raises(ValueError):
                ModelParams(hyper, flat)


def losses(params, context):
    """evaluate's loss for `context` with every target in turn, i.e. -ln p over |V|."""
    n = params.hyper.vocab_size
    return np.array([evaluate(params, one(context), np.array([t])) for t in range(n)])


class TestForward:
    def test_zero_weights_give_uniform_distribution(self):
        params = zero_params(tiny_hyper())
        np.testing.assert_allclose(losses(params, (0, 1, 2, 3)), math.log(8), atol=1e-12)

    def test_probabilities_normalize(self):
        params = init_params(tiny_hyper(vocab_size=50, d_in=6, d_ctx=5), seed=9)
        nll = losses(params, (3, 1, 53, 52))
        assert abs(np.exp(-nll).sum() - 1.0) < 1e-6
        assert np.all(nll > 0) and np.all(np.isfinite(nll))

    def test_concatenation_is_order_sensitive(self):
        params = init_params(tiny_hyper(), seed=4)
        assert not np.array_equal(losses(params, (0, 1, 2, 3)), losses(params, (3, 2, 1, 0)))
        np.testing.assert_array_equal(losses(params, (5, 5, 5, 5)), losses(params, (5, 5, 5, 5)))

    def test_merged_concatenates_in_context_order(self):
        # The oracle concatenates the four embedding rows in context order.
        params = init_params(tiny_hyper(), seed=4)
        targets = np.arange(8)
        expected = oracle_nll(params, np.tile([7, 2, 0, 11], (8, 1)), targets)
        np.testing.assert_allclose(losses(params, (7, 2, 0, 11)), expected, rtol=1e-12)
        assert not np.allclose(losses(params, (11, 0, 2, 7)), expected)

    def test_deterministic(self):
        params = init_params(tiny_hyper(), seed=4)
        np.testing.assert_array_equal(losses(params, (1, 2, 3, 4)), losses(params, (1, 2, 3, 4)))


class TestSoftmaxAndLoss:
    def test_shift_invariance(self):
        logits = np.array([0.1, -2.0, 3.5, 0.0])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 123.4), atol=1e-12)

    def test_extreme_logits_stable(self):
        probs = softmax(np.array([1000.0, 0.0, -1000.0]))
        assert np.isfinite(probs).all()
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_sigmoid_matches_closed_form(self):
        x = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(fresh_sigmoid(x), 1 / (1 + np.exp(-x)), atol=1e-12)

    def test_bit_identical_to_reference_implementations(self):
        rng = np.random.default_rng(3)
        edges = np.array([0.0, -0.0, 745.0, -745.0, 1000.0, -1000.0, np.nan, 1.0])
        rows = np.vstack([edges, edges[::-1], np.roll(edges, 3), edges * 0.5,
                          rng.normal(0.0, 5.0, (6, 8)), rng.normal(0.0, 300.0, (6, 8))])
        for x in (rows, rows[4], edges[:6]):
            assert np.array_equal(fresh_sigmoid(x), oracle_sigmoid(x), equal_nan=True)
            assert np.array_equal(softmax(x), oracle_softmax(x), equal_nan=True)
        for x in (np.array(-0.0), np.array(745.0), np.array(np.nan)):
            assert np.array_equal(fresh_sigmoid(x), oracle_sigmoid(x), equal_nan=True)

    def test_uniform_loss_is_log_vocab(self):
        params = zero_params(tiny_hyper(vocab_size=2048))
        loss = evaluate(params, one((0, 1, 2, 3)), np.array([17]))
        assert loss == pytest.approx(math.log(2048), abs=1e-9)
        assert loss == pytest.approx(7.6246, abs=1e-4)

    def test_certain_prediction_has_zero_loss(self):
        params = zero_params(tiny_hyper(vocab_size=4))
        params.b_out[2] = 1e3
        assert evaluate(params, one((0, 1, 2, 3)), np.array([2])) == 0.0

    def test_zero_probability_clamped(self, caplog):
        params = zero_params(tiny_hyper(vocab_size=4))
        params.b_out[3] = -1e3
        loss = evaluate(params, one((0, 1, 2, 3)), np.array([3]))
        assert loss == MAX_NLL == pytest.approx(-math.log(LOSS_FLOOR))
        assert [r.getMessage() for r in caplog.records] == [
            "1 target probabilities clamped to 1e-12 before log"]


def numeric_gradient(params, batch, name, h=1e-4):
    """Central finite differences through `evaluate` (forward + cross entropy) only."""
    arr = getattr(params, name)
    contexts, targets = batch

    def mean_loss():
        return evaluate(params, contexts, targets)

    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        lp = mean_loss()
        arr[idx] = orig - h
        lm = mean_loss()
        arr[idx] = orig
        grad[idx] = (lp - lm) / (2 * h)
    return grad


_FORWARD = tweetembed.model._forward_to_logits


def record_forward_rows(monkeypatch):
    """A list to which each later `_forward_to_logits` call appends its row count."""
    calls = []

    def recorded(params, contexts, ws, first=0):
        calls.append(len(contexts))
        return _FORWARD(params, contexts, ws, first)

    monkeypatch.setattr(tweetembed.model, "_forward_to_logits", recorded)
    return calls


def random_batch(rng, hyper, size):
    """(contexts, targets) int64 arrays; each row's context ids are drawn before its target."""
    contexts, targets = [], []
    for _ in range(size):
        contexts.append(rng.integers(0, hyper.vocab_size + 4, 4))
        targets.append(rng.integers(0, hyper.vocab_size))
    return (np.array(contexts, dtype=np.int64).reshape(-1, 4),
            np.array(targets, dtype=np.int64))


class TestBackward:
    def test_gradient_matches_finite_differences(self):
        hyper = tiny_hyper(vocab_size=12, d_in=5, d_ctx=6)
        params = init_params(hyper, seed=3)
        rng = np.random.default_rng(0)
        batch = random_batch(rng, hyper, 7)
        grads = backward_arrays(params, *batch)
        for name in PARAM_FIELDS:
            numeric = numeric_gradient(params, batch, name)
            analytic = getattr(grads, name)
            rel = np.abs(analytic - numeric) / (np.abs(analytic) + 1e-6)
            assert rel.max() < 1e-3, f"{name}: max rel err {rel.max():.2e}"

    def test_bits_match_add_at_oracle(self):
        # 300 rows (not a multiple of 256) over seven ids: two words and
        # the four boundary ids repeat in almost every row. Zeroing w_ctx
        # makes every d_merged product a signed zero, which the GEMM sums
        # to +0.0, so the whole w_input gradient must be +0.0.
        hyper = tiny_hyper(vocab_size=12, d_in=5, d_ctx=6)
        params = init_params(hyper, seed=4)
        rng = np.random.default_rng(11)
        contexts = rng.choice([0, 3, 12, 13, 14, 15, 7], size=(300, 4),
                              p=[0.3, 0.3, 0.1, 0.1, 0.1, 0.09, 0.01])
        contexts[0] = [12, 13, 14, 15]
        targets = rng.integers(0, hyper.vocab_size, 300)
        for zero_ctx in (False, True):
            if zero_ctx:
                params.w_ctx[...] = 0.0
            fast = backward_arrays(params, contexts, targets)
            slow = oracle_backward(params, contexts, targets)
            assert np.array_equal(fast.flat.view(np.int64), slow.flat.view(np.int64)), zero_ctx
            assert fast.w_input.any() != zero_ctx
        assert not np.signbit(fast.w_input).any()

    def test_bincount_adds_like_add_at(self):
        # The scatter relies on np.bincount adding each bin's weights from
        # +0.0 in index order, as np.add.at does: pin that, with repeated
        # bins, -0.0 weights and sums that depend on their order.
        weights = np.array([-0.0, 1e16, -0.0, 1.0, -1e16, 1.0, -0.0, 3.0])
        bins = np.array([0, 1, 0, 1, 1, 1, 2, 3])
        expected = np.zeros(5)
        np.add.at(expected, bins, weights)
        got = np.bincount(bins, weights=weights, minlength=5)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert got[1] == 1.0 and not np.signbit(got[0])

    def test_shared_input_gradient_sparsity(self):
        params = init_params(tiny_hyper(), seed=5)
        grads = backward_arrays(params, one((0, 3, 7, 10)), np.array([2]))
        nonzero_rows = {int(i) for i in np.nonzero(grads.w_input.any(axis=1))[0]}
        assert nonzero_rows == {0, 3, 7, 10}

    def test_repeated_context_id_accumulates(self):
        params = init_params(tiny_hyper(), seed=5)
        grads = backward_arrays(params, one((6, 6, 6, 6)), np.array([2]))
        nonzero_rows = {int(i) for i in np.nonzero(grads.w_input.any(axis=1))[0]}
        assert nonzero_rows == {6}

    def test_duplicated_batch_keeps_mean_gradient(self):
        params = init_params(tiny_hyper(), seed=6)
        rng = np.random.default_rng(2)
        contexts, targets = random_batch(rng, params.hyper, 5)
        once = backward_arrays(params, contexts, targets)
        twice = backward_arrays(params, np.concatenate([contexts, contexts]),
                                np.concatenate([targets, targets]))
        for name in PARAM_FIELDS:
            np.testing.assert_allclose(getattr(once, name), getattr(twice, name), atol=1e-12)

    def test_empty_batch_rejected(self):
        params = init_params(tiny_hyper(), seed=6)
        with pytest.raises(ValueError):
            backward_arrays(params, np.empty((0, 4), dtype=np.int64),
                            np.empty(0, dtype=np.int64))

    def test_small_step_reduces_single_example_loss(self):
        params = init_params(tiny_hyper(), seed=8)
        contexts, targets = one((1, 2, 3, 4)), np.array([5])
        before = evaluate(params, contexts, targets)
        grads = backward_arrays(params, contexts, targets)
        step = 0.05  # well below the quadratic-approximation breakdown here
        for name in PARAM_FIELDS:
            getattr(params, name)[...] -= step * getattr(grads, name)
        after = evaluate(params, contexts, targets)
        assert after < before


class TestEvaluate:
    def test_matches_per_example_mean(self, caplog, monkeypatch):
        # The default chunk holds all 23 rows; chunks of 5 and 4 rows leave
        # a short last chunk. The clamped case pins one target's logit far
        # below the rest, so every row with that target, in several chunks,
        # hits LOSS_FLOOR, and evaluate still warns once.
        rng = np.random.default_rng(7)
        default_chunk = tweetembed.model.EVAL_CHUNK_ROWS
        for clamped in (False, True):
            hyper = tiny_hyper(vocab_size=10, d_in=3, d_ctx=3)
            params = init_params(hyper, seed=1)
            contexts, targets = random_batch(rng, hyper, 23)
            if clamped:
                params.b_out[targets[0]] = -100.0
            expected = np.mean(oracle_nll(params, contexts, targets))
            n_clamped = int((targets == targets[0]).sum())
            if clamped:
                assert n_clamped > 1 and expected > n_clamped * MAX_NLL / 23
            for chunk in (default_chunk, 5, 4):
                monkeypatch.setattr(tweetembed.model, "EVAL_CHUNK_ROWS", chunk)
                caplog.clear()
                got = evaluate(params, contexts, targets)
                assert abs(got - expected) <= 1e-12 * expected, (clamped, chunk)
                warnings = [r.getMessage() for r in caplog.records]
                assert warnings == (
                    [f"{n_clamped} target probabilities clamped to 1e-12 before log"]
                    if clamped else [])

    def test_empty_rejected(self):
        params = init_params(tiny_hyper(), seed=1)
        with pytest.raises(ValueError):
            evaluate(params, np.empty((0, 4), dtype=np.int64), np.empty(0, dtype=np.int64))

    def test_loss_bits_do_not_follow_the_workspace(self):
        # A training workspace is as tall as the batch, or taller. At
        # |V| = 302, where the BLAS rounds some logits with a product's row
        # count, workspaces of 256, 512 and 5000 rows and none at all run
        # the same chunks, 31 of 256 rows and one of 64, so the loss keeps
        # its bits.
        hyper = ModelHyper(vocab_size=302)
        params = init_params(hyper, seed=2)
        rng = np.random.default_rng(5)
        contexts = rng.integers(0, hyper.vocab_size + 4, (8000, 4))
        targets = rng.integers(0, hyper.vocab_size, 8000)
        whole = evaluate(params, contexts, targets)
        for rows in (256, 512, 5000):
            got = evaluate(params, contexts, targets, Workspace(hyper, rows))
            assert got.hex() == whole.hex(), rows

    def test_chunk_height_does_not_follow_a_wider_workspace(self, monkeypatch):
        # A batch above EVAL_CHUNK_ROWS must not widen evaluate's chunks,
        # since at some widths the BLAS rounds a row's logits with the row
        # count, and neither may |V|: at |V| = 5000 the chunks are 256 rows
        # as at |V| = 300.
        def run(hyper, n, rows):
            params = init_params(hyper, seed=8)
            rng = np.random.default_rng(9)
            contexts = rng.integers(0, hyper.vocab_size + 4, (n, 4))
            targets = rng.integers(0, hyper.vocab_size, n)
            calls = record_forward_rows(monkeypatch)
            loss = evaluate(params, contexts, targets, Workspace(hyper, rows))
            return calls, loss.hex()

        hyper = ModelHyper(vocab_size=300)
        wide, narrow = run(hyper, 4000, 512), run(hyper, 4000, 256)
        assert wide == narrow
        assert wide[0] == [256] * 15 + [160]
        assert run(ModelHyper(vocab_size=5000, d_in=8, d_ctx=8), 600, 256)[0] == [256, 256, 88]

    def test_no_chunk_of_one_row(self, monkeypatch):
        # numpy multiplies a single row by matrix-vector products, which
        # round some logits otherwise. So when the last chunk would be one
        # row long, the last two share their rows: 7 rows in chunks of 3
        # run as 3, 2 and 2.
        hyper = tiny_hyper(vocab_size=12)
        params = init_params(hyper, seed=2)
        rng = np.random.default_rng(5)
        contexts, targets = random_batch(rng, hyper, 300)
        calls = record_forward_rows(monkeypatch)
        for chunk in (3, 8):
            monkeypatch.setattr(tweetembed.model, "EVAL_CHUNK_ROWS", chunk)
            for n in range(2, 300):
                calls.clear()
                evaluate(params, contexts[:n], targets[:n])
                assert sum(calls) == n and min(calls) >= 2 and max(calls) <= chunk, (chunk, n)
        calls.clear()
        monkeypatch.setattr(tweetembed.model, "EVAL_CHUNK_ROWS", 3)
        evaluate(params, contexts[:7], targets[:7])
        assert calls == [3, 2, 2]

    def test_peak_memory_does_not_grow_with_rows(self):
        # Computed 8192 rows at a time at |V| = 128, one call peaked at
        # 32 MB of temporaries.
        hyper = ModelHyper(vocab_size=128)
        params = init_params(hyper, seed=3)
        rng = np.random.default_rng(6)
        contexts = rng.integers(0, hyper.vocab_size + 4, (20000, 4))
        targets = rng.integers(0, hyper.vocab_size, 20000)

        def peak(n):
            return traced_peak(evaluate, params, contexts[:n], targets[:n])[1]

        big, small = peak(20000), peak(2000)
        assert big < 4 * 2 ** 20
        assert abs(big - small) <= 0.1 * big, (big, small)


class TestWorkspace:
    def test_nbytes_counts_every_array(self):
        hyper = ModelHyper(vocab_size=300, d_in=5, d_ctx=7)
        ws = Workspace(hyper, 11)
        arrays = {id(a): a for a in vars(ws).values() if isinstance(a, np.ndarray)}
        assert Workspace.nbytes(hyper, 11) == sum(a.nbytes for a in arrays.values())

    def test_reused_workspace_gives_the_same_gradient(self):
        # A smaller batch after a larger one reads only its own rows.
        hyper = tiny_hyper(vocab_size=12)
        params = init_params(hyper, seed=4)
        rng = np.random.default_rng(8)
        ws = Workspace(hyper, 9)
        for size in (9, 4, 9, 1):
            contexts, targets = random_batch(rng, hyper, size)
            shared = backward_arrays(params, contexts, targets, ws)
            fresh = backward_arrays(params, contexts, targets)
            assert np.array_equal(shared.flat.view(np.int64), fresh.flat.view(np.int64)), size
            assert evaluate(params, contexts, targets, ws) == evaluate(params, contexts, targets)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        hyper = tiny_hyper(vocab_size=9, d_in=3, d_ctx=5)
        params = init_params(hyper, seed=77)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path, seed=77, vocab_hash="abc123")
        loaded, header = load_checkpoint(path)
        assert loaded.hyper == hyper
        assert header["seed"] == 77
        assert header["vocab_hash"] == "abc123"
        for name in PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(loaded, name), getattr(params, name))

    def test_header_holds_the_format_hyper_seed_and_vocab_hash_only(self, tmp_path):
        # The hyperparameters fix the body's layout; the header states it nowhere else.
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(tiny_hyper(vocab_size=9, d_in=3, d_ctx=5), seed=2), path,
                        seed=2, vocab_hash="abc123")
        header, body = read_container(path.read_bytes(), CHECKPOINT_MAGIC)
        assert header == {"format": 1, "hyper": {"vocab_size": 9, "d_in": 3, "d_ctx": 5},
                          "seed": 2, "vocab_hash": "abc123"}
        assert len(body) == 8 * param_count(tiny_hyper(vocab_size=9, d_in=3, d_ctx=5))

    def test_identical_saves_identical_bytes(self, tmp_path):
        params = init_params(tiny_hyper(), seed=1)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, a, seed=1, vocab_hash="")
        save_checkpoint(params, b, seed=1, vocab_hash="")
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_magic_is_versioned(self):
        assert CHECKPOINT_MAGIC == b"EMBCKPT1"
