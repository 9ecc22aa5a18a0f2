"""The hot path's calls with fresh buffers of the kind `training.train`
builds for them, for tests that want one loss or one gradient."""

from tweetembed.model import EVAL_CHUNK_ROWS, Workspace, backward_arrays, evaluate, group_contexts


def loss_of(params, contexts, targets):
    """`evaluate` over the rows, in a workspace of EVAL_CHUNK_ROWS rows and
    with the contexts' own grouping."""
    return evaluate(params, contexts, targets, Workspace(params.hyper, EVAL_CHUNK_ROWS),
                    group_contexts(contexts, params.hyper.vocab_size))


def gradient_of(params, contexts, targets):
    """`backward_arrays` over a batch, in a workspace of the batch's rows."""
    return backward_arrays(params, contexts, targets, Workspace(params.hyper, len(targets)))
