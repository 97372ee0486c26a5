"""The posterior kernel under the mixture prior.

The kernel ``posterior_bank`` does component-wise conjugate updates and
marginal-likelihood weight updates in log space (so extreme prior-data
conflict never underflows) on whole vectors of observed means at once,
in slices from ``bank_chunks``. The engines and the bimodality map call
it on the prior's array form, ``priors.AxisBank``, whose ``kernel`` runs
it as ``posterior_bank_into`` on this thread's reused work buffers
(``work_array``), so a chunk allocates nothing of size components x draws
and takes no page faults once the buffers are warm. The allocating
``posterior_bank`` is the same kernel writing into new arrays.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = [
    "posterior_bank",
    "posterior_bank_into",
    "work_array",
    "bank_chunks",
]

# Per-chunk element budget for the (components x reps) work matrices, 4 MB
# each. On fig1-t (101 components, 1e5 reps) on a 2-core Xeon with 4 MB L2
# per core, 1 << 19 and 1 << 20 ran fastest of 1 << 14 to 4 << 20 on 1 and
# on 2 threads, 1 << 19 with the smaller resident set (ROADMAP.md).
_CHUNK_ELEMENTS = 1 << 19

# The guard (in standard errors of the tested mean) by which both trials'
# Monte Carlo counts widen the bands of draws they re-decide by the kernel:
# far wider than the kernel's rounding at a decision boundary.
_GUARD_SE = 1e-9


def posterior_bank(means, variances, log_weights, ybar, n, sigma):
    """Vectorized conjugate + weight update over a component bank.

    Parameters
    ----------
    means : array (J,) or (J, R)
        Prior component means; a (J, R) shape carries data-dependent
        locations (one per observed mean).
    variances, log_weights : array (J,), or log_weights (J, R), one per mean
        Prior component variances and log prior weights (-inf allowed).
    ybar : scalar or array (R,)
        Observed current mean(s).
    n, sigma : int, float
        Current sample size and known per-observation sd.

    Returns
    -------
    post_weights : (J, R) posterior component weights (columns sum to 1)
    post_means : (J, R)
    post_vars : (J,)

    The (J, R) arrays are new; ``posterior_bank_into`` writes them into
    the caller's buffers instead.
    """
    width = np.shape(means)[1] if np.ndim(means) == 2 else 1
    shape = (np.size(variances), max(width, np.size(ybar)))
    post_w, post_mean = np.empty(shape), np.empty(shape)
    post_var = posterior_bank_into(means, variances, log_weights, ybar, n, sigma, post_w, post_mean)
    return post_w, post_mean, post_var


def posterior_bank_into(means, variances, log_weights, ybar, n, sigma, post_w, post_mean):
    """``posterior_bank`` written into ``post_w`` and ``post_mean``, (J, R)
    C-contiguous buffers that overlap no input; returns ``post_vars``.

    Each (J, R) step is one ufunc with ``out=``; the (1, R) temporaries
    use this thread's ``work_array("col")``. The results do not depend on
    where they are written, only on the buffers' shapes.
    """
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    variances = np.asarray(variances, dtype=float)
    log_weights = np.asarray(log_weights, dtype=float)
    means = np.asarray(means, dtype=float)
    if means.ndim == 1:
        means = means[:, None]
    if not (np.isfinite(ybar).all() and np.isfinite(variances).all()):
        raise ValueError("degenerate data: non-finite inputs to the weight update")

    data_precision = n / (sigma * sigma)
    pred_var = (variances + 1.0 / data_precision)[:, None]
    col = work_array("col", 1, post_w.shape[1])
    # log marginal: -0.5 * (log(2 pi pred_var) + (ybar - means)**2 / pred_var)
    logw = np.subtract(ybar[None, :], means, out=post_w)
    np.square(logw, out=logw)
    np.divide(logw, pred_var, out=logw)
    np.add(np.log(2.0 * np.pi * pred_var), logw, out=logw)
    np.multiply(-0.5, logw, out=logw)
    np.add(log_weights.reshape(variances.size, -1), logw, out=logw)
    np.subtract(logw, np.maximum.reduce(logw, axis=0, keepdims=True, out=col), out=logw)
    np.exp(logw, out=post_w)
    norm = np.add.reduce(post_w, axis=0, keepdims=True, out=col)
    if not (norm > 0.0).all():
        raise ValueError("degenerate data: every component weight underflowed")
    np.divide(post_w, norm, out=post_w)

    post_var = 1.0 / (1.0 / variances + data_precision)
    # post_var * (means / variances + ybar * data_precision)
    into = post_mean if means.shape == post_mean.shape else None  # (J, 1) means stay small
    scaled = np.divide(means, variances[:, None], out=into)
    np.add(scaled, np.multiply(ybar[None, :], data_precision, out=col), out=post_mean)
    np.multiply(post_var[:, None], post_mean, out=post_mean)
    return post_var


# This thread's work buffers, one flat float array per name, grown on demand
# to the largest size asked of it; a pool thread drops its own as it exits.
_WORKSPACE = threading.local()


def work_array(name: str, *shape: int) -> np.ndarray:
    """A C-contiguous view of ``shape`` on this thread's buffer ``name``.

    It stays valid until the next ``work_array(name, ...)`` on the same
    thread, which may overwrite it: a caller keeps nothing in it across a
    call that takes the same name. Views are always the leading elements
    of the buffer reshaped, never strided slices, so a reduction over them
    runs in the same order as over a new array of the shape.
    """
    size = math.prod(shape)
    flat = getattr(_WORKSPACE, name, None)
    if flat is None or flat.size < size:
        flat = np.empty(size)
        setattr(_WORKSPACE, name, flat)
    return flat[:size].reshape(shape)


def bank_chunks(total: int, n_components: int):
    """Slices of ``total`` observed means within the element budget, for
    any bank the schema allows (the last may hold one more). None is one wide
    unless ``total`` is 1: einsum sums a lone column in another order than a
    column among others, so a draw's floats would depend on where chunks fall."""
    step = max(_CHUNK_ELEMENTS // max(n_components, 1), 2)
    start = 0
    while start < total:
        stop = total if total - start <= step + 1 else start + step
        yield slice(start, stop)
        start = stop
