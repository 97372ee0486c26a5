"""The posterior kernel under the mixture prior.

The kernel ``posterior_bank`` does component-wise conjugate updates and
marginal-likelihood weight updates in log space (so extreme prior-data
conflict never underflows) on whole vectors of observed means at once,
in slices from ``bank_chunks``, writing into two buffers its caller
hands it. The engines and the bimodality map call it on the prior's array
form, ``priors.AxisBank``, whose ``kernel`` hands it two rows of means (or
a (2,) column) and this thread's reused work buffers (``work_array``), so
a chunk allocates nothing of size components x draws and takes no page
faults once the buffers are warm; a bank squares on 2 x draws. The tests
also hand it all J rows of a general mixture.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = [
    "posterior_bank",
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


def posterior_bank(means, variances, log_weights, ybar, n, sigma, post_w, post_mean):
    """Vectorized conjugate + weight update over a component bank, written
    into ``post_w`` and ``post_mean``; returns ``post_vars``.

    Parameters
    ----------
    means : array (2,) or (2, R), or (J,) or (J, R)
        Prior component means; a (., R) shape carries data-dependent
        locations (one per observed mean). Two rows, the only layout
        ``AxisBank`` gives, stand for J: component 0's mean, and the one
        that components 1..J-1 share; the tests also give all J rows.
    variances : array (J,)
        Prior component variances.
    log_weights : array (J,), or (J, R), one column per observed mean
        Log prior weights (-inf allowed).
    ybar : scalar or array (R,)
        Observed current mean(s).
    n, sigma : int, float
        Current sample size and known per-observation sd.
    post_w, post_mean : (J, R) C-contiguous buffers that overlap no input
        Receive the posterior component weights (columns sum to 1) and
        the posterior component means.

    Returns ``post_vars``, (J,). (ybar - m)**2 is formed on the rows of
    ``means`` alone, in ``post_mean`` (free until the posterior means), and
    divided into all J rows by -2 pred_var: halving each term of -0.5 *
    (log(2 pi pred_var) + (ybar - m)**2 / pred_var) is exact unless a result
    is subnormal, and (ybar - m)**2 is 0 or (for means of order one) at
    least about 4e-32, so each log weight is that expression's float with no
    J x R multiply. Each (J, R) step is one ufunc with ``out=``, or one per
    block (row 0, rows 1..J-1) where it reads the rows of means; the (1, R)
    temporaries use this thread's ``work_array("col")``. The results do not
    depend on where they are written, only on the buffers' shapes.
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
    # log marginal: (ybar - means)**2 / (-2 pred_var) - 0.5 * log(2 pi pred_var)
    dev = np.subtract(ybar[None, :], means, out=post_mean[:means.shape[0]])
    logw = _spread(np.divide, np.square(dev, out=dev), -2.0 * pred_var, post_w)
    np.add(-0.5 * np.log(2.0 * np.pi * pred_var), logw, out=logw)
    np.add(log_weights.reshape(variances.size, -1), logw, out=logw)
    np.subtract(logw, np.maximum.reduce(logw, axis=0, keepdims=True, out=col), out=logw)
    np.exp(logw, out=post_w)
    norm = np.add.reduce(post_w, axis=0, keepdims=True, out=col)
    if not (norm > 0.0).all():
        raise ValueError("degenerate data: every component weight underflowed")
    np.divide(post_w, norm, out=post_w)

    post_var = 1.0 / (1.0 / variances + data_precision)
    # post_var * (means / variances + ybar * data_precision); one-column means stay small
    scaled = post_mean if means.shape[1] == post_mean.shape[1] else np.empty((variances.size, 1))
    _spread(np.divide, means, variances[:, None], scaled)
    np.add(scaled, np.multiply(ybar[None, :], data_precision, out=col), out=post_mean)
    np.multiply(post_var[:, None], post_mean, out=post_mean)
    return post_var


def _spread(op, rows, by, out):
    """``op(rows, by)`` into the J rows of ``out``: row 0 into row 0, and
    the rest of ``rows`` (one row shared by rows 1..J-1, or J - 1 rows)
    into rows 1..J-1; neither step reduces, so J rows give ``op``'s floats."""
    op(rows[:1], by[:1], out=out[:1])
    op(rows[1:], by[1:], out=out[1:])
    return out


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
