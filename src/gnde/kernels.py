"""Hot numerical kernels: the layered spectral-filter forward map.

The shift product S @ X is an error-free splitting product (Ozaki, Ogita,
Oishi & Rump, Numer. Algorithms 59, 2012).  Each row of S is scaled by a
per-row power of two and cut into ``SLICES`` integer-valued slices of
beta = floor((53 - ceil(log2 n)) / 2) bits; each column of X is cut the
same way with a per-column power of two.  A slice entry is an integer of
magnitude at most 2**beta, so a slice-by-slice product is a sum of n
integers of magnitude at most 2**(2 beta), and since
2 beta + ceil(log2 n) <= 53 every partial sum of it is exact in double
precision: the BLAS GEMM that forms all slice products of a block of rows
returns the same bits whatever order it sums in.  The slice products are
then added in a fixed order, scaled back, and rows or columns holding a
non-finite entry come out NaN.

Every step reads an entry, its row's or column's maximum, and fixed
constants, never the position of an entry in its row, so relabeling the
nodes (S -> P S P^T, X -> P X) permutes the output bit-exactly: node-order
independence holds by construction, not by luck.  Channel and tap
accumulation is plain fixed-order addition: those indices are not
permuted, and the (g ascending, then k ascending) order is part of the
reproducibility contract.
"""

from __future__ import annotations

import numpy as np

ACT_IDENTITY = 0
ACT_RELU = 1
ACT_LEAKY_RELU = 2
ACT_TANH = 3

#: Slices per operand of the shift product.
SLICES = 3

#: Entries of S split at once; bounds the product's transient memory.
BLOCK_ENTRIES = 1 << 14

# Slice pairs (p, q) from the smallest weight 2**(-(p+q) beta) to the largest.
_PAIRS = sorted(
    ((p, q) for p in range(SLICES) for q in range(SLICES)),
    key=lambda pq: (-(pq[0] + pq[1]), -pq[0]),
)


def slice_bits(n: int) -> int:
    """beta = floor((53 - ceil(log2 n)) / 2): the widest slice whose products
    sum exactly over n terms."""
    return (53 - (n - 1).bit_length()) // 2


def _split(a, beta: int, axis: int, out):
    """Integer-valued slices of ``a`` along its contraction axis.

    Slice p goes to ``out[p]`` (``out`` has shape ``(SLICES,) + a.shape``),
    with entries of magnitude at most 2**beta.  Returns ``(e, bad)``: for
    each line of ``a`` (a row of S or a column of X) ``e`` holds the
    exponent with max|line| < 2**e, and
    ``a = 2**(e - beta) * sum_p out[p] * 2**(-p beta) + r`` with
    ``|r| <= 2**(e - SLICES beta - 1)``.  ``bad`` flags lines holding a
    non-finite entry; they are split as zeros.
    """
    peak = np.maximum(a.max(axis=axis, keepdims=True), -a.min(axis=axis, keepdims=True))
    bad = ~np.isfinite(peak)
    if bad.any():
        a = np.where(bad, 0.0, a)
        peak = np.where(bad, 0.0, peak)
    e = np.frexp(peak)[1]
    shift = beta - e
    y = out[-1]  # the working remainder, rounded in place last
    if shift.max() > 1023:  # a line below 2**(beta - 1024): 2**shift > DBL_MAX
        np.ldexp(a, shift, out=y)
    elif shift.min() == shift.max():  # one exact multiply by a scalar (fast)
        np.multiply(a, np.ldexp(1.0, int(shift.flat[0])), out=y)
    else:  # one exact multiply per line
        np.multiply(a, np.ldexp(1.0, shift), out=y)
    for p in range(SLICES - 1):
        np.rint(y, out=out[p])
        y -= out[p]  # exact: |y - rint(y)| <= 1/2, Sterbenz
        y *= 2.0**beta
    np.rint(y, out=y)
    return e, bad


def _shift_product(S, X):
    n, F = X.shape
    if n == 0:
        return np.zeros((0, F))
    beta = slice_bits(n)
    xs = np.empty((SLICES, n, F))
    ex, xbad = _split(X, beta, 0, xs)
    rhs = xs.transpose(1, 0, 2).reshape(n, SLICES * F)
    # prods[p, i, q] = (slice p of row i of S) . (slice q of X), exact
    prods = np.empty((SLICES, n, SLICES, F))
    es = np.empty((n, 1), dtype=np.int32)
    sbad = np.empty((n, 1), dtype=bool)
    rows = min(n, max(1, BLOCK_ENTRIES // n))
    buf = np.empty(SLICES * rows * n)
    for lo in range(0, n, rows):
        blk = S[lo : lo + rows]
        hi = lo + blk.shape[0]
        ss = buf[: SLICES * blk.size].reshape((SLICES,) + blk.shape)
        es[lo:hi], sbad[lo:hi] = _split(blk, beta, 1, ss)
        prods[:, lo:hi] = (ss.reshape(-1, n) @ rhs).reshape(SLICES, -1, SLICES, F)
    acc = np.zeros((n, F))
    for p, q in _PAIRS:
        acc += prods[p, :, q] * 2.0 ** (-(p + q) * beta)
    out = np.ldexp(acc, es + ex - 2 * beta)
    out[sbad[:, 0]] = np.nan
    out[:, xbad[0]] = np.nan
    return out


def shift_matvec(S, X) -> np.ndarray:
    """S @ X for an (n, n) S and an (n, F) X, independent of node order.

    With beta = ``slice_bits(n)`` (so 2 beta + ceil(log2 n) <= 53),
    r_i = max_j |S_ij|, c_f = max_j |X_jf| and u = 2**-53, every finite
    entry that neither overflows nor underflows satisfies

        |out_if - (S X)_if| <= u |(S X)_if|
                               + n r_i c_f (2**(3 - 3 beta) + 2**(5 - beta) u):

    one rounding of the exact product, plus the bits of S and X below the
    three slices and the rounding of the fixed-order slice sum.  Entries
    within a factor 2**(3 beta - 53) of their row's (column's) maximum lose
    no bits.  A row of S or a column of X holding inf or NaN gives a NaN
    row or column.
    """
    S = np.ascontiguousarray(S, dtype=np.float64)
    X = np.ascontiguousarray(X, dtype=np.float64)
    return _shift_product(S, X)


def layer_stack_forward(S, X, coeffs, act_id: int, slope: float = 0.0) -> np.ndarray:
    """Full L-layer filter-bank forward pass on raw arrays.

    ``coeffs`` has shape (L, F, F, K); tap k applies S^k with S^0 = I,
    powers built by repeated ``shift_matvec`` (S^k is never materialized).
    """
    S = np.ascontiguousarray(S, dtype=np.float64)
    cur = np.array(X, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    L, F, _, K = coeffs.shape
    for layer in range(L):
        powers = [cur]
        for _ in range(1, K):
            powers.append(_shift_product(S, powers[-1]))
        z = np.zeros_like(cur)
        # A diverging state overflows here; dynamics reports it as DivergenceError.
        with np.errstate(over="ignore", invalid="ignore"):
            for g in range(F):
                for k in range(K):
                    z += coeffs[layer, :, g, k] * powers[k][:, g : g + 1]
        if act_id == ACT_RELU:
            cur = np.where(z > 0.0, z, 0.0)
        elif act_id == ACT_LEAKY_RELU:
            cur = np.where(z > 0.0, z, slope * z)
        elif act_id == ACT_TANH:
            cur = np.tanh(z)
        else:
            cur = z
    return cur
