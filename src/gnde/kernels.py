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
then added in a fixed order, scaled back, and columns of X holding a
non-finite entry come out NaN.

One product, ``_shift_product(op, X)``, makes a fixed number of numpy
calls whatever n (one more GEMM per row block of S):

1. split X: one abs-max reduction per column for its exponent, one finite
   test (columns holding inf or NaN are zeroed only when there is one),
   then the slices;
2. lay the slices side by side as the (n, SLICES*F) right-hand side;
3. per row block of S, cast its slices to float64 and form every slice
   product with one GEMM, written in place at depth 1;
4. add the products, each times its weight 2**(-(p + q) beta), in the
   fixed order of ``_PAIRS`` into an accumulator that starts at +0.0;
5. scale the sum back by 2**(row exponent + column exponent - 2 beta),
   in place;
6. mark NaN the columns of X holding inf or NaN, when there are any.

S is the paper's graph shift, n x n with n >= 1, symmetric and finite:
``ShiftOperator`` refuses any other S when it is built, so every door
that builds one refuses it the same way.  The product trusts its
operands: X is a float64 (n, F) array.  Three doors check X, with one
feature-row check: ``op @ X`` and ``shift_matvec`` check its shape;
``layer_stack_forward_batch`` reads S's size with ``shift_size``, checks
X and the coefficients once, before it builds an operator, and then calls
the product on every tap without a second check or copy.

S is fixed for a whole trajectory, so it is split once: a
``ShiftOperator`` keeps the slices of S with its row exponents, and every
product at that size splits only X.  Given a ``sampling.SampledGraph``,
it divides each row block of the adjacency A by n as it splits it, so
S = A / n is never formed; division is elementwise, so the bits are those
of the array A / n.  The graph has checked its own entries and symmetry,
so the operator does not check them again.  It
keeps the slices only up to S's last nonzero one (its depth): one at
power-of-two n for the tent and the binary kernels, whose entries of
S = A/n carry at most log2 n bits.  A skipped slice pair would
add an exact +-0 to an accumulator that starts at +0.0, so it is never
-0.0, and x + (+-0) = x for every other x: the depth changes no output
bit.  For n >= 9, beta <= 24, and every slice entry, an integer of
magnitude at most 2**24, is exact in float32; the operator stores its
slices as float32 then (half the bytes of S per slice) and casts each row
block back to float64 before the GEMM, so the GEMM sees the same numbers
as a fresh split.

Systems that share S are pushed through one product: B systems of F
channels each form one (n, B*F) X.  That changes no output bit.  Each
column of X gets its own exponent and its own slices, whichever branch of
``_split`` scales it; every slice product is exact, so a column's GEMM
result does not depend on the columns beside it; and the slice sum, the
rescaling and the NaN marking are elementwise.  Column j of the batched
product is therefore column j of the product of that column alone.

Every step reads an entry, its row's or column's maximum, and fixed
constants, never the position of an entry in its row or column, so
relabeling the n nodes of S (S -> P S P^T, X -> P X) permutes the output
rows bit-exactly: node-order independence holds by construction, not by
luck.  Channel and tap
accumulation is plain fixed-order addition: those indices are not
permuted, and the (g ascending, then k ascending) order is part of the
reproducibility contract.
"""

from __future__ import annotations

import numpy as np

from .catalog import is_symmetric
from .errors import DimensionMismatchError, InvalidParameterError
from .sampling import SampledGraph

ACT_IDENTITY = 0
ACT_RELU = 1
ACT_LEAKY_RELU = 2
ACT_TANH = 3

#: Slices per operand of the shift product.
SLICES = 3

#: Entries of S split at once; bounds the product's transient memory.
BLOCK_ENTRIES = 1 << 14

#: Widest slice that float32 holds exactly (its significand has 24 bits).
FLOAT32_BITS = 24

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
    non-finite entry, which are split as zeros; it is None when no line
    does.
    """
    peak = np.abs(a).max(axis=axis, keepdims=True)  # NaN and inf propagate
    finite = np.isfinite(peak)
    bad = None
    if not finite.all():
        bad = ~finite
        a = np.where(bad, 0.0, a)
        peak = np.where(bad, 0.0, peak)
    e = np.frexp(peak)[1]
    y = out[-1]  # the working remainder, rounded in place last
    # exact, also for a line below 2**(beta - 1024), where 2**(beta - e) overflows
    np.ldexp(a, beta - e, out=y)
    for p in range(SLICES - 1):
        np.rint(y, out=out[p])
        y -= out[p]  # exact: |y - rint(y)| <= 1/2, Sterbenz
        y *= 2.0**beta
    np.rint(y, out=y)
    return e, bad


class ShiftOperator:
    """An n x n shift S, split once for every product ``S @ X``.

    ``S`` is a 2-D array or a ``sampling.SampledGraph``, whose shift is
    S = adjacency / n: each row block of the adjacency is divided as it is
    split, so the slices are those of the array adjacency / n bit for bit.
    A graph has checked its own entries and symmetry.  An array is
    checked here, once: one that is not 2-D, square and nonempty raises
    DimensionMismatchError before any split (``shift_size``); one that is
    not exactly symmetric raises InvalidParameterError, and so does one
    holding NaN, which fails that check (NaN != NaN); one holding inf
    raises InvalidParameterError when the split finds its row's peak.

    ``slices[p]`` holds slice p of every row of S for p below the depth,
    the count up to S's last nonzero slice (float32 when
    ``slice_bits(n) <= FLOAT32_BITS``, else float64).  The store starts
    with one slice and grows when a row block first needs more, copying
    only the rows already written.  ``exps`` holds each row's exponent.
    ``op @ X`` is ``shift_matvec(S, X)`` bit for bit.  The operator keeps
    no reference to S and no work buffer between products.  An X that is
    not 2-D with n rows raises DimensionMismatchError.
    """

    def __init__(self, S):
        if isinstance(S, SampledGraph):
            A, divisor = S.adjacency, S.n
        else:
            shift_size(S)
            A, divisor = np.ascontiguousarray(S, dtype=np.float64), 1.0
            if not is_symmetric(A):
                raise InvalidParameterError("shift array must be symmetric")
        n = self.n = len(A)
        self.beta = slice_bits(n)
        self.rows = max(1, min(n, BLOCK_ENTRIES // n))
        store = np.float32 if self.beta <= FLOAT32_BITS else np.float64
        self.slices = np.empty((1, n, n), dtype=store)
        self.exps = np.zeros((n, 1), dtype=np.int32)
        buf = np.empty(SLICES * self.rows * n)
        for lo in range(0, n, self.rows):
            blk = A[lo : lo + self.rows] / divisor
            hi = lo + blk.shape[0]
            ss = buf[: SLICES * blk.size].reshape((SLICES,) + blk.shape)
            self.exps[lo:hi], bad = _split(blk, self.beta, 1, ss)
            if bad is not None:
                raise InvalidParameterError("shift array must be finite")
            depth = len(self.slices)
            need = max((p + 1 for p in range(depth, SLICES) if ss[p].any()), default=depth)
            if need > depth:  # the rows written so far get zero slices
                if lo == 0:  # none yet: free the old store before growing
                    self.slices = None
                grown = np.zeros((need, n, n), dtype=store)
                if lo:
                    grown[:depth, :lo] = self.slices[:, :lo]
                self.slices = grown
            self.slices[:, lo:hi] = ss[: len(self.slices)]

    def __matmul__(self, X) -> np.ndarray:
        return _shift_product(self, _features(self.n, np.ascontiguousarray(X, np.float64)))


def as_operator(S) -> ShiftOperator:
    """``S`` if it is already a ShiftOperator, else a new one on the graph
    or array S."""
    return S if isinstance(S, ShiftOperator) else ShiftOperator(S)


def shift_size(S) -> int:
    """The n of an n x n shift operator, graph or array, read without
    splitting anything.  A shift that is not 2-D, not square, or 0 x 0
    raises DimensionMismatchError: the operator, the forward map and
    ``dynamics.integrate`` all refuse one here."""
    if isinstance(S, (ShiftOperator, SampledGraph)):
        return S.n
    shape = np.shape(S)
    if len(shape) != 2:
        raise DimensionMismatchError(f"a shift operator needs a 2-D array, got shape {shape}")
    m, n = shape
    if m != n:
        raise DimensionMismatchError(f"the forward map needs a square shift, got {m}x{n}")
    if not n:
        raise DimensionMismatchError("the forward map needs a shift of n >= 1 nodes, got 0x0")
    return n


def _features(n, X):
    """``X``, a float64 array, refused with DimensionMismatchError unless it
    is 2-D with the n rows of the n x n shift."""
    if X.ndim != 2 or X.shape[0] != n:
        raise DimensionMismatchError(f"the {n}x{n} shift needs "
                                     f"features of {n} rows, got shape {X.shape}")
    return X


def _shift_product(op, X):
    # The steps listed in the module docstring.  It trusts its operands: X
    # is a float64 (n, F) array.  Only the doors (op @ X, shift_matvec and
    # layer_stack_forward_batch) check it.
    n, F = op.n, X.shape[1]
    beta, depth = op.beta, len(op.slices)
    xs = np.empty((SLICES, n, F))
    ex, xbad = _split(X, beta, 0, xs)
    rhs = xs.transpose(1, 0, 2).reshape(n, SLICES * F)
    # prods[p, i, q] = (slice p of row i of S) . (slice q of X), exact, so
    # the GEMM's summation order changes no bit.  At depth 1 a row block's
    # rows of prods are contiguous and its GEMM writes them in place.
    prods = np.empty((depth, n, SLICES * F))
    buf = np.empty(depth * op.rows * n)
    for lo in range(0, n, op.rows):
        blk = op.slices[:, lo : lo + op.rows]
        ss = buf[: blk.size].reshape(blk.shape)
        ss[...] = blk  # exact: every entry is an integer of at most 2**beta
        if depth == 1:
            np.matmul(ss[0], rhs, out=prods[0, lo : lo + blk.shape[1]])
        else:
            prods[:, lo : lo + blk.shape[1]] = (
                ss.reshape(-1, n) @ rhs).reshape(depth, -1, SLICES * F)
    prods = prods.reshape(depth, n, SLICES, F)
    acc = np.zeros((n, F))  # +0.0, so adding a skipped pair's +-0 changes no bit
    for p, q in _PAIRS:
        if p < depth:
            acc += prods[p, :, q] * 2.0 ** (-(p + q) * beta)
    out = np.ldexp(acc, op.exps + (ex - 2 * beta), out=acc)
    if xbad is not None:
        out[:, xbad[0]] = np.nan
    return out


def shift_matvec(S, X) -> np.ndarray:
    """S @ X for an n x n shift S and an (n, F) X, independent of node order.

    With beta = ``slice_bits(n)`` (so 2 beta + ceil(log2 n) <= 53),
    r_i = max_j |S_ij|, c_f = max_j |X_jf| and u = 2**-53, every finite
    entry that neither overflows nor underflows satisfies

        |out_if - (S X)_if| <= u |(S X)_if|
                               + n r_i c_f (2**(3 - 3 beta) + 2**(5 - beta) u):

    one rounding of the exact product, plus the bits of S and X below the
    three slices and the rounding of the fixed-order slice sum.  Entries
    within a factor 2**(3 beta - 53) of their row's (column's) maximum lose
    no bits.  A column of X holding inf or NaN gives a NaN column.  ``S``
    may be a ShiftOperator; a graph or an array is split here, so a caller
    with several products on one S builds the operator once, and an array
    that is not the paper's shift is refused as ``ShiftOperator`` refuses
    it.  An X that is not 2-D with n rows raises DimensionMismatchError.
    """
    return as_operator(S) @ X


def layer_stack_forward(S, X, coeffs, act_id: int, slope: float = 0.0) -> np.ndarray:
    """Full L-layer filter-bank forward pass on a shift operator or array.

    ``coeffs`` has shape (L, F, F, K); tap k applies S^k with S^0 = I,
    powers built by repeated shift products (S^k is never materialized).
    An array S is split once for the whole pass.  This is the one-system
    call of ``layer_stack_forward_batch``, the one implementation of the
    vector field Phi(S; X; H(t)) = rho(sum_k H_k(t) S^k X): pass
    ``neural.filters_at(bank, t)`` as ``coeffs`` and an activation's
    ``act_id`` and ``slope``.
    """
    return layer_stack_forward_batch(S, X, np.asarray(coeffs)[None], act_id, slope)


def layer_stack_forward_batch(S, X, coeffs, act_id: int, slope: float = 0.0) -> np.ndarray:
    """The forward pass of B systems that share one shift, in one sweep.

    ``X`` is (n, B*F), system b owning columns b*F .. b*F + F - 1, and
    ``coeffs`` is (B, L, F, F, K), system b's filter bank at its own time.
    Each tap is one (n, B*F) shift product for all systems.  Every output
    column is bit-identical to the one-system pass of its own system: the
    product treats each column alone, and each system mixes its own taps
    in the same (g ascending, then k ascending) order.  An S that is not
    2-D, square and nonempty, an X that is not 2-D with n rows, or coeffs
    that do not match X's columns raise DimensionMismatchError before any
    split; an asymmetric or non-finite array S is refused as
    ``ShiftOperator`` refuses it.
    """
    n = shift_size(S)
    cur = _features(n, np.array(X, dtype=np.float64))
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 5 or coeffs.shape[2] != coeffs.shape[3] or (
            coeffs.shape[0] * coeffs.shape[2] != cur.shape[1]):
        raise DimensionMismatchError(
            f"coefficients must be (B, L, F, F, K) with B*F = {cur.shape[1]} feature "
            f"columns, got shape {coeffs.shape}")
    op = as_operator(S)
    B, L, F, _, K = coeffs.shape
    # A diverging state overflows in the tap mix; dynamics reports it as
    # DivergenceError.  Warnings change no bit, so they are set once a pass.
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in range(L):
            powers = [cur.reshape(n, B, F)]
            for _ in range(1, K):
                # the operands are checked above: the product trusts them
                powers.append(_shift_product(op, powers[-1].reshape(n, B * F)).reshape(n, B, F))
            z = np.zeros((n, B, F))
            for g in range(F):
                for k in range(K):
                    z += coeffs[:, layer, :, g, k] * powers[k][:, :, g : g + 1]
            cur = activate(z, act_id, slope).reshape(n, B * F)
    return cur


def activate(z, act_id: int, slope: float = 0.0):
    """rho(z) entrywise for a float64 array ``z``: the identity (``z``
    itself), ReLU, leaky ReLU with negative-side ``slope``, or tanh, each
    of the last three a new array.  The forward map and
    ``neural.Activation.apply`` both call it, so rho has one form."""
    if act_id == ACT_RELU:
        return np.where(z > 0.0, z, 0.0)
    if act_id == ACT_LEAKY_RELU:
        return np.where(z > 0.0, z, slope * z)
    if act_id == ACT_TANH:
        return np.tanh(z)
    return z
