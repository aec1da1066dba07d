"""Filter banks, activations, the spectral forward map and its shift product."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnde import dynamics, kernels
from gnde import neural
from gnde import sampling as smp
from gnde import catalog as cat
from gnde.errors import DimensionMismatchError, InvalidParameterError


def test_activation_pointwise_values():
    assert neural.Activation("tanh").apply(0.0) == 0.0
    assert neural.Activation("relu").apply(np.array([-1.0, 2.0])).tolist() == [0.0, 2.0]
    leaky = neural.Activation("leaky_relu", slope=0.01)
    assert leaky.apply(np.array([-2.0, 3.0])).tolist() == [-0.02, 3.0]
    ident = neural.Activation("identity")
    x = np.array([-5.0, 0.25])
    assert np.array_equal(ident.apply(x), x)
    with pytest.raises(InvalidParameterError):
        neural.Activation("swish")
    with pytest.raises(InvalidParameterError):
        neural.Activation("leaky_relu", slope=1.5)


def test_activations_are_normalized_lipschitz():
    rng = np.random.default_rng(2)
    x = rng.normal(scale=3.0, size=500)
    y = rng.normal(scale=3.0, size=500)
    for kind in ("identity", "relu", "leaky_relu", "tanh"):
        act = neural.Activation(kind)
        fx, fy = act.apply(x), act.apply(y)
        assert np.all(np.abs(fx - fy) <= np.abs(x - y) + 1e-15), kind
        assert act.apply(0.0) == 0.0


@pytest.mark.parametrize("kind", ["identity", "relu", "leaky_relu", "tanh"])
def test_forward_map_applies_the_activation_bit_for_bit(kind):
    # one layer, one channel, one tap h = 1 (S^0 = I): the forward map is
    # rho(0.0 + x), its tap sum starting at +0.0, so -0.0 reaches rho as
    # +0.0 and every other x as itself
    act = neural.Activation(kind, slope=0.3)
    rng = np.random.default_rng(11)
    x = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.finfo(float).max, -20.0, 20.0],
        rng.normal(size=200) * np.exp2(rng.integers(-60, 60, size=200)),
    ])[:, None]
    n = x.shape[0]
    out = kernels.layer_stack_forward(np.full((n, n), 1.0 / n), x, np.ones((1, 1, 1, 1)),
                                      act.act_id, act.slope)
    assert np.array_equal(out.view(np.int64), act.apply(0.0 + x).view(np.int64))
    plain = (x != 0.0) | ~np.signbit(x)
    assert np.array_equal(out[plain].view(np.int64), act.apply(x)[plain].view(np.int64))


def test_filter_bank_validation():
    with pytest.raises(InvalidParameterError):
        neural.FilterBank(np.ones((2, 2, 2)))
    with pytest.raises(InvalidParameterError):
        neural.FilterBank(np.ones((1, 2, 3, 2)))
    with pytest.raises(InvalidParameterError):
        neural.FilterBank(np.full((1, 1, 1, 1), np.nan))
    # a fourier bank needs 2M + 1 coefficients per filter, M >= 1, and a
    # positive horizon
    for last in (1, 2, 4):
        with pytest.raises(InvalidParameterError, match="2M\\+1"):
            neural.FilterBank(np.ones((1, 1, 1, 1, last)))
    with pytest.raises(InvalidParameterError, match="horizon"):
        neural.FilterBank(np.ones((1, 1, 1, 1, 3)), horizon=0.0)
    bank = neural.FilterBank(np.ones((3, 2, 2, 4)))
    assert (bank.L, bank.F, bank.K) == (3, 2, 4)
    assert (bank.time_law, bank.modes) == ("constant", 0)
    four = neural.FilterBank(np.ones((3, 2, 2, 4, 5)), horizon=2.0)
    assert (four.L, four.F, four.K, four.time_law, four.modes) == (3, 2, 4, "fourier", 2)
    with pytest.raises(AttributeError):
        four.modes = 1


def test_filters_at_time_laws():
    const = neural.FilterBank(np.ones((1, 1, 1, 2)))
    assert np.array_equal(neural.filters_at(const, 0.7), const.coeffs)
    # c0 + a1 cos + b1 sin with c0=1, a1=2, b1=0.5 over horizon 2
    coeffs = np.array([1.0, 2.0, 0.5]).reshape(1, 1, 1, 1, 3)
    bank = neural.FilterBank(coeffs, horizon=2.0)
    assert neural.filters_at(bank, 0.0)[0, 0, 0, 0] == pytest.approx(3.0, abs=1e-15)
    assert neural.filters_at(bank, 0.5)[0, 0, 0, 0] == pytest.approx(1.5, abs=1e-15)
    assert neural.filters_at(bank, 1.0)[0, 0, 0, 0] == pytest.approx(-1.0, abs=1e-15)
    with pytest.raises(InvalidParameterError):
        neural.filters_at(bank, 2.5)


def test_h_sup_certified_dominates_grid():
    rng = np.random.default_rng(9)
    for _ in range(10):
        bank = neural.random_filter_bank(2, 2, 3, rng, time_law="fourier", modes=2)
        assert neural.h_sup_certified(bank) >= neural.h_sup(bank) - 1e-12
    const = neural.random_filter_bank(2, 2, 3, rng)
    assert neural.h_sup_certified(const) == neural.h_sup(const)
    assert neural.h_sup(const) == float(np.max(np.abs(const.coeffs)))


def test_forward_two_node_hand_case():
    s = np.array([[0.0, 0.5], [0.5, 0.0]])
    x = np.array([[1.0], [2.0]])
    coeffs = np.array([1.0, 2.0]).reshape(1, 1, 1, 2)
    out = kernels.layer_stack_forward(s, x, coeffs, kernels.ACT_IDENTITY)
    # z = x + 2 Sx = [1 + 2*1, 2 + 2*0.5]
    assert np.array_equal(out, np.array([[3.0], [3.0]]))


def _reference_forward(s, x, coeffs, act):
    cur = np.asarray(x, dtype=np.float64)
    layers, _, _, taps = coeffs.shape
    for layer in range(layers):
        powers = [cur]
        for _ in range(1, taps):
            powers.append(s @ powers[-1])
        z = np.zeros_like(cur)
        for k in range(taps):
            z += powers[k] @ coeffs[layer, :, :, k].T
        cur = act.apply(z)
    return cur


def test_forward_matches_reference():
    rng = np.random.default_rng(13)
    g = smp.sample_weighted(cat.tent(), 9)
    s = smp.graph_shift(g)
    for kind in ("identity", "tanh", "relu", "leaky_relu"):
        act = neural.Activation(kind)
        coeffs = rng.uniform(-1.0, 1.0, size=(2, 3, 3, 2))
        x = rng.normal(size=(9, 3))
        got = kernels.layer_stack_forward(s, x, coeffs, act.act_id, act.slope)
        want = _reference_forward(s, x, coeffs, act)
        assert np.allclose(got, want, atol=1e-13, rtol=0.0), kind


def test_forward_shape_guards():
    # the shift product and the forward map refuse mismatched operands
    # before any product, with a message naming both sizes
    def forward(S, X, coeffs):
        return kernels.layer_stack_forward(S, X, coeffs, kernels.ACT_IDENTITY)

    bank = np.ones((1, 1, 1, 1))
    cases = [
        (kernels.shift_matvec, (np.ones(3), np.ones((3, 1))), r"2-D array, got shape \(3,\)"),
        (kernels.shift_matvec, (np.eye(3), np.ones(3)), r"3 rows, got shape \(3,\)"),
        (kernels.shift_matvec, (np.eye(3), np.ones((4, 1))), r"3 rows, got shape \(4, 1\)"),
        (forward, (np.ones(3), np.ones((3, 1)), bank), r"2-D array, got shape \(3,\)"),
        (forward, (np.eye(3), np.ones(3), bank), r"3 rows, got shape \(3,\)"),
        (forward, (np.eye(3), np.ones((4, 1)), bank), r"3 rows, got shape \(4, 1\)"),
        (forward, (np.ones((2, 3)), np.ones((3, 1)), bank), r"square shift, got 2x3"),
        # a 2-channel X against a 1-channel bank
        (forward, (np.eye(2), np.ones((2, 2)), bank),
         r"B\*F = 2 feature columns, got shape \(1, 1, 1, 1, 1\)"),
        (forward, (np.eye(2), np.ones((2, 1)), np.ones((1, 1, 1))), r"got shape \(1, 1, 1, 1\)"),
        # output and input channel counts that differ
        (forward, (np.eye(2), np.ones((2, 2)), np.ones((1, 2, 1, 1))),
         r"B\*F = 2 .* got shape \(1, 1, 2, 1, 1\)"),
        (forward, (np.eye(2), np.ones((2, 1)), np.ones((1, 1, 2, 1))),
         r"B\*F = 1 .* got shape \(1, 1, 1, 2, 1\)"),
    ]
    for call, args, message in cases:
        with pytest.raises(DimensionMismatchError, match=message):
            call(*args)
    batch = np.ones((2, 1, 1, 1, 1))  # two 1-channel systems need 2 columns
    with pytest.raises(DimensionMismatchError, match=r"B\*F = 3"):
        kernels.layer_stack_forward_batch(np.eye(2), np.ones((2, 3)), batch,
                                          kernels.ACT_IDENTITY)


class NeverBuilt:
    """A stand-in ShiftOperator that fails when built."""

    def __init__(self, S):
        raise AssertionError("the shift was split")


def test_forward_map_refuses_before_splitting(monkeypatch):
    # every shape the forward map refuses is refused before an operator is
    # built: the NeverBuilt stand-in is never reached
    monkeypatch.setattr(kernels, "ShiftOperator", NeverBuilt)
    bank = np.ones((1, 1, 1, 1, 1))
    cases = [
        (np.ones((2, 3)), np.ones((3, 1)), bank, r"square shift, got 2x3"),
        ([[1.0, 0.0, 0.0]], np.ones((3, 1)), bank, r"square shift, got 1x3"),
        (np.eye(3), np.ones((4, 1)), bank, r"the 3x3 shift needs features of 3 rows, got shape \(4, 1\)"),
        (np.eye(3), np.ones(3), bank, r"3 rows, got shape \(3,\)"),
        (np.ones(3), np.ones((3, 1)), bank, r"2-D array, got shape \(3,\)"),
        (np.ones((3, 3, 1)), np.ones((3, 1)), bank, r"2-D array, got shape \(3, 3, 1\)"),
        (np.eye(2), np.ones((2, 2)), bank, r"B\*F = 2 feature columns"),
    ]
    for S, X, coeffs, message in cases:
        with pytest.raises(DimensionMismatchError, match=message):
            kernels.layer_stack_forward_batch(S, X, coeffs, kernels.ACT_IDENTITY)
    # the stand-in is live: operands that pass every check do build it
    with pytest.raises(AssertionError, match="split"):
        kernels.layer_stack_forward_batch(np.eye(2), np.ones((2, 1)), bank, kernels.ACT_IDENTITY)


def _never_split(*args):
    raise AssertionError("the shift was split")


def _poisoned(value):
    s = np.eye(3) / 2
    s[0, 2] = s[2, 0] = value
    return s


# (S, error, message, refused before any split): every shift that is not
# the paper's n x n, symmetric, finite S
_REFUSED_SHIFTS = [
    (5.0, DimensionMismatchError, r"2-D array, got shape \(\)", True),
    (np.ones(3), DimensionMismatchError, r"2-D array, got shape \(3,\)", True),
    (np.ones((3, 3, 1)), DimensionMismatchError, r"2-D array, got shape \(3, 3, 1\)", True),
    (np.ones((2, 3)), DimensionMismatchError, r"square shift, got 2x3", True),
    ([[1.0, 0.0, 0.0]], DimensionMismatchError, r"square shift, got 1x3", True),
    (np.zeros((0, 0)), DimensionMismatchError, r"n >= 1 nodes, got 0x0", True),
    (np.array([[0.0, 0.5], [0.25, 1.0]]), InvalidParameterError, r"must be symmetric", False),
    (_poisoned(np.inf), InvalidParameterError, r"must be finite", False),
    (_poisoned(-np.inf), InvalidParameterError, r"must be finite", False),
    (_poisoned(np.nan), InvalidParameterError, r"must be symmetric", False),  # NaN != NaN
]


def test_integrate_refuses_a_shift_as_the_forward_map_does(monkeypatch):
    # the operator checks its shift once, where it is built, so every door
    # refuses a shift that is not n x n, symmetric and finite with the same
    # error and message; a bad shape is refused before anything is split
    bank = neural.FilterBank(np.ones((1, 1, 1, 1)))
    act = neural.Activation("identity")
    cfg = dynamics.SolverConfig()
    coeffs = np.ones((1, 1, 1, 1))
    doors = [
        lambda S, X: kernels.ShiftOperator(S),
        lambda S, X: kernels.shift_matvec(S, X),
        lambda S, X: kernels.layer_stack_forward(S, X, coeffs, kernels.ACT_IDENTITY),
        lambda S, X: kernels.layer_stack_forward_batch(S, X, coeffs[None],
                                                       kernels.ACT_IDENTITY),
        lambda S, X: dynamics.integrate(S, X, bank, act, 1.0, cfg),
        lambda S, X: dynamics.integrate_batch(S, [(X, bank)], act, 1.0, cfg),
    ]
    for S, error, message, before_split in _REFUSED_SHIFTS:
        X = np.ones((len(np.atleast_1d(S)), 1))
        refusals = set()
        with monkeypatch.context() as mp:
            if before_split:
                mp.setattr(kernels, "_split", _never_split)
            for door in doors:
                with pytest.raises(error, match=message) as refused:
                    door(S, X)
                refusals.add((type(refused.value), str(refused.value)))
        assert len(refusals) == 1, refusals


@pytest.mark.parametrize("B", [1, 2, 5])
def test_forward_pass_makes_one_product_per_tap_and_layer(monkeypatch, B):
    # L layers of K taps make L * (K - 1) shift products per pass, each one
    # (n, B*F) product for all B systems, whatever B
    real = kernels._shift_product
    shapes = []

    def counted(op, X):
        shapes.append(X.shape)
        return real(op, X)

    monkeypatch.setattr(kernels, "_shift_product", counted)
    rng = np.random.default_rng(B)
    n, L, F, K = 10, 3, 2, 4
    s = smp.graph_shift(smp.sample_weighted(cat.tent(), n))
    coeffs = rng.uniform(-1.0, 1.0, size=(B, L, F, F, K))
    x = rng.normal(size=(n, B * F))
    kernels.layer_stack_forward_batch(s, x, coeffs, kernels.ACT_TANH)
    assert shapes == [(n, B * F)] * (L * (K - 1))


def test_stale_backend_setting_is_inert(monkeypatch):
    # one arithmetic path: a stale GNDE_BACKEND setting neither changes a
    # bit of the output nor raises
    rng = np.random.default_rng(5)
    s = smp.graph_shift(smp.sample_weighted(cat.tent(), 11))
    coeffs = rng.uniform(-1.0, 1.0, size=(2, 2, 2, 3))
    x = rng.normal(size=(11, 2))
    act = neural.Activation("tanh")
    monkeypatch.delenv("GNDE_BACKEND", raising=False)
    want = kernels.layer_stack_forward(s, x, coeffs, act.act_id, act.slope)
    for setting in ("numpy", "numba", "cuda"):
        monkeypatch.setenv("GNDE_BACKEND", setting)
        got = kernels.layer_stack_forward(s, x, coeffs, act.act_id, act.slope)
        assert np.array_equal(got, want), setting


def _mirror(s):
    """``s`` made symmetric in place, its upper triangle copied onto its
    lower one (the sign of a zero included)."""
    low = np.tril_indices(len(s), -1)
    s[low] = s.T[low]
    return s


def _exact_product(s, x):
    """S @ X in exact rational arithmetic, as an (n, F) nested list."""
    n, F = x.shape
    return [
        [sum(Fraction(s[i, j]) * Fraction(x[j, f]) for j in range(n)) for f in range(F)]
        for i in range(s.shape[0])
    ]


def _assert_product_bound(got, s, x):
    """The error bound stated by kernels.shift_matvec, checked exactly."""
    n, F = x.shape
    beta = kernels.slice_bits(n)
    u = Fraction(1, 2**53)
    slack = Fraction(2) ** (3 - 3 * beta) + Fraction(2) ** (5 - beta) * u
    rows = np.max(np.abs(s), axis=1)
    cols = np.max(np.abs(x), axis=0)
    exact = _exact_product(s, x)
    for i in range(s.shape[0]):
        for f in range(F):
            bound = u * abs(exact[i][f]) + n * Fraction(rows[i]) * Fraction(cols[f]) * slack
            assert abs(Fraction(got[i, f]) - exact[i][f]) <= bound, (i, f)


def test_forward_matches_checked_shift_products():
    # the forward map against a forward whose every shift product is
    # checked against exact rational arithmetic with the stated bound
    rng = np.random.default_rng(21)
    s = smp.graph_shift(smp.sample_weighted(cat.oscillatory(5), 16))
    coeffs = rng.uniform(-1.0, 1.0, size=(2, 2, 2, 3))
    x = rng.normal(size=(16, 2))
    layers, channels, _, taps = coeffs.shape
    for kind in ("identity", "relu", "tanh"):
        act = neural.Activation(kind)
        cur = x
        for layer in range(layers):
            powers = [cur]
            for _ in range(1, taps):
                nxt = kernels.shift_matvec(s, powers[-1])
                _assert_product_bound(nxt, s, powers[-1])
                powers.append(nxt)
            z = np.zeros_like(cur)
            for g in range(channels):
                for k in range(taps):
                    z += coeffs[layer, :, g, k] * powers[k][:, g : g + 1]
            cur = act.apply(z)
        got = kernels.layer_stack_forward(s, x, coeffs, act.act_id, act.slope)
        assert np.array_equal(got, cur), kind


def test_shift_matvec_compensated_sum():
    rng = np.random.default_rng(8)
    s = _mirror(rng.normal(size=(20, 20)))
    x = rng.normal(size=(20, 3))
    perm = rng.permutation(20)
    got = kernels.shift_matvec(s, x)
    assert np.allclose(got, s @ x, atol=1e-12, rtol=1e-12)
    assert np.array_equal(got, kernels.shift_matvec(s, x))
    # summation-order independence: relabeling the nodes, which reorders
    # every row's terms, permutes the output rows bit for bit
    again = kernels.shift_matvec(s[np.ix_(perm, perm)], x[perm])
    assert np.array_equal(got[perm], again)


def test_forward_permutation_equivariance_bit_exact():
    rng = np.random.default_rng(34)
    g = smp.sample_unweighted(cat.checkerboard(10), 15)
    s = smp.graph_shift(g)
    coeffs = rng.uniform(-1.0, 1.0, size=(2, 2, 2, 3))
    x = rng.normal(size=(15, 2))
    perm = rng.permutation(15)
    act = neural.Activation("tanh")
    base = kernels.layer_stack_forward(s, x, coeffs, act.act_id, act.slope)
    permuted = kernels.layer_stack_forward(s[np.ix_(perm, perm)], x[perm], coeffs,
                                           act.act_id, act.slope)
    assert np.array_equal(base[perm], permuted)


def _star(row):
    """The symmetric S whose row and column 0 are ``row``, zero elsewhere."""
    s = np.zeros((len(row), len(row)))
    s[0, :] = row
    s[:, 0] = row
    return s


def _row_sums(row, x):
    """Row 0 of S @ X for S = ``_star(row)``, under every relabeling of the
    nodes: each relabeling puts row 0's terms in another order."""
    s = _star(row)
    return [kernels.shift_matvec(s[np.ix_(order, order)], x[list(order)])[order.index(0), 0]
            for order in itertools.permutations(range(len(row)))]


def test_wide_range_counterexample_is_order_independent():
    # a row whose compensated (Neumaier) sum depends on the order of its
    # terms: 2.0 in one order, 2.0000000000000004 in another
    row = np.array([1e16, 1.0, -1e16, 1.0, 3e-16])
    s = _star(row)
    x = np.ones((5, 1))
    coeffs = np.array([0.0, 1.0]).reshape(1, 1, 1, 2)
    act = neural.Activation("identity")
    swap = [0, 1, 3, 2, 4]
    base = kernels.layer_stack_forward(s, x, coeffs, act.act_id, act.slope)
    moved = kernels.layer_stack_forward(s[np.ix_(swap, swap)], x[swap], coeffs,
                                        act.act_id, act.slope)
    assert np.array_equal(base[swap], moved)
    assert len(set(_row_sums(row, x))) == 1


def test_shift_matvec_bound_wide_range():
    # entries spread over 2**+-40 within rows and columns: the stated bound
    # holds against exact arithmetic and relabeling permutes bit-exactly
    rng = np.random.default_rng(17)
    for n, F in ((7, 2), (33, 3)):
        a = rng.normal(size=(n, n)) * np.exp2(rng.integers(-40, 41, size=(n, n)))
        s = a + a.T
        x = rng.normal(size=(n, F)) * np.exp2(rng.integers(-40, 41, size=(n, F)))
        got = kernels.shift_matvec(s, x)
        _assert_product_bound(got, s, x)
        perm = rng.permutation(n)
        moved = kernels.shift_matvec(s[np.ix_(perm, perm)], x[perm])
        assert np.array_equal(got[perm], moved)


def test_shift_matvec_edges():
    big = np.finfo(np.float64).max
    # partial sums beyond DBL_MAX in some orders; the exact value is finite
    assert _row_sums(np.array([big, big, -big]), np.ones((3, 1))) == [big] * 6
    assert kernels.shift_matvec(np.array([[big]]), np.array([[0.5]]))[0, 0] == big * 0.5
    # subnormal rows scale without forming 2**shift beyond DBL_MAX
    tiny = np.array([[1e-310, 2e-310], [2e-310, 0.0]])
    feats = np.array([[1e300], [3.0]])
    _assert_product_bound(kernels.shift_matvec(tiny, feats), tiny, feats)
    # a non-finite entry poisons its column of X, nothing else (an S holding
    # one is refused: test_integrate_refuses_a_shift_as_the_forward_map_does)
    for bad in (np.inf, -np.inf, np.nan):
        x = np.ones((3, 2))
        x[1, 0] = bad
        got = kernels.shift_matvec(np.eye(3), x)
        assert np.isnan(got[:, 0]).all() and np.array_equal(got[:, 1], np.ones(3))


def test_forward_lipschitz_growth_bound():
    rng = np.random.default_rng(55)
    s = smp.graph_shift(smp.sample_weighted(cat.tent(), 12))
    act = neural.Activation("tanh")
    for _ in range(20):
        bank = neural.random_filter_bank(2, 2, 2, rng)
        bound = (bank.F * bank.K * neural.h_sup_certified(bank)) ** bank.L
        x = rng.normal(size=(12, 2))
        y = rng.normal(size=(12, 2))
        dout = np.linalg.norm(
            kernels.layer_stack_forward(s, x, bank.coeffs, act.act_id, act.slope)
            - kernels.layer_stack_forward(s, y, bank.coeffs, act.act_id, act.slope)
        )
        assert dout <= bound * np.linalg.norm(x - y) * (1.0 + 1e-12)


def test_random_filter_bank_reproducible():
    a = neural.random_filter_bank(2, 3, 2, np.random.default_rng(99))
    b = neural.random_filter_bank(2, 3, 2, np.random.default_rng(99))
    assert np.array_equal(a.coeffs, b.coeffs)
    assert a.coeffs.shape == (2, 3, 3, 2)
    four = neural.random_filter_bank(1, 1, 2, np.random.default_rng(0), time_law="fourier", modes=3)
    assert four.coeffs.shape == (1, 1, 1, 2, 7)
    # only the two laws a FilterBank can hold are drawn; any other is refused
    for law in ("periodic", "Fourier", ""):
        with pytest.raises(InvalidParameterError, match="unknown time law"):
            neural.random_filter_bank(1, 1, 1, np.random.default_rng(0), time_law=law, modes=1)


def _frozen_split(a, beta, axis, out):
    """The operator's split as it was before the hot loop was trimmed, kept
    here so that the product is checked against those bits and not against
    its own split: slices to ``out[p]``, returns per-line exponents and
    the non-finite-line mask (all False when every line is finite)."""
    peak = np.maximum(a.max(axis=axis, keepdims=True), -a.min(axis=axis, keepdims=True))
    bad = ~np.isfinite(peak)
    if bad.any():
        a = np.where(bad, 0.0, a)
        peak = np.where(bad, 0.0, peak)
    e = np.frexp(peak)[1]
    y = out[-1]
    np.ldexp(a, beta - e, out=y)
    for p in range(kernels.SLICES - 1):
        np.rint(y, out=out[p])
        y -= out[p]
        y *= 2.0**beta
    np.rint(y, out=y)
    return e, bad


# Slice pairs from the smallest weight to the largest, as the oracle adds them.
_FROZEN_PAIRS = sorted(itertools.product(range(kernels.SLICES), repeat=2),
                       key=lambda pq: (-(pq[0] + pq[1]), -pq[0]))


def _fresh_split_product(s, x):
    """S @ X the way every product split S before the operator existed: one
    float64 split of all of S per call, then the same GEMM and slice sum."""
    m, n = s.shape
    F = x.shape[1]
    beta = kernels.slice_bits(n)
    ss = np.empty((kernels.SLICES, m, n))
    es, sbad = _frozen_split(s, beta, 1, ss)
    xs = np.empty((kernels.SLICES, n, F))
    ex, xbad = _frozen_split(x, beta, 0, xs)
    rhs = xs.transpose(1, 0, 2).reshape(n, kernels.SLICES * F)
    prods = (ss.reshape(-1, n) @ rhs).reshape(kernels.SLICES, m, kernels.SLICES, F)
    acc = np.zeros((m, F))
    for p, q in _FROZEN_PAIRS:
        acc += prods[p, :, q] * 2.0 ** (-(p + q) * beta)
    out = np.ldexp(acc, es + ex - 2 * beta)
    out[sbad[:, 0]] = np.nan
    out[:, xbad[0]] = np.nan
    return out


@st.composite
def _shift_operands(draw, n_min, n_max):
    """A symmetric n x n S and three (n, F) X: normal entries, optionally
    spread over 2**+-40 within rows and columns, optionally with inf/NaN
    entries in X."""
    n = draw(st.integers(n_min, n_max))
    F = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = rng.normal(size=(n, n))
    xs = [rng.normal(size=(n, F)) for _ in range(3)]
    if draw(st.booleans()):
        s *= np.exp2(rng.integers(-40, 41, size=s.shape))
        for x in xs:
            x *= np.exp2(rng.integers(-40, 41, size=x.shape))
    poison = draw(st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from([np.inf, -np.inf, np.nan])),
        max_size=3))
    for which, value in poison:
        xs[which][rng.integers(n), rng.integers(F)] = value
    return _mirror(s), xs, not poison


@pytest.mark.parametrize("n_min, n_max", [(1, 8), (9, 24)])  # float64, float32 store
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_operator_reuse_matches_fresh_split(n_min, n_max, data):
    s, xs, finite = data.draw(_shift_operands(n_min, n_max))
    n = len(s)
    op = kernels.ShiftOperator(s)
    float32 = kernels.slice_bits(n) <= kernels.FLOAT32_BITS
    assert op.slices.dtype == (np.float32 if float32 else np.float64)
    assert float32 == (n >= 9)
    perm = np.random.default_rng(n).permutation(n)
    moved = kernels.ShiftOperator(s[np.ix_(perm, perm)])
    for x in xs:
        got = op @ x
        assert np.array_equal(got, kernels.shift_matvec(s, x), equal_nan=True)
        assert np.array_equal(got, _fresh_split_product(s, x), equal_nan=True)
        # relabeling the nodes permutes every bit
        assert np.array_equal(moved @ x[perm], got[perm], equal_nan=True)
        if finite:
            _assert_product_bound(got, s, x)


def _check_depth_product(s, xs, block_rows):
    """An operator built ``block_rows`` rows at a time keeps the slices up to
    S's last nonzero one, and every product equals the 3-slice product bit
    for bit (the sign of a zero and the NaN pattern included)."""
    m, n = s.shape
    full = np.empty((kernels.SLICES, m, n))
    _frozen_split(s, kernels.slice_bits(n), 1, full)
    depth = max([p + 1 for p in range(kernels.SLICES) if full[p].any()], default=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "BLOCK_ENTRIES", block_rows * n)
        op = kernels.ShiftOperator(s)
    assert op.rows == min(m, block_rows)
    assert op.slices.shape == (depth, m, n)
    assert op.slices.dtype == (np.float32 if n >= 9 else np.float64)
    for x in xs:
        assert np.array_equal((op @ x).view(np.int64),
                              _fresh_split_product(s, x).view(np.int64))
    return depth


@st.composite
def _dyadic_operands(draw):
    """A dyadic symmetric n x n S, entry (i, j) k * 2**-c with
    |k| < 2**min(bits_i, bits_j) and at most ``top`` slices' worth of bits,
    the bits optionally ascending so that a later row block needs more
    slices than the first; some rows and their columns wide range; zeros
    and -0.0 in S and X; inf/NaN in X."""
    n = draw(st.integers(1, 40))
    F = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.integers(1, kernels.SLICES)) * kernels.slice_bits(n)
    bits = rng.integers(1, top + 1, size=(n, 1))
    if draw(st.booleans()):
        bits.sort(axis=0)
    s = np.rint(rng.uniform(-1.0, 1.0, size=(n, n)) * np.exp2(np.minimum(bits, bits.T)))
    s *= np.exp2(-rng.integers(0, 80))
    s[rng.random((n, n)) < 0.3] = 0.0
    s[rng.random((n, n)) < 0.1] = -0.0
    wide = rng.random(n) < draw(st.sampled_from([0.0, 0.2]))
    s[wide] = rng.normal(size=(wide.sum(), n)) * np.exp2(rng.integers(-40, 41, (wide.sum(), n)))
    s[:, wide] = s[wide].T  # before the mirror, so a wide row keeps its own entries
    xs = [rng.normal(size=(n, F)) * np.exp2(rng.integers(-40, 41, size=(n, F)))
          for _ in range(2)]
    for x in xs:
        x[rng.random((n, F)) < 0.2] = -0.0
    for which, value in draw(st.lists(
            st.tuples(st.integers(0, 1), st.sampled_from([np.inf, -np.inf, np.nan])),
            max_size=2)):
        xs[which][rng.integers(n), rng.integers(F)] = value
    return _mirror(s), xs


@settings(max_examples=60, deadline=None)
@given(operands=_dyadic_operands(), block_rows=st.integers(1, 3))
def test_operator_depth_matches_three_slice_product(operands, block_rows):
    s, xs = operands
    _check_depth_product(s, xs, block_rows)


@st.composite
def _branch_operands(draw, depth_one, bad_rows, bad_cols):
    """A symmetric n x n S and an (n, F) X that take the product's chosen
    branches: S of one slice (dyadic entries of fewer than beta bits) or of
    more (one row and column of wide-range normals), and X with or without
    an inf/NaN column; zeros and -0.0 in both, and X always has an all -0.0
    column.  A ``bad_rows`` S holds an inf or NaN entry and its mirror,
    which the operator refuses; the third value is that entry (None when
    there is none)."""
    n = draw(st.integers(2, 40))
    F = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = np.rint(rng.uniform(-1.0, 1.0, size=(n, n))
                * np.exp2(rng.integers(1, kernels.slice_bits(n))))
    s *= np.exp2(-rng.integers(0, 80))
    s[rng.random((n, n)) < 0.3] = 0.0
    s[rng.random((n, n)) < 0.1] = -0.0
    if not depth_one:
        wide = rng.integers(n)
        s[wide] = s[:, wide] = rng.normal(size=n) * np.exp2(rng.integers(-40, 41, size=n))
    s = _mirror(s)
    x = rng.normal(size=(n, F)) * np.exp2(rng.integers(-40, 41, size=(n, F)))
    x[rng.random((n, F)) < 0.2] = 0.0
    x[rng.random((n, F)) < 0.2] = -0.0
    cols = rng.permutation(F)  # cols[0] is all -0.0, cols[-1] the bad one
    x[:, cols[0]] = -0.0
    values = st.sampled_from([np.inf, -np.inf, np.nan])
    bad = None
    if bad_rows:
        i, j = rng.integers(n, size=2)
        bad = s[i, j] = s[j, i] = draw(values)
    if bad_cols:
        x[rng.integers(n), cols[-1]] = draw(values)
    return s, x, bad


@pytest.mark.parametrize("bad_cols", [False, True], ids=["finite_x", "bad_x"])
@pytest.mark.parametrize("bad_rows", [False, True], ids=["finite_s", "bad_s"])
@pytest.mark.parametrize("depth_one", [True, False], ids=["depth1", "deeper"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_product_branches_match_frozen_oracle(depth_one, bad_rows, bad_cols, data):
    # each branch of the product (the in-place GEMM at depth 1 or the
    # copied one above it, the NaN marks of X's columns taken or skipped,
    # one row block or several) gives the frozen oracle's bits, the sign
    # of every zero included; an S holding inf or NaN is refused while it
    # is split, in whichever row block the entry lies
    s, x, bad = data.draw(_branch_operands(depth_one, bad_rows, bad_cols))
    n = len(s)
    block_rows = data.draw(st.integers(1, n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "BLOCK_ENTRIES", block_rows * n)
        if bad_rows:
            with pytest.raises(InvalidParameterError,
                               match="symmetric" if np.isnan(bad) else "finite"):
                kernels.ShiftOperator(s)
            return
        op = kernels.ShiftOperator(s)
    assert op.rows == block_rows
    assert (len(op.slices) == 1) == depth_one
    got = op @ x
    assert np.array_equal(got.view(np.int64), _fresh_split_product(s, x).view(np.int64))
    assert np.isnan(got).all(axis=0).any() == bad_cols


def test_operator_depth_grows_in_later_blocks():
    # one row per block of a block-diagonal S: row 0 needs 1 slice, row 1
    # needs 2 and row 3 needs 3, so the store grows in later blocks: not
    # at all for the first diagonal block alone, once for the first two,
    # twice for all of them
    n = 16
    beta = kernels.slice_bits(n)
    s = np.zeros((n, n))
    s[0, 0] = 1.0
    s[1, 1:3] = [1.0, 2.0 ** -beta]
    s[3, 3:5] = [1.0, 2.0 ** (-2 * beta)]
    s[5, 5:7] = [0.5, -0.0]
    s = _mirror(s)
    x = np.arange(n * 2, dtype=np.float64).reshape(n, 2) - 7.0
    x[3, 1] = -0.0
    for end, depth in ((1, 1), (3, 2), (n, 3)):
        first = np.zeros((n, n))
        first[:end, :end] = s[:end, :end]
        assert _check_depth_product(first, [x], 1) == depth, end


_ONE_SLICE_AT_DYADIC_N = ("tent", "checkerboard", "hsbm", "hexaflake", "sierpinski")


@pytest.mark.parametrize("name, n, depth", [
    *((name, n, 1) for name in _ONE_SLICE_AT_DYADIC_N for n in (64, 512)),
    *((name, n, 3) for name in _ONE_SLICE_AT_DYADIC_N for n in (48, 192)),
    *(("oscillatory", n, 3) for n in (48, 64, 192, 512)),
])
def test_catalog_shift_depth(name, n, depth):
    # S = A/n: one slice whenever n is a power of two and A is binary or a
    # tent, whose entries (1 - |i - j|/n) carry at most log2 n bits
    graph, _ = smp.sample_system(cat.from_name(name), n, [])
    assert kernels.ShiftOperator(smp.graph_shift(graph)).slices.shape == (depth, n, n)


def test_operator_symmetry_read_once_and_dense_dropped(monkeypatch):
    # symmetry is checked once, when an array is split (a graph has checked
    # its own), never by a product or a forward pass on the operator; the
    # operator keeps no reference to the array or graph it split
    import gc
    import weakref

    checked = []
    monkeypatch.setattr(kernels, "is_symmetric",
                        lambda a, check=kernels.is_symmetric: checked.append(a) or check(a))
    s = np.array([[0.0, 0.5], [0.5, 1.0]])
    op = kernels.ShiftOperator(s)
    gone = smp.SampledGraph(s.copy(), "weighted")
    refs = [weakref.ref(gone), weakref.ref(gone.adjacency)]
    divided = kernels.ShiftOperator(gone)
    del gone
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(checked) == 1
    assert kernels.as_operator(op) is op
    # an operator and its array give the same forward pass bit for bit
    x = np.array([[1.0], [-2.0]])
    coeffs = np.array([0.5, 1.5, -0.25]).reshape(1, 1, 1, 3)
    with_op = kernels.layer_stack_forward(op, x, coeffs, kernels.ACT_TANH)
    assert len(checked) == 1
    assert np.array_equal(with_op, kernels.layer_stack_forward(s, x, coeffs, kernels.ACT_TANH))
    assert np.array_equal(kernels.layer_stack_forward(divided, x, coeffs, kernels.ACT_TANH),
                          kernels.layer_stack_forward(s / 2, x, coeffs, kernels.ACT_TANH))


def _assert_same_operator(got, want, xs):
    """Two operators agree bit for bit: slices (dtype and depth included),
    exponents, and every product."""
    assert got.slices.dtype == want.slices.dtype
    assert got.slices.shape == want.slices.shape
    assert np.array_equal(got.slices, want.slices)
    assert np.array_equal(got.exps, want.exps)
    for x in xs:
        assert np.array_equal((got @ x).view(np.int64), (want @ x).view(np.int64))


@pytest.mark.parametrize("name", cat.CATALOG_NAMES)
@pytest.mark.parametrize("n", [7, 48, 64, 192, 512, 768])
def test_operator_from_adjacency_matches_dense_shift(name, n):
    # dividing each row block by n as it is split gives the slices of
    # graph_shift(graph) = A / n, without forming it
    graph, _ = smp.sample_system(cat.from_name(name), n, [])
    rng = np.random.default_rng(n)
    xs = [rng.normal(size=(n, 3)), rng.normal(size=(n, 1)) * 1e-300]
    _assert_same_operator(kernels.ShiftOperator(graph),
                          kernels.ShiftOperator(smp.graph_shift(graph)), xs)


@pytest.mark.parametrize("name", ["tent", "holder-tent", "checkerboard", "hexaflake"])
def test_sample_and_split_hold_one_dense_array(name):
    # sampling a graph and splitting its adjacency keep no second dense
    # float64 n x n array beside the adjacency and the slice store: the
    # traced peak stays under 8 n^2 bytes for A, 4 n^2 per float32 slice
    # and 0.75 * 8 n^2 for the transients (numpy reports its allocations
    # to tracemalloc, so this does not depend on the allocator or host)
    import tracemalloc

    n = 1024
    spec = cat.from_name(name)
    if spec.value_class == cat.BINARY:
        cat.support_pattern(spec)  # a cached pattern, not part of the split
    tracemalloc.start()
    try:
        graph, _ = smp.sample_system(spec, n, [])
        op = kernels.ShiftOperator(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    depth = len(op.slices)
    assert peak <= (1.75 + depth / 2) * 8 * n * n, (depth, peak / (8 * n * n))


@pytest.mark.parametrize("name, n", [("holder-tent", 1024), ("oscillatory", 1024),
                                     ("holder-tent", 768), ("tent", 768)])
def test_split_grown_at_first_block_drops_empty_store(name, n):
    # the first row block already needs three slices: the empty one-slice
    # store is freed before the three-slice store (1.5 * 8 n^2 bytes in
    # float32) is allocated, so the two never coexist (A is allocated
    # before tracing starts)
    import tracemalloc

    graph, _ = smp.sample_system(cat.from_name(name), n, [])
    tracemalloc.start()
    try:
        op = kernels.ShiftOperator(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(op.slices) == kernels.SLICES
    assert peak <= 1.7 * 8 * n * n, peak / (8 * n * n)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), value_class=st.sampled_from([smp.WEIGHTED, smp.UNWEIGHTED]),
       block_rows=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       poison=st.lists(st.sampled_from([np.inf, -np.inf, np.nan]), max_size=2))
def test_operator_divisor_matches_divided_array(n, value_class, block_rows, seed, poison):
    # a sampled graph split with its divisor n, a few rows per block so that
    # the division and the store's growth span several blocks, against the
    # operator on the array adjacency / n; and an array holding inf or NaN
    # refused when it is split a few rows per block, in whichever block
    rng = np.random.default_rng(seed)
    if value_class == smp.WEIGHTED:
        a = rng.uniform(0.0, 1.0, size=(n, n))
        short = rng.integers(0, n + 1)  # leading rows of 3 bits: later blocks need more
        a[:short] = np.rint(a[:short] * 8.0) / 8.0
        scale = np.exp2(rng.integers(-30, 1, size=n))
        a *= scale[:, None] * scale[None, :]
    else:
        a = rng.integers(0, 2, size=(n, n)).astype(np.float64)
    graph = smp.SampledGraph(np.triu(a) + np.triu(a, 1).T, value_class)
    poisoned = graph.adjacency / n
    for value in poison:  # an inf or NaN entry, mirrored as in a symmetric S
        i, j = rng.integers(n, size=2)
        poisoned[i, j] = poisoned[j, i] = value
    xs = [rng.normal(size=(n, 2))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "BLOCK_ENTRIES", block_rows * n)
        got = kernels.ShiftOperator(graph)
        want = kernels.ShiftOperator(graph.adjacency / n)
        if poison:
            with pytest.raises(InvalidParameterError,
                               match="symmetric" if np.isnan(poisoned).any() else "finite"):
                kernels.ShiftOperator(poisoned)
    assert got.rows == min(n, block_rows)
    _assert_same_operator(got, want, xs)


def test_operator_empty_shapes():
    # a shift has n >= 1 nodes: an empty one is refused, square or not
    for shape, message in (((0, 0), "n >= 1 nodes, got 0x0"), ((3, 0), "square shift, got 3x0"),
                           ((0, 4), "square shift, got 0x4")):
        with pytest.raises(DimensionMismatchError, match=message):
            kernels.shift_matvec(np.zeros(shape), np.zeros((shape[1], 2)))
