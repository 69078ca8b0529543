import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacksonlab import numerics
from jacksonlab import (
    EvaluationError,
    Grid,
    LobattoPoly,
    PreconditionError,
    TargetFunction,
    TrigPoly,
    cheb_lobatto_nodes,
    circle_dist,
    effective_algebraic_degree,
    effective_trig_degree,
    median3_pmf,
    modulus_estimate,
    sup_distance,
    trig_coeffs_from_samples,
)
from jacksonlab.corpus import CORPUS
from jacksonlab.constructors import build_approximant, error_report
from jacksonlab.phase_dist import fejer_value
from oracles import conjugate_symmetry_defect, fourier_sum, imag_residue, median3, median3_pmf_by_unique

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _cheb_series(coeffs):
    """The Chebyshev series in 2x-1 with these coefficients, as a function of x."""
    return lambda x: np.polynomial.chebyshev.chebval(2.0 * np.asarray(x) - 1.0, coeffs)


class TestCircleDist:
    def test_wraparound(self):
        assert circle_dist(0.9, 0.1) == pytest.approx(0.2, abs=1e-15)

    def test_identity(self):
        for x in (0.0, 0.3, 0.999):
            assert circle_dist(x, x) == 0.0

    def test_antipodal_maximum(self):
        assert circle_dist(0.75, 0.25) == pytest.approx(0.5, abs=1e-15)

    @given(finite, finite)
    def test_symmetry_and_range(self, a, b):
        d = circle_dist(a, b)
        assert 0.0 <= d <= 0.5
        assert d == pytest.approx(circle_dist(b, a), abs=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(42)
        a, b, c = rng.uniform(-3, 3, size=(3, 10_000))
        assert np.all(
            circle_dist(a, c) <= circle_dist(a, b) + circle_dist(b, c) + 1e-12
        )


class TestViewFits:
    """numerics.view_fits says whether numpy can describe a view, from its
    shape and item size alone; nothing here makes an array of that size."""

    @pytest.mark.parametrize("shape,itemsize", [
        ((759_250_125, 759_250_124), 16),  # the largest law window view, M = 759,250,124
        ((1_073_741_823, 1_073_741_823), 8),  # the largest Jackson window view
        ((2**63 - 1,), 1), ((), 8), ((0, 2**70), 8), ((3, 4), 16),
    ])
    def test_views_numpy_can_describe(self, shape, itemsize):
        assert numerics.view_fits(shape, itemsize)

    @pytest.mark.parametrize("shape,itemsize", [
        ((759_250_126, 759_250_125), 16), ((1_073_741_824, 1_073_741_824), 8),
        ((2**63,), 1), ((2**62,), 2), ((2**40, 2**40), 1),
    ])
    def test_views_numpy_refuses(self, shape, itemsize):
        assert not numerics.view_fits(shape, itemsize)

    @pytest.mark.parametrize("shape,itemsize", [((759_250_125, 759_250_124), 16),
                                                ((759_250_126, 759_250_125), 16),
                                                ((1_073_741_823,) * 2, 8),
                                                ((1_073_741_824,) * 2, 8)])
    def test_agrees_with_numpy_at_the_limits(self, shape, itemsize):
        # a strided view over one element: numpy checks its nominal size, not the buffer
        base = np.zeros(1, dtype=np.dtype(f"V{itemsize}"))
        try:
            np.lib.stride_tricks.as_strided(base, shape=shape, strides=(itemsize,) * len(shape))
            described = True
        except ValueError:
            described = False
        assert numerics.view_fits(shape, itemsize) is described


class TestWindowView:
    """numerics.window_view(table, width) is sliding_window_view(table, width):
    row i is table[i:i+width], read-only, over one contiguous buffer."""

    @pytest.mark.parametrize("table", [np.arange(7.0), np.arange(6) + 1j, np.arange(9.0)[::2],
                                       np.broadcast_to(np.array(0.5), (5,))],
                             ids=["float", "complex", "strided", "broadcast"])
    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_rows_are_the_sliding_windows(self, table, width):
        windows = numerics.window_view(table, width)
        want = np.lib.stride_tricks.sliding_window_view(table, width)
        assert windows.shape == want.shape and windows.dtype == table.dtype
        assert windows.strides == (table.itemsize,) * 2 and not windows.flags.writeable
        assert np.array_equal(windows, want)
        rows = [len(want) - 1, 0, 0]  # a gather is a fresh, writable copy of its rows
        gathered = windows[rows]
        assert np.array_equal(gathered, want[rows]) and gathered.flags.writeable

    def test_contiguous_table_is_not_copied(self):
        table = np.arange(10.0)
        assert np.shares_memory(numerics.window_view(table, 4), table)
        assert table.flags.writeable  # the view is read-only, the table is left as it was


class TestFrac:
    """numerics.frac is x % 1.0 bit for bit, signed zeros included."""

    @staticmethod
    def _same_as_remainder(x):
        got, want = numerics.frac(x), x % 1.0
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_edge_values(self):
        # -5e-324 and -1e-17 round up to 1.0; 1 - 2^-53 is the largest float below 1
        self._same_as_remainder(np.array(
            [0.0, -0.0, 5e-324, -5e-324, -1e-17, -1.0, 1.0 - 2.0**-53]))

    def test_near_and_past_the_last_fraction_bit(self):
        big = np.array([2.0**52 - 0.5, 2.0**53, 1e308])
        self._same_as_remainder(np.concatenate((big, -big)))

    def test_seeded_uniforms(self):
        self._same_as_remainder(np.random.default_rng(3).uniform(-1e6, 1e6, 10**5))

    def test_infinities_and_nan_give_nan_in_the_same_places(self):
        x = np.array([np.inf, -np.inf, np.nan, 0.25, -np.inf])
        with np.errstate(invalid="ignore"):
            got, want = numerics.frac(x), x % 1.0
        assert np.array_equal(np.isnan(got), np.isnan(x) | np.isinf(x))
        assert np.array_equal(got, want, equal_nan=True)


class TestMedian3:
    def test_basic(self):
        assert median3(1, 5, 3) == 3

    def test_tie(self):
        assert median3(2, 2, 7) == 2

    def test_permutation_invariance(self):
        import itertools

        for perm in itertools.permutations((0.3, -1.2, 8.0)):
            assert median3(*perm) == 0.3

    def test_median_inequality_fuzz(self):
        # |med(a,b,c) - t| <= med(|a-t|, |b-t|, |c-t|) on 1e5 random quadruples
        rng = np.random.default_rng(7)
        a, b, c, t = rng.uniform(-10, 10, size=(4, 100_000))
        med = np.median(np.stack([a, b, c]), axis=0)
        med_dev = np.median(np.stack([abs(a - t), abs(b - t), abs(c - t)]), axis=0)
        assert np.all(np.abs(med - t) <= med_dev + 1e-12)


class TestMedian3Pmf:
    def test_point_mass(self):
        support, probs = median3_pmf([0.5], [1.0])
        assert support.tolist() == [0.5]
        assert probs.tolist() == [1.0]

    def test_two_point_symmetric(self):
        support, probs = median3_pmf([0.2, 0.8], [0.5, 0.5])
        assert probs == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(size=5)
        probs = rng.dirichlet(np.ones(5))
        support, med = median3_pmf(values, probs)
        expect = np.zeros(len(support))
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    m = median3(values[i], values[j], values[k])
                    expect[np.searchsorted(support, m)] += probs[i] * probs[j] * probs[k]
        assert med == pytest.approx(expect, abs=1e-12)

    def test_rows_equal_one_dimensional_calls(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 4, size=9) / 4.0  # repeated values get merged
        probs = rng.dirichlet(np.ones(9), size=(3, 5))
        support, med = median3_pmf(values, probs)
        assert med.shape == (3, 5, len(support))
        for row in np.ndindex(3, 5):
            row_support, row_med = median3_pmf(values, probs[row])
            assert np.array_equal(row_support, support)
            assert np.array_equal(row_med, med[row])

    DUPLICATE_HEAVY = {
        "cos-odd": np.cos(2 * np.pi * np.arange(17) / 17),
        "cos-even": np.cos(2 * np.pi * np.arange(64) / 64),
        "constant": np.full(9, 0.3),
        "single": np.array([0.7]),
        "three-levels": np.random.default_rng(2).integers(0, 3, size=40) / 2.0,
    }

    @pytest.mark.parametrize("name", DUPLICATE_HEAVY)
    @pytest.mark.parametrize("rows", [(), (6,), (3, 4)])
    def test_bit_identical_to_the_unique_form(self, name, rows):
        values = self.DUPLICATE_HEAVY[name]
        rng = np.random.default_rng(len(values))
        # magnitudes 1e-16..1, so the order in which a group is summed shows in the last bits
        probs = rng.uniform(size=rows + values.shape) * 10.0 ** rng.integers(-16, 1, size=rows + values.shape)
        probs /= probs.sum(axis=-1, keepdims=True)
        support, med = median3_pmf(values, probs)
        want_support, want_med = median3_pmf_by_unique(values, probs)
        assert np.array_equal(support, want_support)
        assert np.array_equal(med, want_med)
        # C order too: a product with the law sums in a layout-dependent order
        assert med.shape == rows + support.shape and med.flags.c_contiguous

    def test_group_sums_in_index_order(self):
        # 0.5 + 2^-54 rounds back to 0.5, twice; summed pairwise, the group would be 0.5 + 2^-53
        support, med = median3_pmf([0.3, 0.3, 0.3], [0.5, 2.0**-54, 2.0**-54])
        assert support.tolist() == [0.3] and med.tolist() == [0.5]

    def test_empty_values(self):
        support, med = median3_pmf([], [])
        assert support.shape == (0,) and med.shape == (0,)
        assert median3_pmf([], np.zeros((3, 0)))[1].shape == (3, 0)

    @pytest.mark.parametrize("values", [[np.nan], [0.2, np.nan, 0.2], [np.nan, 0.1, np.nan]])
    def test_nan_value_refused(self, values):
        # np.unique merged the NaNs into one support point with a probability
        probs = np.full(len(values), 1.0 / len(values))
        for p in (probs, np.stack((probs, probs))):
            with pytest.raises(PreconditionError, match="NaN"):
                median3_pmf(values, p)

    def test_probs_must_end_in_the_values_axis(self):
        for probs in ([0.5, 0.3, 0.2], [[1.0]], 1.0):
            with pytest.raises(PreconditionError):
                median3_pmf([0.1, 0.2], probs)

    def test_values_must_be_one_dimensional(self):
        # the last axes match, so only the shape of values is at fault
        with pytest.raises(PreconditionError, match="values must be a 1-D array"):
            median3_pmf(np.zeros((2, 2)), np.ones((2, 2)))

    def test_no_sorted_copy_of_the_law(self):
        # a (978 x 67) batch on 34 distinct values, 33 of them in pairs: the
        # law is read in place, never copied in sorted order
        z = np.arange(67)
        values = np.cos(2 * np.pi * np.minimum(z, 67 - z) / 67)
        probs = np.random.default_rng(4).dirichlet(np.ones(67), size=978)
        tracemalloc.start()
        try:
            median3_pmf(values, probs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float copy of the law plus two (978 x 34) arrays, the run sums and the result
        assert peak < probs.nbytes + 2 * 978 * 34 * 8


class TestSupDistance:
    def test_equal_functions(self):
        g = CORPUS["sqrt"]
        assert sup_distance(g, g, Grid.uniform(101)) == 0.0

    def test_constant_offset(self):
        f = TargetFunction(lambda x: x + 0.0)
        h = lambda x: x + 0.25
        assert sup_distance(f, h, Grid.uniform(65)) == pytest.approx(0.25, abs=1e-15)

    def test_bernstein_grid_vs_dense_scan(self):
        g = CORPUS["abs-half"]
        approx = build_approximant(g, "bernstein", 16)
        coarse = sup_distance(g, approx, Grid.uniform(4097))
        dense = sup_distance(g, approx, Grid.uniform(1_000_001))
        assert abs(coarse - dense) < 1e-6

    def test_nonfinite_names_point(self):
        f = TargetFunction(lambda x: x + 0.0)
        h = lambda x: np.where(x > 0.5, np.nan, x)
        with pytest.raises(ArithmeticError, match=r"at x=0\.75$"):  # a float, not np.float64
            sup_distance(f, h, Grid(np.array([0.25, 0.75])))


class TestModulusEstimate:
    def test_linear(self):
        g = CORPUS["identity"]
        est = modulus_estimate(g, 0.1, Grid.uniform(1001))
        assert est == pytest.approx(0.1, abs=1e-12)

    def test_kink(self):
        est = modulus_estimate(CORPUS["abs-half"], 0.2, Grid.uniform(2001))
        assert est == pytest.approx(0.2, abs=1e-12)

    def test_sqrt_small_scale(self):
        est = modulus_estimate(CORPUS["sqrt"], 0.01, Grid.uniform(8001))
        assert est == pytest.approx(0.1, abs=2e-3)

    def test_grid_too_coarse(self):
        with pytest.raises(PreconditionError):
            modulus_estimate(CORPUS["sqrt"], 0.01, Grid.uniform(65))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_value_refused(self, bad):
        # an infinite value would give omega = inf, a NaN one would be dropped by max()
        f = TargetFunction(lambda x: np.where(x == 0.5, bad, x))
        with pytest.raises(PreconditionError, match=r"non-finite value at x=0\.5$"):
            modulus_estimate(f, 0.1, Grid.uniform(101))

    def test_monotone_and_subadditive(self):
        g = CORPUS["holder-cusp"]
        grid = Grid.uniform(4001)
        deltas = [0.04, 0.08, 0.12, 0.16]
        omegas = [modulus_estimate(g, d, grid) for d in deltas]
        assert all(a <= b + 1e-12 for a, b in zip(omegas, omegas[1:]))
        slack = 2.0 / 4000
        assert omegas[2] <= omegas[0] + omegas[1] + 2 * g(np.array([slack]))[0] + 1e-9

    def test_below_analytic_modulus(self):
        grid = Grid.uniform(4001)
        for g in CORPUS.values():
            if g.analytic_modulus is None:
                continue
            for delta in (0.05, 0.2):
                est = modulus_estimate(g, delta, grid)
                assert est <= g.analytic_modulus(delta) + 1e-12


class TestChebCoeffs:
    # the Chebyshev coefficients of samples at the Lobatto nodes, as the degree probe takes them
    def test_constant(self):
        c = LobattoPoly(np.full(5, 3.25)).chebyshev()
        assert c.shape == (5,)
        assert c[0] == pytest.approx(3.25, abs=1e-14)
        assert np.max(np.abs(c[1:])) < 1e-14

    def test_t2_basis_function(self):
        nodes = cheb_lobatto_nodes(6)
        c = LobattoPoly(8 * nodes**2 - 8 * nodes + 1).chebyshev()
        assert c[2] == pytest.approx(1.0, abs=1e-13)
        others = np.delete(c, 2)
        assert np.max(np.abs(others)) < 1e-13

    def test_cubic_round_trip(self):
        c = LobattoPoly(cheb_lobatto_nodes(8) ** 3).chebyshev()
        fresh = np.random.default_rng(0).uniform(size=100)
        assert np.max(np.abs(_cheb_series(c)(fresh) - fresh**3)) < 1e-13

    def test_node_round_trip(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=17)
        c = LobattoPoly(vals).chebyshev()
        scale = 1e-12 * (1 + np.max(np.abs(vals)))
        assert np.max(np.abs(_cheb_series(c)(cheb_lobatto_nodes(17)) - vals)) < scale

    def test_empty_rejected(self):
        for vals in (np.array([]), np.array([1.0])):
            with pytest.raises(PreconditionError):
                LobattoPoly(vals)


class TestLobattoPoly:
    def test_nodes_span_the_interval(self):
        nodes = cheb_lobatto_nodes(9)
        assert nodes[0] == 0.0 and nodes[-1] == 1.0
        assert np.all(np.diff(nodes) > 0)
        with pytest.raises(PreconditionError):
            cheb_lobatto_nodes(1)

    def test_exact_at_every_node(self):
        vals = np.random.default_rng(3).normal(size=12)
        poly = LobattoPoly(vals)
        assert np.array_equal(poly(cheb_lobatto_nodes(12)), vals)
        assert poly(0.0) == vals[0] and poly(1.0) == vals[-1] and poly(-0.0) == vals[0]
        assert [poly(x) for x in cheb_lobatto_nodes(12).tolist()] == vals.tolist()

    def test_matches_the_chebyshev_series(self):
        coeffs = np.random.default_rng(4).normal(size=10)
        series = _cheb_series(coeffs)
        poly = LobattoPoly(series(cheb_lobatto_nodes(10)))
        fresh = np.random.default_rng(5).uniform(size=200)
        assert np.max(np.abs(poly(fresh) - series(fresh))) < 1e-13
        # a float takes the scalar path, which must give the one-point array path's bits
        assert [poly(x) for x in fresh.tolist()] == [poly(fresh[i : i + 1])[0] for i in range(200)]
        assert np.max(np.abs(poly.chebyshev() - coeffs)) < 1e-13

    def test_shapes_and_scalar(self):
        poly = LobattoPoly(np.array([2.5, 2.5]))
        assert poly(0.4) == pytest.approx(2.5) and isinstance(poly(0.4), float)
        assert poly(np.zeros((2, 3))).shape == (2, 3)
        assert poly(np.array([])).shape == (0,)

    @pytest.mark.parametrize("x", [1e-310, 5e-324, 1.1e-308, np.nextafter(2.2250738585072014e-308, 0.0)])
    def test_subnormal_x_matches_the_reference(self, x):
        # w/(x - 0) overflowed, and both paths gave inf/inf = NaN
        approx = build_approximant(CORPUS["sqrt"], "bernstein", 8)
        want = approx.reference(x)
        for got in (approx(x), approx(np.array([x, 0.5]))[0], approx(np.array([[x]]))[0, 0]):
            assert abs(got - want) <= 1e-12 * want + 2 * 5e-324, (x, got, want)

    def test_next_to_every_node(self):
        coeffs = np.random.default_rng(6).normal(size=12)
        series = _cheb_series(coeffs)
        nodes = cheb_lobatto_nodes(12)
        poly = LobattoPoly(series(nodes))
        near = np.concatenate((np.nextafter(nodes[1:], 0.0), np.nextafter(nodes[:-1], 1.0)))
        assert near.min() == 5e-324
        assert np.max(np.abs(poly(near) - series(near))) < 1e-13
        assert max(abs(poly(x) - series(x)) for x in near.tolist()) < 1e-13

    def test_array_node_hits_give_the_stored_values(self):
        # hits are found by binary search; every node twice, the ends, their
        # neighbours and subnormals, unsorted and 2-D
        n = 200
        vals = np.random.default_rng(10).normal(size=n + 1)
        poly = LobattoPoly(vals)
        nodes = cheb_lobatto_nodes(n + 1)
        near = np.concatenate((np.nextafter(nodes[1:], 0.0), np.nextafter(nodes[:-1], 1.0)))
        xs = np.concatenate((nodes, nodes, [0.0, -0.0, 1.0, 5e-324, 1e-310], near))
        order = np.random.default_rng(11).permutation(xs.size)
        xs = xs[order].reshape(3, -1)
        out = poly(xs)
        assert out.shape == xs.shape
        hit = order < 2 * (n + 1) + 3  # the nodes, 0.0, -0.0 and 1.0
        where = np.concatenate((np.arange(n + 1), np.arange(n + 1), [0, 0, n]))
        assert np.array_equal(out.reshape(-1)[hit], vals[where[order[hit]]])
        scalar = np.array([poly(x) for x in xs.reshape(-1).tolist()])
        assert np.array_equal(scalar[hit], out.reshape(-1)[hit])
        # elsewhere a batch sums in its BLAS call's order, not the scalar path's
        assert np.max(np.abs(scalar - out.reshape(-1))) <= 1e-13 * (1 + np.max(np.abs(vals)))

    @pytest.mark.parametrize("n", [1, 2, 40, 200, 1000])
    def test_float_path_is_the_searchsorted_form_bit_for_bit(self, n):
        # the float path (bisect on a node list, one dot with [values, 1]) gives the
        # bits of this form: a searchsorted hit, then q . [values, 1] and their ratio
        values = np.random.default_rng(n).normal(size=n + 1)
        poly = LobattoPoly(values)
        nodes = cheb_lobatto_nodes(n + 1)
        weights = np.ones(n + 1)
        weights[1::2] = -1.0
        weights[[0, -1]] *= 0.5
        terms = np.stack((values, np.ones(n + 1)), 1)

        def searchsorted_form(x):
            i = nodes.searchsorted(x)
            if nodes[i] == x:
                return float(values[i])
            diff = x - nodes
            if x < np.finfo(float).tiny:
                diff *= 2.0**1000
            sums = (weights / diff).dot(terms)
            return float(sums[0] / sums[1])

        xs = np.concatenate((np.random.default_rng(100 + n).uniform(size=2000), nodes,
                             np.nextafter(nodes, -1.0), np.nextafter(nodes, 2.0),
                             [0.0, -0.0, 5e-324, 1e-310, 1.0]))
        xs = xs[(xs >= 0.0) & (xs <= 1.0)]  # -5e-324 and 1.0000000000000002 are refused below
        got = np.array([poly(x) for x in xs.tolist()])
        want = np.array([searchsorted_form(x) for x in xs.tolist()])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

        # the array path's sums are the columns of q @ [values, 1]; BLAS may
        # sum a row by its place in a block, so these run in the same blocks
        def sum_rows(block):
            q = block[:, None] - nodes
            q[block < np.finfo(float).tiny] *= 2.0**1000
            with np.errstate(divide="ignore", invalid="ignore"):
                sums = (weights / q) @ terms
                return sums[:, 0] / sums[:, 1]

        want = numerics._in_blocks(sum_rows, xs, n + 1)
        i = nodes.searchsorted(xs)
        hit = nodes[i] == xs
        want[hit] = values[i[hit]]
        assert np.array_equal(poly(xs).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("x", [1.0000000000000002, -5e-324, np.nan, np.inf, -np.inf, True])
    def test_float_path_refusals(self, x):
        with pytest.raises(PreconditionError):
            LobattoPoly(np.arange(4.0))(x)

    def test_scaling_leaves_the_other_points_alone(self):
        poly = LobattoPoly(np.random.default_rng(8).normal(size=9))
        xs = np.random.default_rng(9).uniform(size=64)
        with_tiny = np.concatenate((xs[:-1], [1e-310]))
        assert np.array_equal(poly(with_tiny)[:-1], poly(xs)[:-1])

    def test_any_blocking_gives_the_single_block_values(self, monkeypatch):
        n = 40
        rng = np.random.default_rng(12)
        vals = rng.uniform(-1.0, 1.0, size=n + 1)
        poly = LobattoPoly(vals)
        nodes = cheb_lobatto_nodes(n + 1)
        # at 1000 entries a block holds 24 points: the subnormal 1e-310 ends
        # the first block and 5e-324 starts the second
        xs = np.concatenate((rng.uniform(size=23), [1e-310, 5e-324, 0.0, 1.0], nodes,
                             rng.uniform(size=300)))
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 1 << 40)
        whole = poly(xs)
        assert np.array_equal(whole[25:27], vals[[0, n]])
        assert np.array_equal(whole[27 : 28 + n], vals)
        for entries in (1, 1000):
            monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", entries)
            blocked = poly(xs)
            assert np.array_equal(blocked[25 : 28 + n], whole[25 : 28 + n])
            assert np.max(np.abs(blocked - whole)) <= 1e-15, entries

    def test_array_call_memory_is_bounded(self):
        # one (4097 x 401) block held about 40 MB of temporaries
        poly = LobattoPoly(np.random.default_rng(14).normal(size=401))
        x = np.linspace(0.0, 1.0, 4097)
        tracemalloc.start()
        try:
            poly(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_a_later_write_to_the_input_changes_nothing(self):
        # the values were the caller's array: a write to it changed the polynomial
        vals = np.random.default_rng(15).normal(size=9)
        poly = LobattoPoly(vals)
        xs = np.random.default_rng(16).uniform(size=32)
        before = poly(xs)
        vals[:] = 0.0
        assert np.array_equal(poly(xs), before)
        assert not poly.values.flags.writeable
        with pytest.raises(ValueError):
            poly.values[0] = 1.0

    @pytest.mark.parametrize("size", [13, 25, 41, 201, 1001])
    def test_reversed_view_keeps_scalar_parity(self, size):
        # a reversed view gave the float path a strided BLAS dot, one ulp away
        # from the one-point array on a third to two thirds of the points
        vals = np.random.default_rng(size).normal(size=size)
        poly = LobattoPoly(vals[::-1])
        assert poly.values.flags.c_contiguous
        assert np.array_equal(poly.values, vals[::-1])
        xs = np.random.default_rng(100 + size).uniform(size=400)
        assert [poly(x) for x in xs.tolist()] == [poly(xs[i : i + 1])[0] for i in range(400)]

    def test_outside_interval_refused(self):
        poly = LobattoPoly(np.arange(4.0))
        # NaN compares false both ways, so it slipped past a test for x < 0 or x > 1
        for x in (-0.1, 1.1, np.array([0.2, 1.0 + 1e-12]), np.nan, np.array([0.2, np.nan, 0.7])):
            with pytest.raises(PreconditionError):
                poly(x)


class TestTruncated:
    def test_at_or_above_the_degree_is_self(self):
        poly = LobattoPoly(np.random.default_rng(20).normal(size=9))
        assert poly.truncated(8) is poly and poly.truncated(20) is poly

    @pytest.mark.parametrize("d", [1, 2, 5, 11])
    def test_keeps_the_low_coefficients(self, d):
        coeffs = np.random.default_rng(d).normal(size=13)
        poly = LobattoPoly(_cheb_series(coeffs)(cheb_lobatto_nodes(13)))
        low = poly.truncated(d)
        assert low.degree == d
        assert np.max(np.abs(low.chebyshev() - coeffs[: d + 1])) < 1e-13
        want = _cheb_series(coeffs[: d + 1])(cheb_lobatto_nodes(d + 1))
        assert np.max(np.abs(low.values - want)) < 1e-13

    def test_degree_zero_is_the_constant_on_two_nodes(self):
        coeffs = np.array([0.75, -0.5, 0.25, 2.0])
        low = LobattoPoly(_cheb_series(coeffs)(cheb_lobatto_nodes(4))).truncated(0)
        assert low.degree == 1 and low.values[0] == low.values[1]
        assert low.values[0] == pytest.approx(0.75, abs=1e-15)
        assert low.chebyshev()[1] == 0.0

    def test_result_is_a_frozen_copy_with_scalar_parity(self):
        low = LobattoPoly(np.random.default_rng(21).normal(size=17)).truncated(6)
        assert low.values.flags.c_contiguous and not low.values.flags.writeable
        xs = np.random.default_rng(22).uniform(size=200)
        assert [low(x) for x in xs.tolist()] == [low(xs[i : i + 1])[0] for i in range(200)]

    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_a_power_of_two_scale_commutes_bit_for_bit(self, k):
        vals = np.random.default_rng(23).uniform(-1.0, 1.0, size=41)
        low = LobattoPoly(vals).truncated(18).values
        assert np.array_equal(LobattoPoly(np.ldexp(vals, k)).truncated(18).values,
                              np.ldexp(low, k))

    def test_overflows_nowhere_the_values_do_not(self):
        # the DCT of values near 3e307 overflows unscaled, and the form read NaN at every point
        vals = 3e307 * (0.75 + 0.25 * np.cos(np.arange(9.0)))
        with np.errstate(all="ignore"):
            assert not np.all(np.isfinite(LobattoPoly(vals).chebyshev()))
        low = LobattoPoly(vals).truncated(3)
        assert np.all(np.isfinite(low.values))
        assert np.array_equal(low.values, np.ldexp(LobattoPoly(vals / 2**1023).truncated(3).values,
                                                   1023))

    @pytest.mark.parametrize("d", [-1, 2.5, True, None])
    def test_degree_must_be_a_whole_number(self, d):
        with pytest.raises(PreconditionError, match="truncation degree"):
            LobattoPoly(np.arange(5.0)).truncated(d)


class TestTrigCoeffs:
    def test_cosine(self):
        xs = np.arange(9) / 9
        poly = trig_coeffs_from_samples(np.cos(2 * np.pi * xs))
        c, m = poly.coeffs, poly.degree
        assert c[m + 1] == pytest.approx(0.5, abs=1e-13)
        assert c[m - 1] == pytest.approx(0.5, abs=1e-13)
        assert abs(c[m]) < 1e-13

    def test_constant(self):
        poly = trig_coeffs_from_samples(np.ones(7))
        assert poly.coeffs[poly.degree] == pytest.approx(1.0, abs=1e-14)

    def test_fejer3_triangular_profile(self):
        # F_3 = sum_{|k|<=2} (3-|k|)/3 e^{2 pi i k t}; verified by quadrature
        poly = trig_coeffs_from_samples(fejer_value(3, np.arange(11) / 11))
        for k in range(-4, 5):
            expect = (3 - abs(k)) / 3 if abs(k) <= 2 else 0.0
            c_k = poly.coeffs[poly.degree + k]
            assert c_k.real == pytest.approx(expect, abs=1e-12)
            assert abs(c_k.imag) < 1e-12

    def test_even_count_rejected(self):
        with pytest.raises(PreconditionError):
            trig_coeffs_from_samples(np.ones(8))

    def test_node_round_trip(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=15)
        poly = trig_coeffs_from_samples(vals)
        scale = 1e-12 * (1 + np.max(np.abs(vals)))
        assert np.max(np.abs(poly(np.arange(15) / 15) - vals)) < scale

    @pytest.mark.parametrize("samples", [np.ones(5, dtype=complex), np.array([1.0, 2.0 + 1e-3j, 0.5]),
                                         np.array(["1", "2", "3"]), np.array([1.0, None, 2.0])],
                             ids=["complex", "complex-nonsymmetric", "str", "object"])
    def test_nonreal_samples_refused(self, samples):
        # complex samples built a TrigPoly whose calls took the real part of a
        # series that is not conjugate-symmetric
        with pytest.raises(PreconditionError, match="samples must be real"):
            trig_coeffs_from_samples(samples)

    @pytest.mark.parametrize("m", [1, 3, 5, 15, 401, 1593])
    def test_matches_the_complex_fft(self, m):
        # the real FFT's half-spectrum, mirrored, against the full complex one;
        # (m - 1)/2 is odd and even in turn
        vals = np.random.default_rng(m).normal(size=m)
        want = np.fft.fftshift(np.fft.fft(vals)) / m
        got = trig_coeffs_from_samples(vals).coeffs
        assert np.max(np.abs(got - want)) <= 1e-15 * (1 + np.max(np.abs(vals)))

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([1e-300, 1.0, 1e300]))
    def test_coefficients_are_conjugate_symmetric_bit_for_bit(self, d, seed, scale):
        vals = scale * np.random.default_rng(seed).normal(size=2 * d + 1)
        c = trig_coeffs_from_samples(vals).coeffs
        assert np.array_equal(c[::-1], np.conj(c))


class TestEffectiveDegree:
    def test_low_degree_poly(self):
        h = _cheb_series(np.array([1.0, -0.5, 0.25, 0.125]))
        assert effective_algebraic_degree(h, 3) < 1e-12

    def test_x5_exceeds_degree3(self):
        assert effective_algebraic_degree(lambda x: x**5, 3) > 1e-3

    def test_needs_two_nodes(self):
        # at claimed degree 0, 4n+1 is one node, but a Lobatto rule has both endpoints
        assert effective_algebraic_degree(lambda x: np.full_like(x, 0.5), 0) == 0.0
        assert effective_algebraic_degree(lambda x: x, 0) > 0.4

    def test_probe_memory_is_linear_in_the_probe(self):
        # no (4n+1) x (4n+1) matrix: at degree 1000 that alone was 257 MB
        h = _cheb_series(np.random.default_rng(8).normal(size=1001))
        tracemalloc.start()
        try:
            residual = effective_algebraic_degree(h, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert residual <= 1e-10

    @pytest.mark.parametrize("degree", [2.9, -1, True])
    def test_claimed_degree_must_be_a_whole_number(self, degree):
        # int() truncated 2.9, so a cubic was certified as degree 2
        for probe in (effective_algebraic_degree, effective_trig_degree):
            with pytest.raises(PreconditionError, match="claimed_degree must be an integer >= 0"):
                probe(lambda x: x**3, degree)
        assert effective_algebraic_degree(lambda x: x**3, 3.0) < 1e-12

    def test_trig_within_degree(self):
        assert effective_trig_degree(lambda x: np.cos(2 * np.pi * 2 * x), 2) < 1e-12

    def test_trig_exceeds_degree(self):
        assert effective_trig_degree(lambda x: np.cos(2 * np.pi * 4 * x), 2) >= 0.5

    def test_nonfinite_between_the_nodes_raises(self):
        # finite at every node (5 Lobatto nodes, 5 equispaced points), so the
        # residual at the fresh points came back NaN or inf
        h = lambda x: np.where((x > 0.30) & (x < 0.45), np.nan, x)
        with pytest.raises(EvaluationError, match="fresh point"):
            effective_algebraic_degree(h, 1, seed=5)
        h = lambda x: np.where((x > 0.30) & (x < 0.38), np.inf, np.cos(2 * np.pi * x))
        with pytest.raises(EvaluationError, match="fresh point"):
            effective_trig_degree(h, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_at_one_sample_point_raises(self, bad):
        # n = 1: bad at the middle one of the 5 Lobatto nodes, then at the point 2/5
        node = cheb_lobatto_nodes(5)[2]
        h = lambda x: np.where(x == node, bad, x)
        with pytest.raises(EvaluationError, match="non-finite sample during degree probe"):
            effective_algebraic_degree(h, 1)
        h = lambda x: np.where(x == 2 / 5, bad, np.cos(2 * np.pi * x))
        with pytest.raises(EvaluationError, match="non-finite sample during degree probe"):
            effective_trig_degree(h, 1)

    @pytest.mark.parametrize("probe,h", [
        (effective_trig_degree, lambda x: 3e307 * np.cos(2 * np.pi * x)),
        (effective_algebraic_degree, lambda x: 3e307 * (2 * x - 1) ** 3),
    ], ids=["trig", "algebraic"])
    def test_overflowing_truncation_raises(self, probe, h):
        # h is finite everywhere, but its truncated series overflows, and the
        # residual came back NaN; numpy warns on the overflow, so it is silenced
        with np.errstate(all="ignore"), pytest.raises(EvaluationError,
                                                      match=r"residual at x=0\.\d+$"):
            probe(h, 8)


class TestDomainTypes:
    def test_grid_validation(self):
        with pytest.raises(PreconditionError):
            Grid(np.array([]))
        with pytest.raises(PreconditionError):
            Grid(np.array([0.0, 1.5]))
        with pytest.raises(PreconditionError):
            Grid(np.array([0.5, 0.25]))
        with pytest.raises(PreconditionError):
            Grid(np.array([np.nan]))
        # points are one row of reals: a 2-D array is not increasing along each row only,
        # a 0-d array has no len(), strings are not parsed nor bools read as 0 and 1
        for points in (np.array([[0.0, 0.9], [0.1, 1.0]]), np.array(0.5), 0.5,
                       ["0", "1"], np.array([False, True])):
            with pytest.raises(PreconditionError):
                Grid(points)
        # the refusal names the grid, not real_x's x
        for points in (["0", "1"], [True, False], [0.5, None]):
            with pytest.raises(PreconditionError, match="^grid points must be real numbers"):
                Grid(points)
        assert Grid([0, 1]).points.dtype == float
        for size in (2.5, "64", np.nan, 0):  # linspace raised TypeError on 2.5 and parsed "64"
            with pytest.raises(PreconditionError):
                Grid.uniform(size)
        assert np.array_equal(Grid.uniform(5.0).points, Grid.uniform(5).points)

    def test_grid_keeps_its_own_read_only_points(self):
        # the grid held the caller's array, so a later write moved its points
        p = np.linspace(0.0, 1.0, 5)
        grid = Grid(p)
        before = error_report(CORPUS["sqrt"], "bernstein", 4, grid=grid)
        p[:] = [3.0, 2.0, 1.0, 0.0, -1.0]
        assert np.array_equal(grid.points, np.linspace(0.0, 1.0, 5))
        assert error_report(CORPUS["sqrt"], "bernstein", 4, grid=grid) == before
        assert not grid.points.flags.writeable
        with pytest.raises(ValueError):
            grid.points[0] = 0.5

    def test_periodic_targets_wrap(self):
        xs = np.linspace(0.0, 1.0, 33)
        for name in ("triangle", "cos", "const-periodic"):
            g = CORPUS[name]
            assert np.max(np.abs(g(xs) - g(xs + 1.0))) == 0.0

    def test_analytic_modulus_dominates_samples(self):
        rng = np.random.default_rng(5)
        for g in CORPUS.values():
            if g.analytic_modulus is None:
                continue
            x = rng.uniform(size=2000)
            y = np.clip(x + rng.uniform(-0.1, 0.1, size=2000), 0, 1)
            gap = np.abs(g(x) - g(y))
            bound = g.analytic_modulus(0.1)
            assert np.all(gap <= bound + 1e-12)

    def test_trigpoly_real_form_matches_complex_sum(self):
        rng = np.random.default_rng(6)
        poly = TrigPoly(rng.normal(size=13) + 1j * rng.normal(size=13))  # not symmetric
        xs = rng.uniform(-1.0, 2.0, size=300)
        assert np.max(np.abs(poly(xs) - np.real(fourier_sum(poly.coeffs, xs)))) < 1e-13
        assert isinstance(poly(0.3), float)
        assert TrigPoly(np.array([1.5 + 2j]))(np.array([0.1, 0.7])).tolist() == [1.5, 1.5]

    def test_trigpoly_conjugate_symmetry(self):
        poly = trig_coeffs_from_samples(fejer_value(4, np.arange(13) / 13))
        assert conjugate_symmetry_defect(poly.coeffs) < 1e-10
        assert imag_residue(poly.coeffs, np.linspace(0, 1, 50)) < 1e-10 * (
            1 + np.max(np.abs(poly.coeffs))
        )


class TestTrigPolyEvaluation:
    # 9800 and 9801 straddle np.power's integer-exponent cutoff: B = 99, then 100
    DEGREES = (0, 1, 2, 3, 7, 8, 15, 16, 200, 512, 1024, 9800, 9801)

    @pytest.mark.parametrize("m", DEGREES)
    def test_matches_the_defining_sum(self, m):
        rng = np.random.default_rng(m)
        c = rng.normal(size=2 * m + 1) + 1j * rng.normal(size=2 * m + 1)  # not symmetric
        xs = np.concatenate(([0.0, 0.5, 1.0 - 2.0**-53], rng.uniform(0.0, 1.0, size=200)))
        poly = TrigPoly(c)
        err = np.max(np.abs(poly(xs) - fourier_sum(c, xs).real))
        assert err <= 1e-13 * (1.0 + np.sum(np.abs(c))), err
        # a float takes the scalar path, which must give the one-point array path's bits
        xs = np.concatenate((xs, [-0.0, 5.3, -1e-300, 1e308, -2.0]))
        assert [poly(x) for x in xs.tolist()] == [poly(xs[i : i + 1])[0] for i in range(xs.size)]

    @pytest.mark.parametrize("m", DEGREES)
    def test_float_call_and_row_are_the_power_table_dot_form_bit_for_bit(self, m):
        # one power table z^0 .. z^B, the giant steps from its last entry, and
        # the giant sum as two BLAS dots, computed here on the form's own tables
        rng = np.random.default_rng(m)
        poly = TrigPoly(rng.normal(size=2 * m + 1) + 1j * rng.normal(size=2 * m + 1))
        xs = np.concatenate(([0.0, -0.0, 0.5, 1.0 - 2.0**-53, -1e-300, 5.3],
                             rng.uniform(0.0, 1.0, size=100))).tolist()
        want = []
        for x in xs:
            w = np.power(np.exp((x % 1.0) * (2j * np.pi)), poly._power_exps)
            giant = np.power(w[-1:], poly._giant_exps)
            want.append(float(np.dot(np.dot(w[:-1], poly._table), giant).real))
        want = np.array(want).view(np.int64)
        assert np.array_equal(np.array([poly(x) for x in xs]).view(np.int64), want)
        assert np.array_equal(np.array([poly(np.array([x]))[0] for x in xs]).view(np.int64), want)

    @pytest.mark.parametrize("m", DEGREES)
    def test_power_table_giant_base_is_the_separate_power(self, m):
        # z^B from the one power table is the entry np.power(z, complex(B)) gives alone
        poly = TrigPoly(np.ones(2 * m + 1, dtype=complex))
        B = len(poly._table)
        assert poly._power_exps.tolist() == list(range(B + 1))
        xs = np.concatenate(([0.0, 0.25, 0.5, 1.0 - 2.0**-53],
                             np.random.default_rng(m).uniform(0.0, 1.0, size=2000)))
        z = np.exp(xs * (2j * np.pi))
        table = np.power(z[:, None], poly._power_exps)
        assert np.array_equal(table[:, -1].copy().view(np.int64), np.power(z, complex(B)).view(np.int64))

    @pytest.mark.parametrize("m", DEGREES)
    def test_phases_depend_on_x_mod_one_only(self, m):
        rng = np.random.default_rng(m)
        poly = TrigPoly(rng.normal(size=2 * m + 1) + 1j * rng.normal(size=2 * m + 1))
        # dyadic points in [-3, 4), so x + 1000 is exact and only the phase reduction can differ
        xs = np.arange(-3 * 256, 4 * 256) / 256 + rng.integers(0, 256, size=7 * 256) / 2**16
        assert np.max(np.abs(poly(xs + 1000.0) - poly(xs))) <= 1e-13

    def test_a_later_write_to_the_input_changes_nothing(self):
        # coeffs was the caller's array while the evaluation table was a copy,
        # so a write left the calls as they were and coeffs reading all zeros
        c = np.random.default_rng(5).normal(size=7) + 0j
        poly = TrigPoly(c)
        before, kept = poly(0.1), c.copy()
        c[:] = 0.0
        assert poly(0.1) == before and np.array_equal(poly.coeffs, kept)
        assert poly.coeffs.flags.c_contiguous and not poly.coeffs.flags.writeable

    def test_shapes(self):
        rng = np.random.default_rng(3)
        poly = TrigPoly(rng.normal(size=9) + 1j * rng.normal(size=9))
        assert isinstance(poly(0.3), float)
        assert isinstance(poly(np.float64(0.3)), float)
        assert isinstance(poly(np.array(0.3)), float)
        for shape in ((0,), (5,), (3, 4), (2, 0)):
            xs = rng.uniform(size=shape)
            out = poly(xs)
            assert out.shape == shape and out.dtype == float
            assert np.max(np.abs(out - fourier_sum(poly.coeffs, xs).real), initial=0.0) <= 1e-13

    def test_grid_needs_no_points_by_degree_temporary(self):
        rng = np.random.default_rng(4)
        poly = TrigPoly(rng.normal(size=1025) + 1j * rng.normal(size=1025))
        grid = np.linspace(0.0, 1.0, 4097)
        poly(grid)
        tracemalloc.start()
        try:
            poly(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.size * 512 * 8  # one float64 array of shape (4097, 512)
