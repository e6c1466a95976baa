import math
import tracemalloc

import numpy as np
import pytest

from safebo import Domain, Kernel
from safebo.kernels import gram, paired_metric, pairwise
from safebo.synthetic import (
    _CHUNK,
    RkhsFunction,
    ShiftedFunction,
    nearest_rank_quantile,
    sample_rkhs_function,
    shift_to_quantile,
)


def eval_bruteforce(f, points):
    """Double-loop kernel expansion, the reference for __call__."""
    out = np.zeros(len(points))
    for idx, a in enumerate(points):
        total = 0.0
        for center, coef in zip(f.centers, f.coefficients):
            total += coef * float(pairwise(f.kernel, a, center)[0, 0])
        out[idx] = total
    return out


class TestSampleRkhsFunction:
    def test_unit_norm_by_construction(self, kernel, line_domain, rng):
        f = sample_rkhs_function(kernel, line_domain, 15, rng)
        assert f.rkhs_norm == pytest.approx(1.0, abs=1e-10)
        quad = float(f.coefficients @ gram(kernel, f.centers) @ f.coefficients)
        assert quad == pytest.approx(1.0, abs=1e-10)

    def test_norm_two_ways_agree(self, kernel, line_domain, rng):
        # Quadratic form against the Cholesky whitening route.
        f = sample_rkhs_function(kernel, line_domain, 25, rng)
        center_gram = gram(kernel, f.centers) + 1e-10 * np.eye(25)
        chol = np.linalg.cholesky(center_gram)
        whitened = chol.T @ f.coefficients
        assert float(whitened @ whitened) == pytest.approx(
            float(f.coefficients @ center_gram @ f.coefficients), abs=1e-8
        )

    def test_single_center_value_is_one(self, kernel, line_domain, rng):
        # Coefficient 1/sqrt(k(x, x)) makes f(x) = sqrt(k(x, x)) = 1 at
        # the center for a unit-scale kernel.
        f = sample_rkhs_function(kernel, line_domain, 1, rng)
        assert f(f.centers)[0] == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_given_seed(self, kernel, line_domain):
        a = sample_rkhs_function(kernel, line_domain, 10, np.random.default_rng(3))
        b = sample_rkhs_function(kernel, line_domain, 10, np.random.default_rng(3))
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a(line_domain.points), b(line_domain.points))

    def test_rejects_a_lone_point(self, kernel, line_domain, rng):
        # Points are the rows of an (m, d) array; a 1-D array is not read
        # as one point.
        f = sample_rkhs_function(kernel, line_domain, 5, rng)
        with pytest.raises(ValueError, match=r"\(m, d\)"):
            f(np.array([0.5]))
        with pytest.raises(ValueError, match=r"\(m, d\)"):
            shift_to_quantile(f, line_domain, 0.4)[0](np.array([0.5]))

    def test_rejects_zero_centers(self, kernel, line_domain, rng):
        with pytest.raises(ValueError):
            sample_rkhs_function(kernel, line_domain, 0, rng)

    def test_evaluation_matches_bruteforce(self, kernel, line_domain, rng):
        f = sample_rkhs_function(kernel, line_domain, 12, rng)
        values = f(line_domain.points)
        assert values == pytest.approx(eval_bruteforce(f, line_domain.points), abs=1e-12)

    def test_continuity_bound_from_unit_norm(self, kernel, line_domain, rng):
        # |f(a) - f(b)| <= metric(a, b) for unit norm, random pairs.
        f = sample_rkhs_function(kernel, line_domain, 30, rng)
        pairs = rng.uniform(0, 1, size=(10_000, 2))
        left = f(pairs[:, :1])
        right = f(pairs[:, 1:])
        gaps = np.abs(left - right)
        dists = paired_metric(kernel, pairs[:, :1], pairs[:, 1:])
        assert np.all(gaps <= dists + 1e-9)

    def test_serialization_round_trip(self, kernel, line_domain, rng):
        f = sample_rkhs_function(kernel, line_domain, 8, rng)
        clone = RkhsFunction.from_config(f.to_config())
        assert np.array_equal(clone(line_domain.points), f(line_domain.points))


class TestChunkedEvaluation:
    def test_chunk_is_a_multiple_of_four(self):
        # The BLAS matrix-vector kernel sums the rows it takes in groups
        # of four in another order than the rows left over; a chunk
        # boundary inside a group would change a value's last bits.
        assert _CHUNK % 4 == 0

    @pytest.mark.parametrize("n", [2 * _CHUNK + 3, _CHUNK - 5, 1])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_equals_the_one_shot_product_bit_for_bit(self, n, dim, rng):
        domain = Domain.grid([(0.0, 1.0)] * dim, math.ceil(n ** (1 / dim)) + 1)
        f = sample_rkhs_function(Kernel(lengthscale=0.2), domain, 20, rng)
        points = domain.points[rng.permutation(domain.n_points)[:n]]
        expected = pairwise(f.kernel, points, f.centers) @ f.coefficients
        assert np.array_equal(f(points), expected)
        # A single point is a product of its own, summed like the rows
        # left over from the groups of four.
        single = pairwise(f.kernel, points[:1], f.centers) @ f.coefficients
        assert np.array_equal(f(points[:1]), single)

    def test_peak_memory_stays_at_one_chunk(self, rng):
        # numpy's allocations, which tracemalloc counts, on a 300 x 300
        # grid with 40 centers: one kernel matrix over all 90000 points
        # takes 27.5 MiB per temporary and peaks near 192 MiB.
        domain = Domain.grid([(0.0, 1.0)] * 2, 300)
        f = sample_rkhs_function(Kernel(lengthscale=0.1), domain, 40, rng)
        points = domain.points
        tracemalloc.start()
        try:
            values = f(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape == (domain.n_points,)
        assert peak <= 16 * 2**20


class TestNearestRankQuantile:
    def test_table_case(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert nearest_rank_quantile(values, 0.4) == 3.0

    def test_counting_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 40))
            q = float(rng.uniform(0.05, 0.95))
            values = rng.standard_normal(n)
            threshold = nearest_rank_quantile(values, q)
            assert np.sum(values >= threshold) == math.ceil((1 - q) * n)

    def test_rejects_degenerate_levels(self):
        with pytest.raises(ValueError):
            nearest_rank_quantile(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            nearest_rank_quantile(np.array([1.0]), 1.0)


class TestShiftToQuantile:
    def test_safe_share_of_grid(self, kernel, line_domain, rng):
        f = sample_rkhs_function(kernel, line_domain, 20, rng)
        g, values = shift_to_quantile(f, line_domain, 0.4)
        assert np.array_equal(values, g(line_domain.points))
        assert np.sum(values >= 0) == math.ceil(0.6 * line_domain.n_points)
        # The quantile point itself reads exactly zero.
        assert (values == 0.0).any()

    def test_tiny_level_keeps_everything_safe(self, kernel, line_domain, rng):
        f = sample_rkhs_function(kernel, line_domain, 20, rng)
        g, _ = shift_to_quantile(f, line_domain, 1e-9)
        assert np.all(g(line_domain.points) >= 0)

    def test_argmax_preserved(self, kernel, line_domain, rng):
        f = sample_rkhs_function(kernel, line_domain, 20, rng)
        g, _ = shift_to_quantile(f, line_domain, 0.4)
        assert np.argmax(f(line_domain.points)) == np.argmax(g(line_domain.points))

    def test_serialization_round_trip(self, kernel, line_domain, rng):
        f = sample_rkhs_function(kernel, line_domain, 6, rng)
        g, _ = shift_to_quantile(f, line_domain, 0.3)
        clone = ShiftedFunction.from_config(g.to_config())
        assert np.array_equal(clone(line_domain.points), g(line_domain.points))
