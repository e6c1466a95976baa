import itertools
import math

import mpmath
import numpy as np
import pytest

from safebo import Domain, Kernel, pairwise
from safebo.kernels import FAMILIES, metric_matrix, paired_metric


def matern32_reference(r, lengthscale, scale):
    """Independent closed-form evaluation used to pin expected values."""
    z = math.sqrt(3.0) * r / lengthscale
    return scale * (1.0 + z) * math.exp(-z)


def evaluate(kernel, a, b):
    """``k(a, b)`` for one pair of points, through ``pairwise``."""
    return float(pairwise(kernel, a, b)[0, 0])


def kernel_metric(kernel, a, b):
    """The kernel metric of one pair of points, through ``metric_matrix``."""
    return float(metric_matrix(kernel, a, b)[0, 0])


class TestEvaluate:
    def test_zero_distance_is_output_scale(self, kernel):
        assert evaluate(kernel, [0.3], [0.3]) == 1.0
        scaled = Kernel(lengthscale=0.5, output_scale=2.5)
        assert evaluate(scaled, [0.1, 0.2], [0.1, 0.2]) == 2.5

    def test_one_lengthscale_separation(self, kernel):
        # r = lengthscale = 0.1; frozen from the closed form.
        expected = matern32_reference(0.1, 0.1, 1.0)
        assert expected == pytest.approx(0.4833577245965077, abs=1e-15)
        assert evaluate(kernel, [0.0], [0.1]) == pytest.approx(expected, abs=1e-15)

    def test_long_range_decay(self, kernel):
        assert evaluate(kernel, [0.0], [100 * kernel.lengthscale]) < 1e-30

    def test_symmetry(self, kernel, rng):
        for _ in range(25):
            a, b = rng.uniform(-1, 1, size=(2, 3))
            assert evaluate(kernel, a, b) == evaluate(kernel, b, a)

    def test_translation_invariance(self, rng):
        for family in ("matern32", "squared_exponential"):
            k = Kernel(family=family, lengthscale=0.3)
            for _ in range(25):
                a, b, shift = rng.uniform(-1, 1, size=(3, 4))
                assert evaluate(k, a, b) == pytest.approx(
                    evaluate(k, a + shift, b + shift), abs=1e-12
                )

    def test_dimension_mismatch(self, kernel):
        with pytest.raises(ValueError, match="dimension mismatch"):
            evaluate(kernel, [0.0], [0.0, 1.0])

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            Kernel(lengthscale=0.0)
        with pytest.raises(ValueError):
            Kernel(lengthscale=-1.0)
        with pytest.raises(ValueError):
            Kernel(output_scale=0.0)
        with pytest.raises(ValueError):
            Kernel(family="brownian")

    def test_infinite_output_scale_is_rejected(self):
        # An infinite k(a, a) turns the GP posterior into NaN after one append.
        with pytest.raises(ValueError, match="output_scale must be positive and finite"):
            Kernel(output_scale=math.inf)

    def test_infinite_lengthscale_is_rejected(self):
        # An infinite lengthscale makes k constant, so every metric is 0.
        with pytest.raises(ValueError, match="lengthscale must be positive and finite"):
            Kernel(lengthscale=math.inf)

    def test_bool_lengthscale_is_rejected(self):
        # True compares as 1, which the range check alone would accept.
        with pytest.raises(ValueError, match="lengthscale must be a number"):
            Kernel(lengthscale=True)


class TestKernelMetric:
    def test_identity(self, kernel):
        assert kernel_metric(kernel, [0.42], [0.42]) == 0.0

    def test_value_at_one_lengthscale(self, kernel):
        # sqrt(2 * (1 - 0.48335772...)), frozen from the metric formula
        # applied to the kernel value above.
        assert kernel_metric(kernel, [0.0], [0.1]) == pytest.approx(
            1.0165060505510946, abs=1e-15
        )

    def test_symmetry(self, kernel, rng):
        for _ in range(25):
            a, b = rng.uniform(-1, 1, size=(2, 2))
            assert kernel_metric(kernel, a, b) == kernel_metric(kernel, b, a)

    def test_bounded_by_sqrt_two_for_unit_scale(self, kernel, rng):
        points = rng.uniform(-5, 5, size=(40, 2))
        dists = metric_matrix(kernel, points)
        assert dists.max() <= math.sqrt(2.0) + 1e-12


class TestPairedMetric:
    def test_bits_equal_metric_matrix(self, rng):
        for trial in range(60):
            dim = int(rng.integers(1, 5))
            kernel = Kernel(
                FAMILIES[trial % 2],
                lengthscale=float(rng.uniform(0.01, 2.0)),
                output_scale=float(10 ** rng.uniform(-2, 2)),
            )
            x = rng.uniform(-1, 1, size=(int(rng.integers(1, 30)), dim))
            y = rng.uniform(-1, 1, size=(int(rng.integers(1, 30)), dim))
            dense = metric_matrix(kernel, x, y)
            rows = rng.integers(len(x), size=200)
            cols = rng.integers(len(y), size=200)
            assert np.array_equal(paired_metric(kernel, x[rows], y[cols]), dense[rows, cols])

    def test_grid_neighbours_equal_metric_matrix(self):
        domain = Domain.grid([(0.0, 1.0), (-2.0, 3.0)], [31, 17])
        for family in FAMILIES:
            kernel = Kernel(family, lengthscale=0.2, output_scale=3.0)
            dense = metric_matrix(kernel, domain.points)
            rows, cols = np.nonzero(dense < dense.max())
            paired = paired_metric(kernel, domain.points[rows], domain.points[cols])
            assert np.array_equal(paired, dense[rows, cols])


def metric_at_high_precision(kernel, distance):
    r = mpmath.mpf(distance) / kernel.lengthscale
    if kernel.family == "matern32":
        u = mpmath.sqrt(3) * r
        value = (1 + u) * mpmath.exp(-u)
    else:
        value = mpmath.exp(-r * r / 2)
    return mpmath.sqrt(2 * kernel.output_scale * (1 - value))


def matern_radius_at_high_precision(kernel, metric):
    """The exact inverse of the Matérn-3/2 profile at ``metric``, to 50 digits.

    ``u = sqrt(3) r / lengthscale`` solves ``(1 + u) exp(-u) = 1 - x``, so
    ``-(1 + u)`` is the lower branch of Lambert W at ``(x - 1) / e``.
    """
    with mpmath.workdps(50):
        x = mpmath.mpf(metric) ** 2 / (2 * kernel.output_scale)
        u = -1 - mpmath.lambertw((x - 1) / mpmath.e, -1).real
        return kernel.lengthscale / mpmath.sqrt(3) * u


class TestRadius:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_bounds_the_inverse_from_above(self, family):
        # From near zero, where the Matérn bound's margin is smallest, past
        # its loosest point, x = fraction**2 near 0.996, to just under the
        # supremum.  The squared exponential's closed form is exact up to
        # roundoff, which may leave its metric an ulp short; the box widens
        # for that.
        kernel = Kernel(family, lengthscale=0.3, output_scale=2.5)
        top = math.sqrt(2.0 * kernel.output_scale)
        fractions = [0.3, 0.7, 0.99, math.sqrt(0.9959), 1 - 1e-12]
        for fraction in np.concatenate([10.0 ** np.arange(-15, 0), fractions]):
            metric = fraction * top
            radius = float(kernel.radius(np.array([metric]))[0])
            with mpmath.workdps(50):
                recovered = metric_at_high_precision(kernel, radius)
                if family == "matern32":
                    assert recovered >= mpmath.mpf(metric)
                    assert radius <= 1.16 * matern_radius_at_high_precision(kernel, metric)
                else:
                    assert float(recovered) == pytest.approx(metric, rel=1e-9)

    def test_infinite_from_the_supremum_on(self):
        for family in FAMILIES:
            kernel = Kernel(family, lengthscale=0.3, output_scale=2.5)
            top = math.sqrt(2.0 * kernel.output_scale)
            radii = kernel.radius(np.array([0.0, top, 2.0 * top]))
            assert radii[0] == 0.0
            assert np.isinf(radii[1:]).all()


class TestGram:
    """The Gram matrix of a point list is ``pairwise(kernel, points)``."""

    def test_single_point(self, kernel):
        assert pairwise(kernel, [[0.2]]) == pytest.approx(np.ones((1, 1)))

    def test_duplicate_points(self, kernel):
        g = pairwise(kernel, [[0.2], [0.2]])
        assert g == pytest.approx(np.ones((2, 2)))

    def test_off_diagonal_from_evaluate(self, kernel):
        g = pairwise(kernel, [[0.0], [0.1]])
        assert g[0, 1] == pytest.approx(0.4833577245965077, abs=1e-15)
        assert g[1, 0] == g[0, 1]

    def test_psd_on_random_fixtures(self, rng):
        # 100 random point sets; jittered Gram must factorize.
        for trial in range(100):
            dim = int(rng.integers(1, 4))
            n = int(rng.integers(2, 12))
            lengthscale = float(rng.uniform(0.05, 2.0))
            family = "matern32" if trial % 2 == 0 else "squared_exponential"
            k = Kernel(family=family, lengthscale=lengthscale)
            points = rng.uniform(-1, 1, size=(n, dim))
            g = pairwise(k, points) + 1e-10 * k.output_scale * np.eye(n)
            np.linalg.cholesky(g)


def test_domain_grid_shape_and_bounds():
    d = Domain.grid([(0.0, 1.0), (-1.0, 1.0)], [3, 5])
    assert d.n_points == 15
    assert d.dim == 2
    assert d.points[:, 0].min() == 0.0 and d.points[:, 0].max() == 1.0
    assert d.points[:, 1].min() == -1.0 and d.points[:, 1].max() == 1.0


@pytest.mark.parametrize(
    "axes",
    [
        (),
        (np.array([]),),
        (np.array([[0.0, 1.0]]),),
        (np.array([0.0, 0.5, 0.5]),),
        (np.linspace(0.0, 1.0, 3), np.array([1.0, 0.0])),
        (np.array([0.0, np.nan]),),
    ],
    ids=["no-axes", "empty-axis", "2-d-axis", "repeated", "decreasing", "nan"],
)
def test_domain_rejects_axes_that_are_not_strictly_increasing(axes):
    with pytest.raises(ValueError, match="strictly increasing"):
        Domain(axes)


def test_domain_points_list_the_product_of_its_axes(rng):
    for sizes in ([4], [3, 5], [2, 1, 4]):
        axes = tuple(np.sort(rng.uniform(-1.0, 1.0, size=size)) for size in sizes)
        domain = Domain(axes)
        assert domain.points.tolist() == [list(p) for p in itertools.product(*axes)]
        assert domain.n_points == len(domain.points)
        assert domain.dim == len(sizes)
        assert domain.bounds == tuple((axis[0], axis[-1]) for axis in axes)


def test_domain_grid_bounds_are_bit_exact(rng):
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        lows = rng.uniform(-10.0, 10.0, size=dim)
        bounds = tuple((float(lo), float(lo + rng.exponential())) for lo in lows)
        resolution = [int(r) for r in rng.integers(2, 200, size=dim)]
        assert Domain.grid(bounds, resolution).bounds == bounds


@pytest.mark.parametrize(
    "bounds, resolution, reason",
    [
        ([(1.0, 0.0)], 5, "low < high"),
        ([(0.0, 0.0)], 5, "low < high"),
        ([(0.0, 1.0)], [5, 5], "one resolution per dimension"),
        ([(0.0, 1.0)], 1, "at least 2"),
        ([(0.0, 1.0)], [2.7], "resolution must be integers"),
        ([(0.0, 1.0)], 5.0, "resolution must be integers"),
        ([(0.0, 1.0)], True, "resolution must be integers"),
        ([(0.0, 1.0)] * 2, [3, np.bool_(True)], "resolution must be integers"),
    ],
)
def test_domain_grid_rejects_a_box_it_cannot_span(bounds, resolution, reason):
    with pytest.raises(ValueError, match=reason):
        Domain.grid(bounds, resolution)


def test_domain_grid_takes_numpy_integer_resolutions():
    # A numpy integer works like a Python int, alone or as an entry.
    assert Domain.grid([(0.0, 1.0)] * 2, np.int64(5)).n_points == 25
    assert Domain.grid([(0.0, 1.0)] * 2, np.array([3, 4])).n_points == 12
