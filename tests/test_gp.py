import math

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular

from safebo import Kernel, SurrogateModel
from safebo.gp import _REFACTOR_EVERY, _top_eigenpair
from safebo.kernels import pairwise


def dense_posterior_reference(kernel, inputs, targets, queries, reg):
    """Direct dense-solve posterior, independent of the Cholesky path."""
    t = inputs.shape[0]
    shifted = pairwise(kernel, inputs) + reg * np.eye(t)
    cross = pairwise(kernel, inputs, queries)
    solved = np.linalg.solve(shifted, cross)  # (t, m)
    means = targets @ solved
    var = kernel.output_scale - np.einsum("tm,tm->m", cross, solved)
    return means, np.sqrt(np.maximum(var, 0.0))


# The grid of the models whose posterior a test never reads.
ONE_POINT = np.array([[0.5]])


def build_model(kernel, reg, inputs, targets, grid=None):
    """Model of ``inputs``, bound to ``grid`` or else to the first input alone."""
    grid = inputs[:1] if grid is None else grid
    model = SurrogateModel(kernel, reg, targets.shape[0], grid=grid)
    for point, column in zip(inputs, targets.T):
        model = model.with_observation(point, column)
    return model


class TestPosterior:
    def test_empty_model_is_prior(self, kernel):
        model = SurrogateModel(kernel, 0.01, 2, grid=np.array([[0.3], [0.9]]))
        means, std = model.posterior()
        assert means == pytest.approx(np.zeros((2, 2)))
        assert std == pytest.approx(np.ones(2))

    def test_single_observation_closed_form(self, kernel):
        # One unit observation at the queried point: k/(k + reg) and
        # sqrt(reg/(1 + reg)) from the scalar solve.
        model = SurrogateModel(kernel, 0.01, 1, grid=np.array([[0.5]]))
        means, std = model.with_observation([0.5], [1.0]).posterior()
        assert means[0, 0] == pytest.approx(0.9900990099009901, abs=1e-12)
        assert std[0] == pytest.approx(0.09950371902099892, abs=1e-12)

    def test_matches_dense_solve_on_random_instances(self, rng):
        for _ in range(40):
            dim = int(rng.integers(1, 3))
            t = int(rng.integers(1, 21))
            n = int(rng.integers(2, 51))
            k = Kernel(lengthscale=float(rng.uniform(0.05, 1.0)))
            reg = float(rng.uniform(1e-3, 1.0))
            outputs = int(rng.integers(1, 4))
            inputs = rng.uniform(0, 1, size=(t, dim))
            targets = rng.standard_normal((outputs, t))
            queries = rng.uniform(0, 1, size=(n, dim))
            model = build_model(k, reg, inputs, targets, grid=queries)
            means, std = model.posterior()
            ref_means, ref_std = dense_posterior_reference(k, inputs, targets, queries, reg)
            assert means == pytest.approx(ref_means, abs=1e-8)
            assert std == pytest.approx(ref_std, abs=1e-8)

    def test_std_nonincreasing_with_observations(self, kernel, rng):
        grid = np.linspace(0, 1, 60)[:, None]
        model = SurrogateModel(kernel, 0.01, 1, grid=grid)
        _, std = model.posterior()
        for _ in range(15):
            point = rng.uniform(0, 1, size=1)
            model = model.with_observation(point, rng.standard_normal(1))
            _, new_std = model.posterior()
            assert np.all(new_std <= std + 1e-10)
            std = new_std

    def test_cached_factor_reproduces_shifted_gram(self, kernel, rng):
        model = SurrogateModel(kernel, 0.01, 1, grid=ONE_POINT)
        for _ in range(10):
            model = model.with_observation(rng.uniform(0, 1, 1), rng.standard_normal(1))
        rebuilt = model._chol @ model._chol.T
        target = model._gram + 0.01 * np.eye(model.t)
        assert np.linalg.norm(rebuilt - target) < 1e-8

    def test_rejects_non_finite_targets(self, kernel):
        model = SurrogateModel(kernel, 0.01, 1, grid=ONE_POINT)
        with pytest.raises(ValueError, match="finite"):
            model.with_observation([0.1], [np.nan])

    def test_rejects_point_off_the_grid_dimension(self, kernel):
        model = SurrogateModel(kernel, 0.01, 1, grid=ONE_POINT)
        with pytest.raises(ValueError, match="dimension"):
            model.with_observation([0.1, 0.2], [0.0])

    def test_rejects_bad_regularization(self, kernel):
        for reg in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="regularization"):
                SurrogateModel(kernel, reg, 1, grid=ONE_POINT)

    def test_persistent_update(self, kernel):
        base = SurrogateModel(kernel, 0.01, 1, grid=np.array([[0.5]]))
        grown = base.with_observation([0.5], [1.0])
        assert base.t == 0 and grown.t == 1
        means, _ = base.posterior()
        assert means[0, 0] == 0.0


class TestXiLambdaMax:
    def test_empty_history(self, kernel):
        assert SurrogateModel(kernel, 0.01, 1, grid=ONE_POINT).xi_lambda_max() == 0.0

    def test_scalar_history(self, kernel):
        model = SurrogateModel(kernel, 0.01, 1, grid=ONE_POINT).with_observation([0.5], [0.0])
        assert model.xi_lambda_max() == pytest.approx(0.9900990099009901, abs=1e-12)

    def test_identity_gram(self, kernel):
        # Two points far enough apart that the Gram is the identity to
        # double precision: the ratio matches the scalar case.
        model = SurrogateModel(kernel, 0.01, 1, grid=ONE_POINT)
        model = model.with_observation([0.0], [0.0])
        model = model.with_observation([50.0], [0.0])
        assert model.xi_lambda_max() == pytest.approx(1.0 / 1.01, abs=1e-12)

    def test_closed_form_matches_assembled_matrix(self, rng):
        for _ in range(30):
            t = int(rng.integers(1, 21))
            k = Kernel(lengthscale=float(rng.uniform(0.05, 1.0)))
            reg = float(rng.uniform(1e-3, 1.0))
            inputs = rng.uniform(0, 1, size=(t, 1))
            model = build_model(k, reg, inputs, np.zeros((1, t)))
            assembled = model._gram @ np.linalg.inv(model._gram + reg * np.eye(t))
            reference = float(np.max(np.real(np.linalg.eigvals(assembled))))
            assert model.xi_lambda_max() == pytest.approx(reference, abs=1e-10)

    def test_nondecreasing_along_history(self, kernel, rng):
        model = SurrogateModel(kernel, 0.01, 1, grid=ONE_POINT)
        last = model.xi_lambda_max()
        for _ in range(15):
            model = model.with_observation(rng.uniform(0, 1, 1), [0.0])
            current = model.xi_lambda_max()
            assert current >= last - 1e-12
            last = current

    def test_power_iteration_agrees_with_dense(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 30))
            half = rng.standard_normal((n, n))
            psd = half @ half.T
            assert _top_eigenpair(psd)[0] == pytest.approx(
                float(np.linalg.eigvalsh(psd)[-1]), rel=1e-9
            )


class TestLogDetInformationGain:
    def test_empty_history(self, kernel):
        model = SurrogateModel(kernel, 0.01, 1, grid=ONE_POINT)
        assert model.log_det_information_gain() == 0.0

    def test_scalar(self, kernel):
        model = SurrogateModel(kernel, 0.01, 1, grid=ONE_POINT).with_observation([0.5], [0.0])
        assert model.log_det_information_gain() == pytest.approx(
            0.5 * math.log(101.0), abs=1e-10
        )

    def test_two_distant_points(self, kernel):
        model = SurrogateModel(kernel, 0.01, 1, grid=ONE_POINT)
        model = model.with_observation([0.0], [0.0])
        model = model.with_observation([50.0], [0.0])
        assert model.log_det_information_gain() == pytest.approx(
            math.log(101.0), abs=1e-8
        )

    def test_matches_direct_log_det(self, rng):
        for _ in range(20):
            t = int(rng.integers(1, 15))
            reg = float(rng.uniform(1e-3, 1.0))
            k = Kernel(lengthscale=float(rng.uniform(0.1, 1.0)))
            inputs = rng.uniform(0, 1, size=(t, 2))
            model = build_model(k, reg, inputs, np.zeros((1, t)))
            sign, logdet = np.linalg.slogdet(np.eye(t) + model._gram / reg)
            assert sign == 1.0
            assert model.log_det_information_gain() == pytest.approx(
                0.5 * logdet, abs=1e-8
            )


def test_long_history_refactorization_stays_accurate(kernel, rng):
    # Push past the periodic-refactorization boundary.
    inputs = rng.uniform(0, 1, size=(70, 1))
    targets = rng.standard_normal((1, 70))
    queries = rng.uniform(0, 1, size=(20, 1))
    model = build_model(kernel, 0.01, inputs, targets, grid=queries)
    means, std = model.posterior()
    ref_means, ref_std = dense_posterior_reference(kernel, inputs, targets, queries, 0.01)
    assert means == pytest.approx(ref_means, abs=1e-7)
    assert std == pytest.approx(ref_std, abs=1e-7)


def grid_points(dim, per_axis):
    axis = np.linspace(0.0, 1.0, per_axis)
    return np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)


def fresh_projection(model):
    """``L^{-1} K(X, grid)`` and ``L^{-1} y`` from a fresh factorization."""
    chol = cholesky(model._gram + model.regularization * np.eye(model.t), lower=True)
    proj = solve_triangular(chol, pairwise(model.kernel, model.inputs, model.grid), lower=True)
    return proj, solve_triangular(chol, model.targets.T, lower=True)


class TestGridBoundPosterior:
    CHECKPOINTS = (1, 63, 64, 65, 130)

    @pytest.mark.parametrize("dim, per_axis, outputs", [(1, 80, 1), (1, 80, 3), (2, 9, 2)])
    def test_matches_dense_reference_across_refactors(self, dim, per_axis, outputs, rng):
        kernel = Kernel(lengthscale=0.2)
        grid = grid_points(dim, per_axis)
        inputs = rng.uniform(0, 1, size=(max(self.CHECKPOINTS), dim))
        targets = rng.standard_normal((outputs, inputs.shape[0]))
        model = SurrogateModel(kernel, 0.01, outputs, grid=grid)
        for t in range(1, inputs.shape[0] + 1):
            model = model.with_observation(inputs[t - 1], targets[:, t - 1])
            if t not in self.CHECKPOINTS:
                continue
            means, std = model.posterior()
            ref_means, ref_std = dense_posterior_reference(
                kernel, inputs[:t], targets[:, :t], grid, 0.01
            )
            assert means.shape == (outputs, grid.shape[0])
            assert np.max(np.abs(means - ref_means)) <= 1e-8
            assert np.max(np.abs(std - ref_std)) <= 1e-8

    def test_carried_projection_drift_at_each_refactor(self, kernel, rng):
        grid = grid_points(1, 200)
        model = SurrogateModel(kernel, 0.01, 2, grid=grid)
        refactors = 0
        for _ in range(2 * _REFACTOR_EVERY + 2):
            parent = model
            model = model.with_observation(rng.uniform(0, 1, 1), rng.standard_normal(2))
            if model.t > 1 and model._appends == 0:
                # ``parent`` carries the longest incremental chain; the
                # refactored child must agree with it.
                refactors += 1
                proj, z = fresh_projection(parent)
                assert np.max(np.abs(parent._proj - proj)) <= 1e-10
                assert np.max(np.abs(parent._z - z)) <= 1e-10
                assert np.max(np.abs(model._proj[:-1] - parent._proj)) <= 1e-10
        assert refactors == 2

    def test_rejects_flat_grid(self, kernel):
        with pytest.raises(ValueError, match="grid"):
            SurrogateModel(kernel, 0.01, 1, grid=np.linspace(0, 1, 5))

    def test_empty_bound_model_is_prior(self, kernel):
        means, std = SurrogateModel(kernel, 0.01, 2, grid=grid_points(1, 5)).posterior()
        assert np.array_equal(means, np.zeros((2, 5)))
        assert np.array_equal(std, np.ones(5))

    @pytest.mark.parametrize("parent_t", [5, _REFACTOR_EVERY])
    def test_sibling_appends_leave_parent_and_each_other_unchanged(self, parent_t, kernel, rng):
        # A parent of 64 observations has 63 appends behind it, so both
        # children take the refactorization branch.
        grid = grid_points(1, 60)
        parent = SurrogateModel(kernel, 0.01, 2, grid=grid)
        for _ in range(parent_t):
            parent = parent.with_observation(rng.uniform(0, 1, 1), rng.standard_normal(2))
        before = parent.posterior()
        xi_before = parent.xi_lambda_max()

        first = parent.with_observation([0.25], [1.0, -1.0])
        first_post = first.posterior()
        first_xi = first.xi_lambda_max()
        second = parent.with_observation([0.75], [-2.0, 0.5])
        second_post = second.posterior()
        second.xi_lambda_max()

        for model, (means, std) in ((parent, before), (first, first_post)):
            after_means, after_std = model.posterior()
            assert np.array_equal(after_means, means) and np.array_equal(after_std, std)
        assert parent.t == parent_t and parent.xi_lambda_max() == xi_before
        assert first.xi_lambda_max() == first_xi
        assert not np.array_equal(first_post[0], second_post[0])


def grow_with_spectra(kernel, reg, points):
    """Append ``points`` one at a time, computing the spectral ratio at
    each step so every eigensolve is warm-started by its parent."""
    model = SurrogateModel(kernel, reg, 1, grid=points[:1])
    for point in points:
        model = model.with_observation(point, [0.0])
        model.xi_lambda_max()
        yield model


def assert_top_eigenvalue(model, rtol=1e-10):
    reference = float(np.linalg.eigvalsh(model._gram)[-1])
    lam, _, upper = model._eigen
    assert abs(lam - reference) <= rtol * reference
    # The certified bound really bounds the top eigenvalue.
    assert upper >= reference * (1.0 - 1e-14)


class TestWarmStartedSpectrum:
    def test_random_histories(self, rng):
        for _ in range(8):
            dim = int(rng.integers(1, 3))
            kernel = Kernel(lengthscale=float(rng.uniform(0.05, 0.5)))
            points = rng.uniform(0, 1, size=(int(rng.integers(20, 90)), dim))
            for model in grow_with_spectra(kernel, 0.01, points):
                assert_top_eigenvalue(model)

    def test_repeated_evaluations(self, kernel, rng):
        # A run stuck at its start point evaluates one location over and
        # over; the Gram is all ones and the ratio t / (t + reg).
        points = np.vstack([np.full((40, 1), 0.5), rng.uniform(0.4, 0.6, size=(40, 1))])
        for model in grow_with_spectra(kernel, 0.01, points):
            assert_top_eigenvalue(model)
        assert list(grow_with_spectra(kernel, 0.01, points[:40]))[-1].xi_lambda_max() == (
            pytest.approx(40.0 / 40.01, rel=1e-12)
        )

    def test_long_history(self, rng):
        kernel = Kernel(lengthscale=0.05)
        points = rng.uniform(0, 1, size=(300, 1))
        for model in grow_with_spectra(kernel, 0.01, points):
            if model.t % 25 == 0 or model.t > 290:
                assert_top_eigenvalue(model)
        assert model.t > 256

    @pytest.mark.parametrize("order", ["blocks", "interleaved"])
    def test_two_far_apart_clusters_of_equal_size(self, order, kernel, rng):
        # At distance 100 the Gram is block diagonal to double precision,
        # so a start vector living on one cluster is blind to the other:
        # whichever cluster leads, the solver must report it.
        size = 30
        near = rng.uniform(0.45, 0.55, size=(size, 1))
        far = 100.0 + rng.uniform(0.4, 0.6, size=(size, 1))
        if order == "blocks":
            points = np.vstack([near, far])
        else:
            points = np.stack([near, far], axis=1).reshape(-1, 1)
        for model in grow_with_spectra(kernel, 0.01, points):
            assert_top_eigenvalue(model)

    def test_lagging_cluster_overtakes(self, kernel, rng):
        # The second cluster is tighter, so it overtakes the first one
        # while growing; the warm start still points at the first.
        loose = rng.uniform(0.3, 0.7, size=(20, 1))
        tight = 100.0 + rng.uniform(0.49, 0.51, size=(20, 1))
        models = list(grow_with_spectra(kernel, 0.01, np.vstack([loose, tight])))
        for model in models:
            assert_top_eigenvalue(model)
        tight_leads = [int(np.argmax(np.abs(m._eigen[1]))) >= 20 for m in models[20:]]
        assert not tight_leads[0] and tight_leads[-1]

    def test_identical_across_reruns(self, rng):
        kernel = Kernel(lengthscale=0.1)
        points = rng.uniform(0, 1, size=(100, 2))
        first = [m.xi_lambda_max() for m in grow_with_spectra(kernel, 0.01, points)]
        second = [m.xi_lambda_max() for m in grow_with_spectra(kernel, 0.01, points)]
        assert first == second

    def test_warm_start_agrees_with_cold(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 40))
            half = rng.standard_normal((n, n))
            psd = half @ half.T
            reference = float(np.linalg.eigvalsh(psd)[-1])
            start = rng.standard_normal(n)
            lam, vec, upper = _top_eigenpair(psd, start)
            assert lam == pytest.approx(reference, rel=1e-10)
            assert np.linalg.norm(psd @ vec - lam * vec) <= 1e-6 * reference
            assert upper >= reference * (1.0 - 1e-14)
