import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular

from safebo import ExperimentConfig, Kernel, SurrogateModel
from safebo.gp import _GROWTH
from safebo.harness import run_experiment, run_single
from safebo.kernels import pairwise


def gram_of(model):
    """The model's Gram matrix, assembled from its evaluated points."""
    return pairwise(model.kernel, model.inputs, model.inputs)


def projection_of(model):
    """The model's carried projection ``P``, its blocks stacked into a fresh array."""
    blocks = model._proj_blocks.blocks
    return np.concatenate(blocks)[: model.t] if blocks else np.zeros((0, model.grid.shape[0]))


def observation_rows(model):
    """A copy of the model's per-observation rows: grid index, values, ``z``, pivot."""
    return np.copy(model._obs)


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


def build_model(kernel, reg, inputs, targets, queries=None):
    """Model of ``inputs``, bound to the grid of ``inputs`` followed by
    ``queries``: its posterior on ``queries`` is the one from row ``t`` on."""
    grid = inputs if queries is None else np.vstack([inputs, queries])
    model = SurrogateModel(kernel, reg, targets.shape[0], grid=grid)
    for index, column in enumerate(targets.T):
        model = model.with_observation(index, column)
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
        means, std = model.with_observation(0, [1.0]).posterior()
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
            model = build_model(k, reg, inputs, targets, queries=queries)
            means, std = model.posterior()
            ref_means, ref_std = dense_posterior_reference(k, inputs, targets, queries, reg)
            assert means[:, t:] == pytest.approx(ref_means, abs=1e-8)
            assert std[t:] == pytest.approx(ref_std, abs=1e-8)

    def test_std_nonincreasing_with_observations(self, kernel, rng):
        grid = np.linspace(0, 1, 60)[:, None]
        model = SurrogateModel(kernel, 0.01, 1, grid=grid)
        _, std = model.posterior()
        for _ in range(15):
            model = model.with_observation(int(rng.integers(60)), rng.standard_normal(1))
            _, new_std = model.posterior()
            assert np.all(new_std <= std + 1e-10)
            std = new_std

    def test_cached_factor_reproduces_shifted_gram(self, kernel, rng):
        # The carried columns W = L^-1 K(X, x_j) at the observed points
        # satisfy W^T W = K (K + reg I)^-1 K.
        model = build_model(kernel, 0.01, rng.uniform(0, 1, (10, 1)), rng.standard_normal((1, 10)))
        gram, carried = gram_of(model), projection_of(model)[:, model.indices]
        shifted = gram + 0.01 * np.eye(model.t)
        assert np.linalg.norm(carried.T @ carried - gram @ np.linalg.solve(shifted, gram)) < 1e-8
        sign, log_det = np.linalg.slogdet(np.eye(model.t) + gram / 0.01)
        assert sign == 1.0
        assert model.log_det_information_gain() == pytest.approx(0.5 * log_det, rel=1e-10)

    def test_rejects_non_finite_targets(self, kernel):
        model = SurrogateModel(kernel, 0.01, 1, grid=ONE_POINT)
        with pytest.raises(ValueError, match="finite"):
            model.with_observation(0, [np.nan])

    @pytest.mark.parametrize(
        "bad", [-1, 3, True, np.bool_(False), 1.5, np.float64(1.0), "1"],
        ids=["negative", "n", "bool", "numpy-bool", "float", "integral-float", "str"],
    )
    def test_rejects_bad_index(self, kernel, bad):
        # numpy would wrap a negative index round to the grid's end, and
        # read a bool as 0 or 1, instead of failing.
        model = SurrogateModel(kernel, 0.01, 1, grid=grid_points(1, 3))
        with pytest.raises(ValueError, match="grid index"):
            model.with_observation(bad, [1.0])
        assert model.with_observation(np.int64(2), [1.0]).indices.tolist() == [2]

    def test_posterior_is_read_only(self, kernel):
        # The carried posterior is shared with the model's children.
        model = SurrogateModel(kernel, 0.01, 2, grid=np.array([[0.2], [0.7]]))
        for current in (model, model.with_observation(1, [1.0, 0.0])):
            means, std = current.posterior()
            with pytest.raises(ValueError, match="read-only"):
                means[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                std[0] = 1.0

    def test_rejects_bad_regularization(self, kernel):
        for reg in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="regularization"):
                SurrogateModel(kernel, reg, 1, grid=ONE_POINT)

    @pytest.mark.parametrize("n_outputs", [2.5, 2.0, True])
    def test_rejects_an_output_count_that_is_not_an_integer(self, kernel, n_outputs):
        # int() would build 2 outputs from 2.5, and True would build 1.
        with pytest.raises(ValueError, match="n_outputs must be an integer"):
            SurrogateModel(kernel, 0.01, n_outputs, grid=ONE_POINT)

    def test_persistent_update(self, kernel):
        base = SurrogateModel(kernel, 0.01, 1, grid=np.array([[0.5]]))
        grown = base.with_observation(0, [1.0])
        assert base.t == 0 and grown.t == 1
        means, _ = base.posterior()
        assert means[0, 0] == 0.0


class TestXiLambdaMax:
    def test_empty_history(self, kernel):
        assert SurrogateModel(kernel, 0.01, 1, grid=ONE_POINT).xi_lambda_max() == 0.0

    def test_scalar_history(self, kernel):
        model = SurrogateModel(kernel, 0.01, 1, grid=ONE_POINT).with_observation(0, [0.0])
        assert model.xi_lambda_max() == pytest.approx(0.9900990099009901, abs=1e-12)

    def test_identity_gram(self, kernel):
        # Two points far enough apart that the Gram is the identity to
        # double precision: the ratio matches the scalar case.
        model = SurrogateModel(kernel, 0.01, 1, grid=np.array([[0.0], [50.0]]))
        model = model.with_observation(0, [0.0]).with_observation(1, [0.0])
        assert model.xi_lambda_max() == pytest.approx(1.0 / 1.01, abs=1e-12)

    def test_closed_form_matches_assembled_matrix(self, rng):
        for _ in range(30):
            t = int(rng.integers(1, 21))
            k = Kernel(lengthscale=float(rng.uniform(0.05, 1.0)))
            reg = float(rng.uniform(1e-3, 1.0))
            inputs = rng.uniform(0, 1, size=(t, 1))
            model = build_model(k, reg, inputs, np.zeros((1, t)))
            assembled = gram_of(model) @ np.linalg.inv(gram_of(model) + reg * np.eye(t))
            reference = float(np.max(np.real(np.linalg.eigvals(assembled))))
            assert model.xi_lambda_max() == pytest.approx(reference, abs=1e-10)

    def test_nondecreasing_along_history(self, kernel, rng):
        model = SurrogateModel(kernel, 0.01, 1, grid=rng.uniform(0, 1, (15, 1)))
        last = model.xi_lambda_max()
        for index in range(15):
            model = model.with_observation(index, [0.0])
            current = model.xi_lambda_max()
            assert current >= last - 1e-12
            last = current


def assert_bound_brackets_exact_ratio(model):
    """The Frobenius ratio is at least the exact one, by no more than the
    factor ``1 + reg / k(a, a)`` that ``lam >= k(a, a)`` allows."""
    exact, bound = model.xi_lambda_max(), model.xi_frobenius()
    # On a rank-one Gram (one point evaluated over and over) the two are
    # equal but for the eigensolver's roundoff.
    assert exact <= bound * (1.0 + 1e-12)
    assert math.sqrt(bound / exact) <= math.sqrt(
        1.0 + model.regularization / model.kernel.output_scale
    )


class TestFrobeniusBound:
    def test_carried_norm_matches_assembled_gram(self, kernel, rng):
        models = []
        for _ in range(30):
            t = int(rng.integers(1, 40))
            k = Kernel(lengthscale=float(rng.uniform(0.05, 1.0)))
            inputs = rng.uniform(0, 1, size=(t, int(rng.integers(1, 3))))
            models.append(build_model(k, float(rng.uniform(1e-3, 1.0)), inputs, np.zeros((1, t))))
        # A long chain that repeats one point every other append.
        models.append(ill_conditioned_chain(kernel, rng, 300))
        for model in models:
            reference = float(np.sum(gram_of(model) ** 2))
            assert abs(model._gram_fro_sq - reference) <= 1e-12 * reference

    def test_bound_brackets_exact_ratio(self, kernel, rng):
        for _ in range(30):
            t = int(rng.integers(1, 40))
            k = Kernel(lengthscale=float(rng.uniform(0.05, 1.0)))
            inputs = rng.uniform(0, 1, size=(t, int(rng.integers(1, 3))))
            assert_bound_brackets_exact_ratio(
                build_model(k, float(rng.uniform(1e-3, 1.0)), inputs, np.zeros((1, t)))
            )
        model = SurrogateModel(kernel, 1e-3, 2, grid=grid_points(1, 200))
        for step in range(300):
            index = 100 if step % 2 else int(rng.integers(200))
            model = model.with_observation(index, rng.standard_normal(2))
            if model.t % 20 == 0:
                assert_bound_brackets_exact_ratio(model)

    def test_empty_and_scalar_history(self, kernel):
        model = SurrogateModel(kernel, 0.01, 1, grid=ONE_POINT)
        assert model.xi_frobenius() == 0.0
        # One point: the Gram is k(a, a) = 1 and both ratios are 1 / 1.01.
        assert model.with_observation(0, [0.0]).xi_frobenius() == pytest.approx(
            1.0 / 1.01, rel=1e-15
        )

    def test_scenario_betas_never_decrease(self):
        # The loop keeps no running maximum: the carried bound and the
        # noise sums alone keep the multipliers non-decreasing.
        config = ExperimentConfig.from_preset(
            "synthetic-2d", {"seeds": [2], "beta_modes": ["scenario"], "max_iterations": 120}
        )
        (trace,) = run_experiment(config).traces
        betas = np.array([record.betas for record in trace.records])
        assert betas.shape == (120, 2)
        assert np.all(np.diff(betas, axis=0) >= 0.0)
        assert np.all(np.diff(betas, axis=0)[-100:] > 0.0)


class TestLogDetInformationGain:
    def test_empty_history(self, kernel):
        model = SurrogateModel(kernel, 0.01, 1, grid=ONE_POINT)
        assert model.log_det_information_gain() == 0.0

    def test_scalar(self, kernel):
        model = SurrogateModel(kernel, 0.01, 1, grid=ONE_POINT).with_observation(0, [0.0])
        assert model.log_det_information_gain() == pytest.approx(
            0.5 * math.log(101.0), abs=1e-10
        )

    def test_two_distant_points(self, kernel):
        model = SurrogateModel(kernel, 0.01, 1, grid=np.array([[0.0], [50.0]]))
        model = model.with_observation(0, [0.0]).with_observation(1, [0.0])
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
            sign, logdet = np.linalg.slogdet(np.eye(t) + gram_of(model) / reg)
            assert sign == 1.0
            assert model.log_det_information_gain() == pytest.approx(
                0.5 * logdet, abs=1e-8
            )


def grid_points(dim, per_axis):
    axis = np.linspace(0.0, 1.0, per_axis)
    return np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)


def fresh_projection(model):
    """``L^{-1} K(X, grid)`` and ``L^{-1} y`` from a fresh factorization."""
    chol = cholesky(gram_of(model) + model.regularization * np.eye(model.t), lower=True)
    proj = solve_triangular(chol, pairwise(model.kernel, model.inputs, model.grid), lower=True)
    return proj, solve_triangular(chol, model.targets.T, lower=True)


def ill_conditioned_chain(kernel, rng, appends):
    """Two-output model on a 200-point grid at reg 1e-3 in which every
    other append repeats one point, so the Gram is far from diagonal and
    badly conditioned."""
    model = SurrogateModel(kernel, 1e-3, 2, grid=grid_points(1, 200))
    for step in range(appends):
        index = 100 if step % 2 else int(rng.integers(200))
        model = model.with_observation(index, rng.standard_normal(2))
    return model


class TestGridBoundPosterior:
    # 63-65 straddle the first buffer growth; 300 is a long bordered chain.
    CHECKPOINTS = (1, 63, 64, 65, 130, 300)

    @pytest.mark.parametrize("dim, per_axis, outputs", [(1, 80, 1), (1, 80, 3), (2, 9, 2)])
    def test_matches_dense_reference_across_refactors(self, dim, per_axis, outputs, rng):
        # The model's grid is the lattice followed by the random inputs;
        # the posterior is compared on the lattice.
        kernel = Kernel(lengthscale=0.2)
        grid = grid_points(dim, per_axis)
        n = grid.shape[0]
        inputs = rng.uniform(0, 1, size=(max(self.CHECKPOINTS), dim))
        targets = rng.standard_normal((outputs, inputs.shape[0]))
        model = SurrogateModel(kernel, 0.01, outputs, grid=np.vstack([grid, inputs]))
        for t in range(1, inputs.shape[0] + 1):
            model = model.with_observation(n + t - 1, targets[:, t - 1])
            if t not in self.CHECKPOINTS:
                continue
            means, std = model.posterior()
            ref_means, ref_std = dense_posterior_reference(
                kernel, inputs[:t], targets[:, :t], grid, 0.01
            )
            assert means.shape == (outputs, n + inputs.shape[0])
            assert np.max(np.abs(means[:, :n] - ref_means)) <= 1e-8
            assert np.max(np.abs(std[:n] - ref_std)) <= 1e-8

    def test_carried_projection_matches_fresh_factorization_on_a_long_chain(self, kernel, rng):
        model = ill_conditioned_chain(kernel, rng, 400)
        proj, z = fresh_projection(model)
        assert np.max(np.abs(projection_of(model) - proj)) <= 1e-10
        # z = L^{-1} y reaches about 1 / sqrt(reg) in size, so its error
        # is measured relative to it: both paths sit near 2e-12.
        carried_z = observation_rows(model)[:, model._z_cols]
        assert np.max(np.abs(carried_z - z)) <= 1e-11 * np.max(np.abs(z))

    def test_carried_posterior_matches_dense_reference_on_a_long_chain(self, kernel, rng):
        # The means and variance are sums carried over 420 appends, one
        # term per append, instead of products over the whole projection.
        # Against the dense solve, the carried sums and the products they
        # replace are both off by 1.8e-11 in the means and 1.5e-13 in the
        # std, about a fifth of the tolerances below.
        model = ill_conditioned_chain(kernel, rng, 420)
        means, std = model.posterior()
        ref_means, ref_std = dense_posterior_reference(
            kernel, model.inputs, model.targets, model.grid, model.regularization
        )
        assert np.max(np.abs(means - ref_means)) <= 1e-10
        assert np.max(np.abs(std - ref_std)) <= 1e-12

    def test_carried_buffers_stay_close_to_the_live_state(self, kernel, rng):
        # The projection is held in fixed blocks of _GROWTH rows, 200
        # columns wide.
        model = SurrogateModel(kernel, 0.01, 2, grid=rng.uniform(0, 1, (200, 1)))
        chain = [model]
        for index in range(200):
            model = model.with_observation(index, rng.standard_normal(2))
            chain.append(model)
            blocks = model._proj_blocks.blocks
            assert len(blocks) == math.ceil(model.t / _GROWTH)
            assert all(block.shape == (_GROWTH, 200) for block in blocks)
        # The chain's models, t = 0 to 200, share the projection's
        # blocks: no block is ever copied, so 200 rows take
        # ceil(200 / _GROWTH) of them.
        blocks = {id(block) for m in chain for block in m._proj_blocks.blocks}
        assert len(blocks) == math.ceil(200 / _GROWTH)
        # Every model still reads its own history from the shared blocks.
        proj = projection_of(model)
        for m in chain:
            assert m.inputs.shape == (m.t, 1) and m.targets.shape == (2, m.t)
            assert np.array_equal(m.inputs, model.inputs[: m.t])
            assert np.array_equal(m.targets, model.targets[:, : m.t])
            assert np.array_equal(projection_of(m), proj[: m.t])

    def test_peak_memory_is_the_live_projection_plus_one_block(self, kernel, rng):
        # numpy's allocations, which tracemalloc counts, over a chain of 150
        # appends on a 3000-point grid: the live projection is
        # ceil(150 / 64) = 3 blocks, and the peak stays within one block
        # more (5.86 MiB).  A projection grown by copying into a buffer 64
        # rows larger keeps old and new alive together and peaks near 8 MiB.
        n, appends = 3000, 150
        grid = grid_points(1, n)
        indices = rng.integers(n, size=appends).tolist()
        values = rng.standard_normal((appends, 2))
        tracemalloc.start()
        try:
            model = SurrogateModel(kernel, 0.01, 2, grid=grid)
            for index, value in zip(indices, values):
                model = model.with_observation(index, value)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.t == appends
        assert peak <= (math.ceil(appends / _GROWTH) + 1) * _GROWTH * n * 8

    def test_one_kernel_row_per_append(self, kernel, rng, monkeypatch):
        # The Gram border is read off one kernel row, and the forward
        # solve off the carried projection: one kernel evaluation each.
        # A new point's row spans the grid; a revisited point's only the
        # t observed points, since its grid row is carried in P.
        calls = []

        def counted(*args, **kwargs):
            calls.append((args[1].shape[0], args[2].shape[0]))
            return pairwise(*args, **kwargs)

        monkeypatch.setattr("safebo.gp.pairwise", counted)
        model = SurrogateModel(kernel, 0.01, 2, grid=grid_points(1, 30))
        expected = []
        for t in range(40):
            index = int(rng.integers(30))
            expected.append((1, t if index in model.indices else 30))
            model = model.with_observation(index, rng.standard_normal(2))
            assert calls == expected
        assert 0 < sum(cols == 30 for _, cols in calls) < 40
        # Reading the posterior, the loop's spectral ratio and the gain
        # evaluates none; the exact ratio assembles the Gram of the 40.
        model.posterior()
        model.xi_frobenius()
        model.log_det_information_gain()
        assert len(calls) == 40
        model.xi_lambda_max()
        assert calls[40:] == [(40, 40)]

    def test_a_paper_run_evaluates_one_grid_row_per_distinct_point(self, monkeypatch):
        # paper-synthetic-2 seed 0 in scenario mode repeats its start
        # point: its 200 appends evaluate one grid-length row per
        # distinct point, and short rows for the revisits.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2].shape[0])
            return pairwise(*args, **kwargs)

        monkeypatch.setattr("safebo.gp.pairwise", counted)
        config = ExperimentConfig.from_preset(
            "paper-synthetic-2", {"seeds": [0], "beta_modes": ["scenario"]}
        )
        trace = run_single(config, 0, "scenario")
        n = config.build_domain().n_points
        distinct = {rec.point for rec in trace.records}
        assert len(calls) == trace.iterations == 200
        assert calls.count(n) == len(distinct) < 200
        # The append at t observations reads a revisit's border off t points.
        assert all(cols == t for t, cols in enumerate(calls) if cols != n)

    def test_rejects_flat_grid(self, kernel):
        with pytest.raises(ValueError, match="grid"):
            SurrogateModel(kernel, 0.01, 1, grid=np.linspace(0, 1, 5))

    def test_empty_bound_model_is_prior(self, kernel):
        means, std = SurrogateModel(kernel, 0.01, 2, grid=grid_points(1, 5)).posterior()
        assert np.array_equal(means, np.zeros((2, 5)))
        assert np.array_equal(std, np.ones(5))

    @pytest.mark.parametrize("parent_t", [5, _GROWTH, _GROWTH + 5])
    def test_sibling_appends_leave_parent_and_each_other_unchanged(self, parent_t, kernel, rng):
        # A parent of 5 or 69 observations has room in the last block of
        # the projection: the first child writes in place and the second
        # copies only that partial block.  A parent of 64 fills its
        # blocks, so each child starts blocks of its own.  Full blocks are
        # shared by all three.  The per-observation rows are one
        # read-only array per model, which no append writes.
        grid = grid_points(1, 60)
        parent = SurrogateModel(kernel, 0.01, 2, grid=grid)
        for _ in range(parent_t):
            parent = parent.with_observation(int(rng.integers(60)), rng.standard_normal(2))
        # posterior() hands out the carried arrays themselves, so compare
        # against copies.
        before = tuple(np.copy(part) for part in parent.posterior())
        var, gram = np.copy(parent._var), np.copy(gram_of(parent))
        inputs, targets = np.copy(parent.inputs), np.copy(parent.targets)
        proj, rows = projection_of(parent), observation_rows(parent)
        obs = parent._obs
        xi_before = parent.xi_lambda_max()

        first = parent.with_observation(15, [1.0, -1.0])
        first_post = tuple(np.copy(part) for part in first.posterior())
        first_proj, first_rows = projection_of(first), observation_rows(first)
        first_xi = first.xi_lambda_max()
        second = parent.with_observation(45, [-2.0, 0.5])
        second_post = second.posterior()
        second.xi_lambda_max()

        full, filled = divmod(parent_t, _GROWTH)
        shared = parent._proj_blocks.blocks
        for child in (first, second):
            blocks = child._proj_blocks.blocks
            assert len(blocks) == full + 1
            assert all(mine is theirs for mine, theirs in zip(blocks[:full], shared))
        last_first, last_second = (c._proj_blocks.blocks[full] for c in (first, second))
        assert last_first is not last_second
        if filled:
            assert last_first is shared[full] and last_second is not shared[full]
        assert parent._obs is obs and np.array_equal(obs, rows)
        for model in (parent, first, second):
            assert model._obs.shape == (model.t, 6) and not model._obs.flags.writeable

        for model, (means, std) in ((parent, before), (first, first_post)):
            after_means, after_std = model.posterior()
            assert np.array_equal(after_means, means) and np.array_equal(after_std, std)
        assert np.array_equal(projection_of(parent), proj)
        assert np.array_equal(projection_of(first), first_proj)
        assert np.array_equal(projection_of(second)[:parent_t], proj)
        assert np.array_equal(observation_rows(parent), rows)
        assert np.array_equal(observation_rows(first), first_rows)
        assert np.array_equal(observation_rows(second)[:parent_t], rows)
        assert not np.array_equal(first_proj[parent_t], projection_of(second)[parent_t])
        assert np.array_equal(parent._var, var) and np.array_equal(gram_of(parent), gram)
        assert np.array_equal(parent.inputs, inputs) and np.array_equal(parent.targets, targets)
        for model, index, values in ((first, 15, [1.0, -1.0]), (second, 45, [-2.0, 0.5])):
            assert np.array_equal(model.inputs, np.vstack((inputs, grid[index])))
            assert np.array_equal(model.targets, np.hstack((targets, np.c_[values])))
        assert parent.t == parent_t and parent.xi_lambda_max() == xi_before
        assert first.xi_lambda_max() == first_xi
        assert not np.array_equal(first_post[0], second_post[0])


def chain_revisiting(kernel, rng, last_seen, t):
    """Two-output model of ``t`` appends on a 300-point grid: distinct
    points other than 0, except that row ``last_seen`` evaluates point 0."""
    model = SurrogateModel(kernel, 0.01, 2, grid=grid_points(1, 300))
    order = rng.permutation(np.arange(1, 300))[:t]
    order[last_seen] = 0
    for index in order:
        model = model.with_observation(int(index), rng.standard_normal(2))
    return model


def carried_state(model):
    """Copies of everything a model reads: posterior, projection, rows, norm."""
    means, std = model.posterior()
    arrays = [np.copy(means), np.copy(std), projection_of(model), observation_rows(model)]
    return arrays, model._gram_fro_sq


def assert_unchanged(model, state):
    arrays, fro_sq = carried_state(model)
    assert all(np.array_equal(now, then) for now, then in zip(arrays, state[0]))
    assert fro_sq == state[1]


def assert_matches_fresh_factorization(model):
    proj, z = fresh_projection(model)
    assert np.max(np.abs(projection_of(model) - proj)) <= 1e-10
    carried_z = observation_rows(model)[:, model._z_cols]
    assert np.max(np.abs(carried_z - z)) <= 1e-11 * np.max(np.abs(z))
    means, std = model.posterior()
    ref_means, ref_std = dense_posterior_reference(
        model.kernel, model.inputs, model.targets, model.grid, model.regularization
    )
    assert np.max(np.abs(means - ref_means)) <= 1e-10
    assert np.max(np.abs(std - ref_std)) <= 1e-12


class TestRevisitAppend:
    # A revisit of the point last seen at row s starts from pivot_s * P_s
    # and subtracts rows s .. t-1 of P only.  (s, t): a gap of 1, a gap
    # within one block, s two blocks before t, and s and t on either side
    # of the first block boundary.
    @pytest.mark.parametrize(
        "last_seen, t", [(9, 10), (10, 40), (10, 2 * _GROWTH + 20), (_GROWTH - 4, _GROWTH + 4)]
    )
    def test_sibling_revisits_match_a_fresh_factorization(self, last_seen, t, kernel, rng,
                                                         monkeypatch):
        parent = chain_revisiting(kernel, rng, last_seen, t)
        before = carried_state(parent)
        columns = []

        def counted(*args, **kwargs):
            columns.append(args[2].shape[0])
            return pairwise(*args, **kwargs)

        monkeypatch.setattr("safebo.gp.pairwise", counted)
        # The first sibling writes row t in place of the parent's free
        # row; the second copies the partial block, or starts its own.
        first = parent.with_observation(0, [1.0, -1.0])
        first_state = carried_state(first)
        second = parent.with_observation(0, [-2.0, 0.5])
        # Each border is read off the t observed points, not the grid.
        assert columns == [t, t]
        for model in (first, second):
            assert model.t == t + 1 and model.indices[-1] == 0
            assert_matches_fresh_factorization(model)
        assert_unchanged(parent, before)
        assert_unchanged(first, first_state)
        # Both siblings carry the same row t: it does not depend on the values.
        assert np.array_equal(projection_of(first), projection_of(second))

    def test_gram_norm_keeps_the_bits_of_a_grid_row(self, kernel, rng):
        # The border at the observed points is read off k(x_j, X), which
        # has the bits of the grid row at those points, so the carried
        # norm, the Frobenius ratio and the scenario multiplier do too.
        parent = chain_revisiting(kernel, rng, 7, 30)
        border = pairwise(kernel, parent.grid[0, None], parent.grid)[0][parent.indices]
        norm = parent._gram_fro_sq + 2.0 * float(border @ border) + 1.0
        assert parent.with_observation(0, [0.0, 0.0])._gram_fro_sq == norm


def grown_models(kernel, reg, points):
    """Append ``points`` one at a time, yielding each model."""
    model = SurrogateModel(kernel, reg, 1, grid=points)
    for index in range(len(points)):
        model = model.with_observation(index, [0.0])
        yield model


def assert_spectral_ratios(model, parent_bound=0.0, rtol=1e-10):
    """The exact ratio matches the assembled ``K (K + reg I)^{-1}``, the
    Frobenius ratio brackets it, and the bound is no less than the parent's."""
    gram = gram_of(model)
    assembled = gram @ np.linalg.inv(gram + model.regularization * np.eye(model.t))
    reference = float(np.max(np.real(np.linalg.eigvals(assembled))))
    assert abs(model.xi_lambda_max() - reference) <= rtol * reference
    assert_bound_brackets_exact_ratio(model)
    assert model.xi_frobenius() >= parent_bound
    return model.xi_frobenius()


class TestSpectralRatiosAlongGrownHistories:
    """Spectral ratios along histories grown one append at a time, where
    each model's Frobenius bound is its parent's, extended by the border."""

    def test_random_histories(self, rng):
        for _ in range(8):
            dim = int(rng.integers(1, 3))
            kernel = Kernel(lengthscale=float(rng.uniform(0.05, 0.5)))
            points = rng.uniform(0, 1, size=(int(rng.integers(20, 90)), dim))
            bound = 0.0
            for model in grown_models(kernel, 0.01, points):
                bound = assert_spectral_ratios(model, bound)

    def test_repeated_evaluations(self, kernel, rng):
        # A run stuck at its start point evaluates one location over and
        # over; the Gram is all ones, rank one, so both ratios are
        # t / (t + reg).
        points = np.vstack([np.full((40, 1), 0.5), rng.uniform(0.4, 0.6, size=(40, 1))])
        bound = 0.0
        for model in grown_models(kernel, 0.01, points):
            bound = assert_spectral_ratios(model, bound)
        *_, stuck = grown_models(kernel, 0.01, points[:40])
        assert stuck.xi_lambda_max() == pytest.approx(40.0 / 40.01, rel=1e-12)
        assert stuck.xi_frobenius() == pytest.approx(40.0 / 40.01, rel=1e-15)

    def test_long_history(self, rng):
        kernel = Kernel(lengthscale=0.05)
        points = rng.uniform(0, 1, size=(300, 1))
        bound = 0.0
        for model in grown_models(kernel, 0.01, points):
            assert model.xi_frobenius() >= bound
            bound = model.xi_frobenius()
            if model.t % 25 == 0 or model.t > 290:
                assert_spectral_ratios(model)
        assert model.t > 256

    @pytest.mark.parametrize("order", ["blocks", "interleaved"])
    def test_two_far_apart_clusters_of_equal_size(self, order, kernel, rng):
        # At distance 100 the Gram is block diagonal to double precision:
        # the exact ratio is the larger cluster's, and the bound counts
        # both clusters.
        size = 30
        near = rng.uniform(0.45, 0.55, size=(size, 1))
        far = 100.0 + rng.uniform(0.4, 0.6, size=(size, 1))
        if order == "blocks":
            points = np.vstack([near, far])
        else:
            points = np.stack([near, far], axis=1).reshape(-1, 1)
        bound = 0.0
        for model in grown_models(kernel, 0.01, points):
            bound = assert_spectral_ratios(model, bound)

    def test_lagging_cluster_overtakes(self, kernel, rng):
        # The second cluster is tighter, so its block overtakes the first
        # one's while growing, and the exact ratio follows it.
        loose = rng.uniform(0.3, 0.7, size=(20, 1))
        tight = 100.0 + rng.uniform(0.49, 0.51, size=(20, 1))
        bound = 0.0
        for model in grown_models(kernel, 0.01, np.vstack([loose, tight])):
            bound = assert_spectral_ratios(model, bound)
        *_, loose_only = grown_models(kernel, 0.01, loose)
        *_, tight_only = grown_models(kernel, 0.01, tight)
        assert tight_only.xi_lambda_max() > loose_only.xi_lambda_max()
        assert model.xi_lambda_max() == pytest.approx(tight_only.xi_lambda_max(), rel=1e-12)

    def test_paper_run_never_reaches_the_dense_eigensolver(self, monkeypatch):
        # Along a 130-step run the multipliers read the carried Frobenius
        # bound: no eigensolver runs at all.
        calls = []

        def counted(solver):
            def call(*args, **kwargs):
                calls.append(args[0].shape)
                return solver(*args, **kwargs)

            return call

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        config = ExperimentConfig.from_preset(
            "paper-synthetic-1", {"seeds": [2], "beta_modes": ["scenario"], "max_iterations": 130}
        )
        (trace,) = run_experiment(config).traces
        assert len(trace.records) == 130
        assert calls == []

    def test_identical_across_reruns(self, rng):
        kernel = Kernel(lengthscale=0.1)
        points = rng.uniform(0, 1, size=(100, 2))
        runs = [
            [(m.xi_lambda_max(), m.xi_frobenius()) for m in grown_models(kernel, 0.01, points)]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
