import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular

from safebo import ExperimentConfig, Kernel, SurrogateModel
from safebo.gp import _GROWTH
from safebo.harness import run_experiment, run_single
from safebo.kernels import FAMILIES, pairwise


def projection_of(model):
    """The model's carried projection ``P``, one row per run: the committed
    rows stacked from its blocks into a fresh array, then the last run's,
    ``rho / pivot`` as its commit will write it."""
    r, blocks = model._rows.shape[0], model._proj_blocks.blocks
    committed = np.concatenate(blocks)[:r] if blocks else np.zeros((0, model.grid.shape[0]))
    if model._last is None:
        return committed
    return np.vstack([committed, model._border[0] / model._last[-1]])


def run_rows(model):
    """A copy of the model's rows per run: grid index, count, mean targets, ``z``, pivot."""
    return np.copy(model._run_rows())


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
        inputs = rng.uniform(0, 1, (10, 1))
        model = build_model(kernel, 0.01, inputs, rng.standard_normal((1, 10)))
        gram, carried = pairwise(kernel, inputs, inputs), projection_of(model)[:, :10]
        shifted = gram + 0.01 * np.eye(model.t)
        assert np.linalg.norm(carried.T @ carried - gram @ np.linalg.solve(shifted, gram)) < 1e-8
        sign, log_det = np.linalg.slogdet(np.eye(model.t) + gram / 0.01)
        assert sign == 1.0
        assert model.log_det_information_gain() == pytest.approx(0.5 * log_det, rel=1e-10)

    def test_rejects_non_finite_targets(self, kernel):
        model = SurrogateModel(kernel, 0.01, 1, grid=ONE_POINT)
        with pytest.raises(ValueError, match="finite"):
            model.with_observation(0, [np.nan])

    @pytest.mark.parametrize("values", [[1.0, np.nan], [np.nan, 1.0]], ids=["last", "first"])
    def test_rejects_one_nan_among_two_targets(self, kernel, values):
        model = SurrogateModel(kernel, 0.01, 2, grid=ONE_POINT)
        with pytest.raises(ValueError, match="targets must be finite, one per output"):
            model.with_observation(0, values)

    def test_rejects_a_bool_regularization(self, kernel):
        # True compares as 1.0, which the range check would let through.
        with pytest.raises(ValueError, match="regularization must be a number, got True"):
            SurrogateModel(kernel, True, 1, grid=ONE_POINT)

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
            gram = pairwise(k, inputs, inputs)
            assembled = gram @ np.linalg.inv(gram + reg * np.eye(t))
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
    """The trace ratio is at least the exact one, by no more than the
    factor ``1 + reg / k(a, a)`` that ``lam >= k(a, a)`` allows."""
    exact, bound = model.xi_lambda_max(), model.xi_trace()
    # On a rank-one Gram (one point evaluated over and over) the two are
    # equal but for the eigensolver's roundoff.
    assert exact <= bound * (1.0 + 1e-12)
    assert math.sqrt(bound / exact) <= math.sqrt(
        1.0 + model.regularization / model.kernel.output_scale
    )


class TestTraceBound:
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

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("scale", [0.37, 1.0, 2.5])
    def test_bound_holds_on_chains_with_revisits(self, family, scale, rng):
        # Random chains on a small grid, so that most appends revisit a
        # point, some the one appended just before.  While one point has
        # been seen the Gram is rank one and the two ratios are equal but
        # for the eigensolver's roundoff, which the bracket allows.
        for _ in range(6):
            kernel = Kernel(
                family=family, lengthscale=float(rng.uniform(0.05, 0.5)), output_scale=scale
            )
            reg = float(rng.uniform(1e-3, 1.0))
            model = SurrogateModel(kernel, reg, 1, grid=rng.uniform(0, 1, (12, 2)))
            for step in range(int(rng.integers(2, 60))):
                repeat = model.t and step % 3 == 2
                index = model.indices[-1] if repeat else int(rng.integers(12))
                model = model.with_observation(index, rng.standard_normal(1))
                if len(set(model.indices.tolist())) > 1:
                    assert model.xi_trace() >= model.xi_lambda_max()
                assert_bound_brackets_exact_ratio(model)
            assert len(set(model.indices.tolist())) < model.t

    @pytest.mark.parametrize("scale, reg", [(1.0, 0.01), (0.37, 1e-3), (2.5, 0.7)])
    def test_never_decreases_to_the_last_bit(self, scale, reg, rng):
        # Every rounding in 1 / (1 + reg / (t k(a, a))) is monotone in t.
        kernel = Kernel(lengthscale=0.3, output_scale=scale)
        model = SurrogateModel(kernel, reg, 1, grid=grid_points(1, 4))
        bound = model.xi_trace()
        for _ in range(2000):
            model = model.with_observation(int(rng.integers(4)), [0.0])
            assert model.xi_trace() >= bound
            bound = model.xi_trace()
        assert model.t == 2000 and bound < 1.0

    def test_empty_and_scalar_history(self, kernel):
        model = SurrogateModel(kernel, 0.01, 1, grid=ONE_POINT)
        assert model.xi_trace() == 0.0
        # One point: the Gram is k(a, a) = 1 and both ratios are 1 / 1.01.
        assert model.with_observation(0, [0.0]).xi_trace() == pytest.approx(
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
            sign, logdet = np.linalg.slogdet(np.eye(t) + pairwise(k, inputs, inputs) / reg)
            assert sign == 1.0
            assert model.log_det_information_gain() == pytest.approx(
                0.5 * logdet, abs=1e-8
            )


def grid_points(dim, per_axis):
    axis = np.linspace(0.0, 1.0, per_axis)
    return np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)


def fresh_projection(model):
    """``L^{-1} K(X, grid)`` and ``L^{-1} ybar`` from a fresh factorization
    of the runs' system ``K + reg C^{-1}``, one row per run of repeats."""
    rows, k = run_rows(model), model.n_outputs
    inputs = model.grid[rows[:, 0].astype(np.intp)]
    shifted = pairwise(model.kernel, inputs, inputs) + np.diag(model.regularization / rows[:, 1])
    chol = cholesky(shifted, lower=True)
    proj = solve_triangular(chol, pairwise(model.kernel, inputs, model.grid), lower=True)
    return proj, solve_triangular(chol, rows[:, 2 : k + 2], lower=True)


def ill_conditioned_chain(kernel, rng, appends):
    """Two-output model on a 200-point grid at reg 1e-3 in which every
    other append repeats one point, so the Gram is far from diagonal and
    badly conditioned; with the history it appended, ``(indices, targets)``."""
    model = SurrogateModel(kernel, 1e-3, 2, grid=grid_points(1, 200))
    indices, targets = [], []
    for step in range(appends):
        indices.append(100 if step % 2 else int(rng.integers(200)))
        targets.append(rng.standard_normal(2))
        model = model.with_observation(indices[-1], targets[-1])
    return model, (indices, np.array(targets).T)


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
        model, _ = ill_conditioned_chain(kernel, rng, 400)
        proj, z = fresh_projection(model)
        assert np.max(np.abs(projection_of(model) - proj)) <= 1e-10
        # z = L^{-1} y reaches about 1 / sqrt(reg) in size, so its error
        # is measured relative to it: both paths sit near 2e-12.
        carried_z = run_rows(model)[:, model._z_cols]
        assert np.max(np.abs(carried_z - z)) <= 1e-11 * np.max(np.abs(z))

    def test_carried_posterior_matches_dense_reference_on_a_long_chain(self, kernel, rng):
        # The means and variance are sums carried over 420 appends, one
        # term per append, instead of products over the whole projection.
        # Against the dense solve, the carried sums and the products they
        # replace are both off by 1.8e-11 in the means and 1.5e-13 in the
        # std, about a fifth of the tolerances below.
        model, (indices, targets) = ill_conditioned_chain(kernel, rng, 420)
        means, std = model.posterior()
        ref_means, ref_std = dense_posterior_reference(
            kernel, model.grid[indices], targets, model.grid, model.regularization
        )
        assert np.max(np.abs(means - ref_means)) <= 1e-10
        assert np.max(np.abs(std - ref_std)) <= 1e-12

    def test_carried_buffers_stay_close_to_the_live_state(self, kernel, rng):
        # The projection is held in fixed blocks of _GROWTH rows, 200
        # columns wide, all rows but the last run's, which is held apart.
        model = SurrogateModel(kernel, 0.01, 2, grid=rng.uniform(0, 1, (200, 1)))
        chain = [model]
        for index in range(200):
            model = model.with_observation(index, rng.standard_normal(2))
            chain.append(model)
            blocks = model._proj_blocks.blocks
            assert len(blocks) == math.ceil((model.t - 1) / _GROWTH)
            assert all(block.shape == (_GROWTH, 200) for block in blocks)
        # The chain's models, t = 0 to 200, share the projection's
        # blocks: no block is ever copied, so 199 committed rows take
        # ceil(199 / _GROWTH) of them.
        blocks = {id(block) for m in chain for block in m._proj_blocks.blocks}
        assert len(blocks) == math.ceil(199 / _GROWTH)
        # Every model still reads its own history from the shared blocks.
        proj = projection_of(model)
        for m in chain:
            assert m.indices.tolist() == list(range(m.t)) and m.inputs.shape == (m.t, 1)
            assert np.array_equal(m.inputs, model.inputs[: m.t])
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
        # The forward solve is read off the carried projection.  A new
        # point evaluates one kernel row over the grid.  A revisit starts
        # from the row of its last evaluation and evaluates nothing,
        # whether it repeats the point appended just before or not.
        calls = []

        def counted(*args, **kwargs):
            calls.append((args[1].shape[0], args[2].shape[0]))
            return pairwise(*args, **kwargs)

        monkeypatch.setattr("safebo.gp.pairwise", counted)
        model = SurrogateModel(kernel, 0.01, 2, grid=grid_points(1, 30))
        expected, later_revisits = [], 0
        for t in range(40):
            # Every fourth append repeats the last point.
            index = model.indices[-1] if t % 4 == 3 else int(rng.integers(30))
            seen = (model.indices == index).nonzero()[0]
            if not seen.size:
                expected.append((1, 30))
            later_revisits += bool(seen.size) and seen[-1] < t - 1
            model = model.with_observation(index, rng.standard_normal(2))
            assert calls == expected
        assert later_revisits > 0 and len(calls) == len(set(model.indices.tolist())) < 40 - 10
        # Reading the posterior, the loop's spectral ratio and the gain
        # evaluates none; the exact ratio assembles the Gram of the runs.
        model.posterior()
        model.xi_trace()
        model.log_det_information_gain()
        assert calls == expected
        model.xi_lambda_max()
        runs = len(run_rows(model))
        assert calls[len(expected) :] == [(runs, runs)] and runs < 40

    def test_a_paper_run_evaluates_one_grid_row_per_distinct_point(self, monkeypatch):
        # paper-synthetic-2 seed 0 in scenario mode repeats its start
        # point: its 200 appends evaluate one grid-length row per
        # distinct point and nothing else, since no revisit evaluates the
        # kernel.
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
        assert trace.iterations == 200
        assert calls == [n] * len(distinct) and len(distinct) < 200

    def test_rejects_flat_grid(self, kernel):
        with pytest.raises(ValueError, match="grid"):
            SurrogateModel(kernel, 0.01, 1, grid=np.linspace(0, 1, 5))

    def test_empty_bound_model_is_prior(self, kernel):
        means, std = SurrogateModel(kernel, 0.01, 2, grid=grid_points(1, 5)).posterior()
        assert np.array_equal(means, np.zeros((2, 5)))
        assert np.array_equal(std, np.ones(5))

    @pytest.mark.parametrize("committed", [5, _GROWTH, _GROWTH + 5])
    def test_sibling_appends_leave_parent_and_each_other_unchanged(self, committed, kernel, rng):
        # The parent has committed rows 0 .. committed-1 and holds its last
        # run's row apart; a child that starts a run commits that row.  A
        # parent of 5 or 69 committed rows has room in the last block of
        # the projection: the first child writes in place and the second
        # copies only that partial block.  A parent of 64 fills its
        # blocks, so each child starts blocks of its own.  Full blocks are
        # shared by all three.  The rows per run are one read-only array
        # per model, which no append writes.
        grid = grid_points(1, 60)
        parent = SurrogateModel(kernel, 0.01, 2, grid=grid)
        index = 0
        for _ in range(committed + 1):
            # No immediate repeat, and a last point neither child appends.
            index = (index + int(rng.integers(1, 14))) % 60
            parent = parent.with_observation(index, rng.standard_normal(2))
        assert parent._rows.shape[0] == committed and parent.indices[-1] not in (15, 45)
        # posterior() hands out the carried arrays themselves, so compare
        # against copies.
        before = tuple(np.copy(part) for part in parent.posterior())
        var, inputs = np.copy(parent._var), np.copy(parent.inputs)
        proj, rows = projection_of(parent), run_rows(parent)
        committed_rows = parent._rows
        xi_before = parent.xi_lambda_max()

        first = parent.with_observation(15, [1.0, -1.0])
        first_post = tuple(np.copy(part) for part in first.posterior())
        first_proj, first_rows = projection_of(first), run_rows(first)
        first_xi = first.xi_lambda_max()
        second = parent.with_observation(45, [-2.0, 0.5])
        second_post = second.posterior()
        second.xi_lambda_max()

        full, filled = divmod(committed, _GROWTH)
        shared = parent._proj_blocks.blocks
        for child in (first, second):
            blocks = child._proj_blocks.blocks
            assert len(blocks) == full + 1
            assert all(mine is theirs for mine, theirs in zip(blocks[:full], shared))
        last_first, last_second = (c._proj_blocks.blocks[full] for c in (first, second))
        assert last_first is not last_second
        if filled:
            assert last_first is shared[full] and last_second is not shared[full]
        assert parent._rows is committed_rows and np.array_equal(committed_rows, rows[:-1])
        for model in (parent, first, second):
            assert model._rows.shape == (model.t - 1, 7) and not model._rows.flags.writeable

        for model, (means, std) in ((parent, before), (first, first_post)):
            after_means, after_std = model.posterior()
            assert np.array_equal(after_means, means) and np.array_equal(after_std, std)
        assert np.array_equal(projection_of(parent), proj)
        assert np.array_equal(projection_of(first), first_proj)
        assert np.array_equal(projection_of(second)[: committed + 1], proj)
        assert np.array_equal(run_rows(parent), rows)
        assert np.array_equal(run_rows(first), first_rows)
        assert np.array_equal(run_rows(second)[: committed + 1], rows)
        assert not np.array_equal(first_proj[-1], projection_of(second)[-1])
        assert np.array_equal(parent._var, var) and np.array_equal(parent.inputs, inputs)
        for model, index in ((first, 15), (second, 45)):
            assert np.array_equal(model.inputs, np.vstack((inputs, grid[index])))
        assert parent.t == committed + 1 and parent.xi_lambda_max() == xi_before
        assert first.xi_lambda_max() == first_xi
        assert not np.array_equal(first_post[0], second_post[0])


def chain_revisiting(kernel, rng, last_seen, t):
    """Two-output model of ``t`` appends on a 300-point grid: distinct
    points other than 0, except that row ``last_seen`` evaluates point 0;
    with the history it appended, ``(indices, targets)``."""
    model = SurrogateModel(kernel, 0.01, 2, grid=grid_points(1, 300))
    order = rng.permutation(np.arange(1, 300))[:t]
    order[last_seen] = 0
    targets = []
    for index in order:
        targets.append(rng.standard_normal(2))
        model = model.with_observation(int(index), targets[-1])
    return model, (order.tolist(), np.array(targets).T)


def extended(history, index, values):
    """``(indices, targets)`` of a history with one more observation."""
    indices, targets = history
    return indices + [index], np.hstack((targets, np.c_[values]))


def carried_state(model):
    """Copies of everything a model reads: posterior, projection, rows."""
    means, std = model.posterior()
    return [np.copy(means), np.copy(std), projection_of(model), run_rows(model)]


def assert_unchanged(model, state):
    assert all(np.array_equal(now, then) for now, then in zip(carried_state(model), state))


def assert_matches_fresh_factorization(model, history):
    """The carried state against a fresh factorization of the runs, and
    the posterior against a dense solve of ``history``, the
    ``(indices, targets)`` the test appended."""
    proj, z = fresh_projection(model)
    assert np.max(np.abs(projection_of(model) - proj)) <= 1e-10
    carried_z = run_rows(model)[:, model._z_cols]
    assert np.max(np.abs(carried_z - z)) <= 1e-11 * np.max(np.abs(z))
    means, std = model.posterior()
    indices, targets = history
    ref_means, ref_std = dense_posterior_reference(
        model.kernel, model.grid[indices], targets, model.grid, model.regularization
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
        parent, history = chain_revisiting(kernel, rng, last_seen, t)
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
        # Neither revisit evaluates the kernel, however far back row s is.
        assert columns == []
        for model, values in ((first, [1.0, -1.0]), (second, [-2.0, 0.5])):
            assert model.t == t + 1 and model.indices[-1] == 0
            assert_matches_fresh_factorization(model, extended(history, 0, values))
        assert_unchanged(parent, before)
        assert_unchanged(first, first_state)
        # Both siblings carry the same row t: it does not depend on the values.
        assert np.array_equal(projection_of(first), projection_of(second))

    # t: the merged row is committed at row t - 1: inside a block, as the
    # first row of a new block, and just past the first block boundary.
    @pytest.mark.parametrize("t", [10, _GROWTH + 1, _GROWTH + 5])
    def test_immediate_repeat_after_a_sibling_matches_a_fresh_chain_bit_for_bit(
        self, t, kernel, rng
    ):
        # The sibling commits the parent's last row to row t - 1 of the
        # parent's last block.  The repeat rewrites that row apart from the
        # blocks, and its next append commits it, copying that partial
        # block first; a chain that never branched writes in place.  Both
        # must hold the same bits.
        grid = grid_points(1, 60)
        indices = (np.cumsum(rng.integers(1, 60, size=t)) % 60).tolist()
        values = rng.standard_normal((t + 2, 2))
        parent = SurrogateModel(kernel, 0.01, 2, grid=grid)
        for index, value in zip(indices, values):
            parent = parent.with_observation(index, value)
        assert parent._rows.shape[0] == t - 1
        sibling = parent.with_observation((indices[-1] + 1) % 60, [0.5, -0.5])
        repeat = parent.with_observation(indices[-1], values[t])
        after = repeat.with_observation((indices[-1] + 2) % 60, values[t + 1])
        fresh = SurrogateModel(kernel, 0.01, 2, grid=grid)
        for index, value in zip(indices + [indices[-1], (indices[-1] + 2) % 60], values):
            fresh = fresh.with_observation(index, value)

        # The repeat shares the parent's blocks and rows: it adds no row.
        assert repeat._proj_blocks is parent._proj_blocks and repeat._rows is parent._rows
        if (t - 1) % _GROWTH:
            assert after._proj_blocks.blocks[-1] is not sibling._proj_blocks.blocks[-1]
        assert np.array_equal(projection_of(after), projection_of(fresh))
        assert np.array_equal(run_rows(after), run_rows(fresh))
        for mine, theirs in zip(after.posterior(), fresh.posterior()):
            assert np.array_equal(mine, theirs)
        assert run_rows(after)[-2, 1] == 2.0 and after.t == t + 2
        history = indices + [indices[-1], (indices[-1] + 2) % 60], values.T
        assert_matches_fresh_factorization(repeat, (history[0][:-1], history[1][:, :-1]))
        assert_matches_fresh_factorization(after, history)

    @pytest.mark.parametrize(
        "family, scale",
        [(family, scale) for family in FAMILIES for scale in (1e-3, 0.37, 1.0, 2.5, 1e4)],
    )
    def test_pairwise_diagonal_is_the_output_scale(self, family, scale, rng):
        # The trace bound reads tr K as t * output_scale, where the Gram
        # matrix pairwise(x, x) has its diagonal: the two must be the
        # same bits.
        for lengthscale in (0.05, 0.3, 2.0):
            kernel = Kernel(family=family, lengthscale=lengthscale, output_scale=scale)
            points = rng.uniform(-1.0, 1.0, (7, 2))
            assert np.all(np.diag(pairwise(kernel, points, points)) == scale)


def grown_models(kernel, reg, points):
    """Append ``points`` one at a time, yielding each model."""
    model = SurrogateModel(kernel, reg, 1, grid=points)
    for index in range(len(points)):
        model = model.with_observation(index, [0.0])
        yield model


def assert_spectral_ratios(model, parent_bound=0.0, rtol=1e-10):
    """The exact ratio matches the assembled ``K (K + reg I)^{-1}`` of the
    points :func:`grown_models` appended, the trace ratio brackets it, and
    the bound is no less than the parent's."""
    points = model.grid[: model.t]
    gram = pairwise(model.kernel, points, points)
    assembled = gram @ np.linalg.inv(gram + model.regularization * np.eye(model.t))
    reference = float(np.max(np.real(np.linalg.eigvals(assembled))))
    assert abs(model.xi_lambda_max() - reference) <= rtol * reference
    assert_bound_brackets_exact_ratio(model)
    assert model.xi_trace() >= parent_bound
    return model.xi_trace()


class TestSpectralRatiosAlongGrownHistories:
    """Spectral ratios along histories grown one append at a time, where
    each model's trace bound is no less than its parent's."""

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
        assert stuck.xi_trace() == pytest.approx(40.0 / 40.01, rel=1e-15)

    def test_long_history(self, rng):
        kernel = Kernel(lengthscale=0.05)
        points = rng.uniform(0, 1, size=(300, 1))
        bound = 0.0
        for model in grown_models(kernel, 0.01, points):
            assert model.xi_trace() >= bound
            bound = model.xi_trace()
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
        # Along a 130-step run the multipliers read the trace bound: no
        # eigensolver runs at all.
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
            [(m.xi_lambda_max(), m.xi_trace()) for m in grown_models(kernel, 0.01, points)]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


def mixed_chain(rng, n_outputs, grid, appends):
    """Indices and targets of a chain that repeats its last point, revisits
    an earlier one (often a run of repeats) and takes new ones, in turn at
    random."""
    indices = [int(rng.integers(len(grid)))]
    while len(indices) < appends:
        kind = rng.uniform()
        if kind < 0.5:
            indices.append(indices[-1])
        elif kind < 0.75:
            earlier = sorted(set(indices) - {indices[-1]})
            indices.append(int(rng.choice(earlier)) if earlier else indices[-1])
        else:
            indices.append(int(rng.integers(len(grid))))
    return indices, rng.standard_normal((n_outputs, appends))


def dense_repeated_input_solve(model, indices, targets):
    """Posterior means, std and information gain from ``scipy``'s Cholesky
    of the full ``t x t`` system ``K + reg I`` of the observations
    ``indices`` and ``targets``, one row per observation."""
    t, reg, inputs = len(indices), model.regularization, model.grid[indices]
    factor = cho_factor(pairwise(model.kernel, inputs, inputs) + reg * np.eye(t), lower=True)
    cross = pairwise(model.kernel, inputs, model.grid)
    means = cho_solve(factor, targets.T).T @ cross
    var = model.kernel.output_scale - np.einsum("tn,tn->n", cross, cho_solve(factor, cross))
    gain = 0.5 * (2.0 * np.log(np.diag(factor[0])).sum() - t * math.log(reg))
    return means, np.sqrt(np.maximum(var, 0.0)), gain


def bordered_per_observation(kernel, reg, grid, indices, targets):
    """Means, variance, ``P`` and pivots of one bordered row per observation:
    the layout a model keeps when no observation repeats the one before,
    with the same products in the same order."""
    k, t, n = targets.shape[0], len(indices), len(grid)
    scale = float(kernel.output_scale)
    proj, z, pivots = np.zeros((t, n)), np.zeros((t, k)), np.zeros(t)
    means, var = np.zeros((k, n)), np.full(n, scale)
    for i, index in enumerate(indices):
        w = proj[:i, index].copy()
        seen = [s for s in range(i) if indices[s] == index]
        if seen:
            s = seen[-1]
            rho = proj[s] * pivots[s]
        else:
            s = 0
            rho = pairwise(kernel, grid[index, None], grid)[0]
        for start in range(s - s % _GROWTH, i, _GROWTH):
            skip = max(s - start, 0)
            rho -= w[start + skip : start + _GROWTH] @ proj[start + skip : min(start + _GROWTH, i)]
        pivots[i] = math.sqrt(max(scale + reg - float(w @ w), reg * 1e-12))
        z[i] = (targets[:, i] - w @ z[:i].copy()) / pivots[i]
        proj[i] = rho / pivots[i]
        means = np.multiply.outer(z[i], proj[i]) + means
        var = var - proj[i] * proj[i]
    return means, var, proj, pivots


class TestRunsOfRepeats:
    """One row per run of consecutive observations of one grid point."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n_outputs, dim", [(1, 1), (2, 2)])
    def test_matches_a_fresh_solve_of_the_repeated_input_system(
        self, family, n_outputs, dim, rng
    ):
        # 150 appends, about half of them immediate repeats, make some 75
        # runs: the committed rows cross a block boundary.
        kernel = Kernel(family=family, lengthscale=0.3, output_scale=1.7)
        grid = grid_points(dim, 40 if dim == 1 else 7)
        indices, targets = mixed_chain(rng, n_outputs, grid, 150)
        model = SurrogateModel(kernel, 0.02, n_outputs, grid=grid)
        merged_revisits = new_after_merged = 0
        for step, (index, values) in enumerate(zip(indices, targets.T)):
            rows = run_rows(model)
            if step and index != indices[step - 1]:
                earlier = rows[rows[:, 0] == index]
                merged_revisits += bool(len(earlier)) and earlier[-1, 1] > 1
                new_after_merged += not len(earlier) and rows[-1, 1] > 1
            model = model.with_observation(index, values)
            if model.t % 10 and model.t < 140:
                continue
            history = indices[: model.t], targets[:, : model.t]
            means, std = model.posterior()
            ref_means, ref_std, ref_gain = dense_repeated_input_solve(model, *history)
            assert np.max(np.abs(means - ref_means)) <= 1e-10
            assert np.max(np.abs(std - ref_std)) <= 1e-12
            assert model.log_det_information_gain() == pytest.approx(ref_gain, rel=1e-10)
            assert_matches_fresh_factorization(model, history)
        rows = run_rows(model)
        assert rows[:, 1].sum() == model.t == 150 and _GROWTH < len(rows) < 120
        assert merged_revisits > 0 and new_after_merged > 0
        assert model.indices.tolist() == indices

    def test_sibling_branches_off_a_merged_row_leave_the_parent_unchanged(self, kernel, rng):
        grid = grid_points(1, 50)
        parent = SurrogateModel(kernel, 0.01, 2, grid=grid)
        history = [], np.zeros((2, 0))
        for index in (3, 7, 7, 3, 12, 12, 12):
            history = extended(history, index, rng.standard_normal(2))
            parent = parent.with_observation(index, history[1][:, -1])
        assert run_rows(parent)[:, 1].tolist() == [1.0, 2.0, 1.0, 3.0]
        before = carried_state(parent)
        # A repeat, a revisit of a merged row, a new point, another repeat.
        branches = [(12, [0.5, -1.0]), (7, [1.0, 2.0]), (30, [-0.5, 0.0]), (12, [2.0, 1.0])]
        children, states = [], []
        for index, values in branches:
            children.append(parent.with_observation(index, values))
            states.append(carried_state(children[-1]))
            assert_unchanged(parent, before)
        # The first repeat's child commits its merged row where a sibling
        # already committed the parent's.
        grandchild = children[0].with_observation(40, [0.0, 1.0])
        assert grandchild._proj_blocks.blocks[0] is not children[2]._proj_blocks.blocks[0]
        assert_unchanged(parent, before)
        for child, state, branch in zip(children, states, branches):
            assert_unchanged(child, state)
            assert_matches_fresh_factorization(child, extended(history, *branch))
        assert run_rows(children[0])[-1, 1] == run_rows(children[3])[-1, 1] == 4.0
        assert run_rows(grandchild)[:, 1].tolist() == [1.0, 2.0, 1.0, 4.0, 1.0]
        assert_matches_fresh_factorization(
            grandchild, extended(extended(history, *branches[0]), 40, [0.0, 1.0])
        )

    def test_an_immediate_repeat_calls_no_kernel_and_adds_no_row(self, kernel, rng, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2].shape[0])
            return pairwise(*args, **kwargs)

        monkeypatch.setattr("safebo.gp.pairwise", counted)
        model = SurrogateModel(kernel, 0.01, 1, grid=grid_points(1, 30))
        for index in (4, 9):
            model = model.with_observation(index, rng.standard_normal(1))
        assert calls == [30, 30]
        for _ in range(40):
            repeat = model.with_observation(9, rng.standard_normal(1))
            assert repeat._proj_blocks is model._proj_blocks and repeat._rows is model._rows
            assert projection_of(repeat).shape == (2, 30) and repeat.t == model.t + 1
            model = repeat
        assert calls == [30, 30] and model.indices.tolist() == [4] + [9] * 41

    @pytest.mark.parametrize("n_outputs", [1, 2])
    def test_a_chain_without_immediate_repeats_keeps_the_bits_of_a_row_per_observation(
        self, n_outputs, kernel, rng
    ):
        # New points and revisits, never the point just appended: r = t,
        # and every carried bit is the one-row-per-observation border's.
        grid = grid_points(1, 40)
        indices = [int(i) for i in np.cumsum(rng.integers(1, 40, size=150)) % 40]
        targets = rng.standard_normal((n_outputs, 150))
        model = SurrogateModel(kernel, 0.01, n_outputs, grid=grid)
        for index, values in zip(indices, targets.T):
            model = model.with_observation(index, values)
        means, var, proj, pivots = bordered_per_observation(kernel, 0.01, grid, indices, targets)
        assert np.array_equal(model.posterior()[0], means) and np.array_equal(model._var, var)
        assert np.array_equal(projection_of(model), proj)
        assert np.array_equal(run_rows(model)[:, -1], pivots)
        assert model.log_det_information_gain() == 0.5 * (
            2.0 * float(np.log(pivots).sum()) - 150 * np.log(0.01)
        )


def retained_bytes(kernel, appends):
    """Bytes that a two-output model on a 300-point grid keeps alive after
    ``appends`` observations of one point, as tracemalloc counts them."""
    grid, values = grid_points(1, 300), np.zeros(2)
    tracemalloc.start()
    try:
        model = SurrogateModel(kernel, 0.01, 2, grid=grid)
        for _ in range(appends):
            model = model.with_observation(150, values)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.t == appends
    return retained


class TestHistoryIsTheRuns:
    """A model keeps nothing per observation: its indices and its exact
    spectral ratio are read from its rows per run."""

    def test_a_one_point_chain_retains_no_more_memory_as_it_grows(self, kernel):
        # A run stuck at its start point, as most heavy-tailed scenario
        # runs are, is one run whatever t is: it keeps 18 to 22 KiB at 200
        # appends and at 3000.  A record per observation grows with t
        # instead: a linked log of the values kept 55 KiB and 541 KiB.
        retained_bytes(kernel, 10)
        assert retained_bytes(kernel, 3000) <= retained_bytes(kernel, 200) + 16 * 1024

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n_outputs, dim", [(1, 1), (2, 2)])
    def test_indices_and_exact_ratio_follow_the_appended_chain(
        self, family, n_outputs, dim, rng, monkeypatch
    ):
        # After every append of a chain of repeats, revisits and new
        # points, the indices decoded from the runs are the appended ones,
        # and the exact ratio, from the r x r matrix of the runs, is the
        # t x t Gram's.  The two eigenvalues differ by 1.2e-16 at most,
        # relative; 1e-14 allows for other BLAS kernels.
        shapes = []

        def counted(*args, **kwargs):
            shapes.append((args[1].shape[0], args[2].shape[0]))
            return pairwise(*args, **kwargs)

        monkeypatch.setattr("safebo.gp.pairwise", counted)
        kernel = Kernel(family=family, lengthscale=0.3, output_scale=1.7)
        grid = grid_points(dim, 40 if dim == 1 else 7)
        indices, targets = mixed_chain(rng, n_outputs, grid, 150)
        model = SurrogateModel(kernel, 0.02, n_outputs, grid=grid)
        kinds = set()
        for t, (index, values) in enumerate(zip(indices, targets.T), 1):
            rows = run_rows(model)
            earlier = rows[rows[:, 0] == index]
            if t > 1 and index == indices[t - 2]:
                kinds.add("repeat")
            elif len(earlier):
                kinds.add("revisit of a merged row" if earlier[-1, 1] > 1 else "revisit")
            else:
                kinds.add("new point")
            model = model.with_observation(index, values)
            assert model.indices.tolist() == indices[:t]
            inputs = grid[indices[:t]]
            lam = float(np.linalg.eigvalsh(pairwise(kernel, inputs, inputs))[-1])
            called, r = len(shapes), len(run_rows(model))
            assert model.xi_lambda_max() == pytest.approx(lam / (lam + 0.02), rel=1e-14)
            assert shapes[called:] == [(r, r)]
        assert kinds >= {"repeat", "revisit of a merged row", "new point"}
        assert len(run_rows(model)) < 120
