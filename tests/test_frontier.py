"""The lattice frontier against brute force over every outside point."""

import numpy as np
import pytest

from safebo import Domain, Kernel
from safebo import frontier as frontier_module
from safebo.frontier import GridIndex
from safebo.kernels import FAMILIES, metric_matrix, paired_metric

# Relative slack on squared distances within which two outside points
# count as equally near: far above the roundoff of a sum of squares, far
# below any gap between distinct distances the fixtures draw.
TIE_RTOL = 1e-12


def random_axis(rng):
    """Increasing coordinates with gaps spread over three decades."""
    size = int(rng.integers(1, 8))
    gaps = rng.exponential(size=size) * 10 ** rng.uniform(-3, 0, size=size)
    return rng.uniform(-1, 1) + np.cumsum(gaps)


def random_lattice(rng, dims):
    """A non-uniform lattice of at least two points."""
    while True:
        domain = Domain(tuple(random_axis(rng) for _ in range(dims)))
        if domain.n_points >= 2:
            return domain


def random_mask(rng, n):
    """A mask with at least one point on each side."""
    mask = rng.random(n) < rng.uniform(0.05, 0.95)
    mask[int(rng.integers(n))] = True
    mask[int(rng.integers(n))] = False
    if mask.all():
        mask[0] = False
    return mask


def random_kernel(rng):
    family = FAMILIES[int(rng.integers(len(FAMILIES)))]
    return Kernel(
        family,
        lengthscale=float(10 ** rng.uniform(-2, 0)),
        output_scale=float(10 ** rng.uniform(-1, 1)),
    )


def fixtures(rng, count):
    for trial in range(count):
        dims = 1 + trial % 3
        if trial % 4 == 3:
            resolution = [int(rng.integers(2, 7)) for _ in range(dims)]
            domain = Domain.grid([(0.0, 1.0)] * dims, resolution)
        else:
            domain = random_lattice(rng, dims)
        yield random_kernel(rng), domain, random_mask(rng, domain.n_points)


@pytest.fixture(params=["default", "one"])
def budget(request, monkeypatch):
    """The default pair budget, and one that chunks every pass to ``n`` elements."""
    if request.param == "one":
        monkeypatch.setattr(frontier_module, "_PAIR_BUDGET", 1)


def growth_chain(rng, mask):
    """``mask``, then masks that each add about 30% of the outside points, to the last."""
    chain = [mask]
    while not mask.all():
        outside = np.flatnonzero(~mask)
        absorbed = outside[rng.random(outside.size) < 0.3]
        mask = mask.copy()
        mask[absorbed] = True
        mask[outside[int(rng.integers(outside.size))]] = True
        chain.append(mask)
    return chain


def assert_near_and_reach(index, mask, frontier):
    """``near`` is the metric to a Euclidean-nearest outside point, and the reach filter keeps
    every anchor at the least bound that reaches an outside point, ``norm * d`` of the pair."""
    points = index.points
    inside, outside = np.flatnonzero(mask), np.flatnonzero(~mask)
    assert np.array_equal(frontier.mask, mask)
    anchors = np.repeat(points[inside], outside.size, axis=0)
    others = np.tile(points[outside], (inside.size, 1))
    diff = anchors - others
    squares = diff * diff
    sq = squares[:, 0].copy()
    for k in range(1, squares.shape[1]):
        sq += squares[:, k]
    sq = sq.reshape(inside.size, outside.size)
    metric = paired_metric(index.kernel, anchors, others).reshape(inside.size, outside.size)
    nearest = sq <= sq.min(axis=1, keepdims=True) * (1.0 + TIE_RTOL)
    assert ((metric == frontier.near[inside, None]) & nearest).any(axis=1).all()
    for norm in (0.5, 1.0, 3.0):
        assert (index._reach(norm * metric, norm) - frontier.near[inside, None] ** 2 >= 0.0).all()


def assert_covered_and_reaches_match_the_dense_scan(rng, index, mask):
    # Bounds span below the nearest outside point to past the farthest,
    # with exact ties L * d for some pairs.
    frontier = index.frontier(mask)
    metric = metric_matrix(index.kernel, index.points)
    anchors = np.flatnonzero(mask)
    outside = np.flatnonzero(~mask)
    norm = float(rng.uniform(0.5, 2.0))
    bounds = norm * metric[np.ix_(anchors, outside)].max(axis=1) * rng.uniform(0, 1.2, anchors.size)
    ties = rng.random(anchors.size) < 0.3
    picks = rng.integers(outside.size, size=anchors.size)
    bounds[ties] = norm * metric[anchors[ties], outside[picks[ties]]]
    reach = bounds[:, None] - norm * metric[np.ix_(anchors, outside)] >= 0.0
    # Per grid point: False inside, the dense scan's answer outside.
    covered = index.covered(frontier, anchors, bounds, norm)
    assert covered.shape == mask.shape and not covered[mask].any()
    assert np.array_equal(covered[outside], reach.any(axis=0))
    assert np.array_equal(index.reaches(frontier, anchors, bounds, norm), reach.any(axis=1))


def test_near_and_the_reach_filter_match_bruteforce(budget):
    rng = np.random.default_rng(7)
    for kernel, domain, mask in fixtures(rng, 120):
        index = GridIndex(kernel, domain)
        assert_near_and_reach(index, mask, index.frontier(mask))


def test_covered_and_reaches_match_the_dense_scan(budget):
    rng = np.random.default_rng(11)
    for kernel, domain, mask in fixtures(rng, 80):
        assert_covered_and_reaches_match_the_dense_scan(rng, GridIndex(kernel, domain), mask)


def reach_edges(index, frontier, anchors, norm):
    """Per anchor, the least nonnegative bound whose reach is at least ``near**2``.

    Zero where a zero bound's reach already is: no bound falls short there.
    """
    near_sq = frontier.near[anchors] ** 2
    slack = frontier_module._ABS_SLACK * 2.0 * index.kernel.output_scale
    edge = norm * np.sqrt(np.maximum(near_sq - slack, 0.0) / (1.0 + frontier_module._REL_SLACK))
    # The closed form is off by a few ulps; the reach grows with the bound.
    while (short := index._reach(edge, norm) < near_sq).any():
        edge[short] = np.nextafter(edge[short], np.inf)
    below = np.nextafter(edge, -np.inf)
    while (past := (edge > 0.0) & (index._reach(below, norm) >= near_sq)).any():
        edge[past] = below[past]
        below = np.nextafter(edge, -np.inf)
    return edge


def test_the_band_edges_match_the_dense_scan(budget):
    # The band runs from the least bound the reach filter keeps to
    # ``norm * near``; at each edge and one ulp either side, covered,
    # reaches and the box query alone all give the dense answer.
    rng = np.random.default_rng(17)
    for kernel, domain, mask in fixtures(rng, 80):
        index = GridIndex(kernel, domain)
        frontier = index.frontier(mask)
        metric = metric_matrix(kernel, domain.points)
        anchors, outside = np.flatnonzero(mask), np.flatnonzero(~mask)
        norm = float(rng.uniform(0.5, 2.0))
        for edge in (norm * frontier.near[anchors], reach_edges(index, frontier, anchors, norm)):
            for bounds in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                reach = bounds[:, None] - norm * metric[np.ix_(anchors, outside)] >= 0.0
                covered = index.covered(frontier, anchors, bounds, norm)
                assert np.array_equal(covered[outside], reach.any(axis=0))
                found = index.reaches(frontier, anchors, bounds, norm)
                assert np.array_equal(found, reach.any(axis=1))
                queried = np.zeros(anchors.size, dtype=bool)
                target = index._reach(bounds, norm)
                for rows, _, ok in index._pairs(frontier, anchors, bounds, norm, target):
                    queried[rows[ok]] = True
                assert np.array_equal(queried, reach.any(axis=1))


@pytest.mark.parametrize("x", [0.9959, 1e-11], ids=["loosest", "near-zero"])
def test_matern_boxes_match_the_dense_scan_at_the_radius_bound_extremes(budget, x):
    # Kernel.radius bounds the Matérn-3/2 inverse from above, by up to
    # 15.2% where x = metric**2 / (2 * output_scale) is near 0.996 and by a
    # margin that vanishes as x goes to 0.  The lattices' gaps put pairs
    # around the radius at x, and the bounds are the metric at x, L * d of
    # pairs and an ulp either side, so outside points sit on both sides of
    # every box's edge.
    rng = np.random.default_rng(37)
    for trial in range(30):
        kernel = Kernel(
            "matern32",
            lengthscale=float(10 ** rng.uniform(-2, 0)),
            output_scale=float(10 ** rng.uniform(-1, 1)),
        )
        level = np.sqrt(2.0 * kernel.output_scale * x)
        radius = float(kernel.radius(np.array([level]))[0])
        axes = tuple(
            rng.uniform(-1, 1) + np.cumsum(rng.uniform(0.05, 0.6, int(rng.integers(2, 8)))) * radius
            for _ in range(1 + trial % 3)
        )
        domain = Domain(axes)
        index = GridIndex(kernel, domain)
        mask = random_mask(rng, domain.n_points)
        frontier = index.frontier(mask)
        metric = metric_matrix(kernel, domain.points)
        anchors, outside = np.flatnonzero(mask), np.flatnonzero(~mask)
        norm = float(rng.uniform(0.5, 2.0))
        ties = norm * metric[anchors, outside[rng.integers(outside.size, size=anchors.size)]]
        for tie in (ties, np.full(anchors.size, norm * level)):
            for bounds in (np.nextafter(tie, -np.inf), tie, np.nextafter(tie, np.inf)):
                reach = bounds[:, None] - norm * metric[np.ix_(anchors, outside)] >= 0.0
                covered = index.covered(frontier, anchors, bounds, norm)
                assert np.array_equal(covered[outside], reach.any(axis=0))
                found = index.reaches(frontier, anchors, bounds, norm)
                assert np.array_equal(found, reach.any(axis=1))


@pytest.mark.filterwarnings("error")
def test_covered_from_the_metric_supremum_on_matches_the_dense_scan(budget):
    # A bound from norm * sqrt(2 * output_scale), the supremum of every
    # computed metric, on reaches every outside point: its box is the
    # whole lattice, and near the largest float its reach overflows to
    # infinity without a warning.  Half the anchors take such a bound.
    rng = np.random.default_rng(29)
    for kernel, domain, mask in fixtures(rng, 60):
        index = GridIndex(kernel, domain)
        frontier = index.frontier(mask)
        metric = metric_matrix(kernel, domain.points)
        anchors, outside = np.flatnonzero(mask), np.flatnonzero(~mask)
        norm = float(rng.uniform(0.5, 2.0))
        top = norm * np.sqrt(2 * kernel.output_scale)
        for bound in (top, np.nextafter(top, np.inf), 1.5 * top, 1e300, np.inf):
            high = rng.random(anchors.size) < 0.5
            bounds = np.where(high, bound, top * rng.uniform(0, 1, anchors.size))
            reach = bounds[:, None] - norm * metric[np.ix_(anchors, outside)] >= 0.0
            covered = index.covered(frontier, anchors, bounds, norm)
            assert not covered[mask].any()
            assert np.array_equal(covered[outside], reach.any(axis=0))
            assert covered[outside].all() or not high.any()
            assert np.array_equal(index.reaches(frontier, anchors, bounds, norm), reach.any(axis=1))


@pytest.mark.filterwarnings("error")
def test_negative_bounds_match_the_dense_scan(budget):
    # A negative bound reaches no outside point a positive metric away;
    # its reach is the margin alone, so the filter drops it unless the
    # nearest outside point is within the margin, and then the box
    # query decides it.
    rng = np.random.default_rng(31)
    for kernel, domain, mask in fixtures(rng, 60):
        index = GridIndex(kernel, domain)
        frontier = index.frontier(mask)
        metric = metric_matrix(kernel, domain.points)
        anchors, outside = np.flatnonzero(mask), np.flatnonzero(~mask)
        norm = float(rng.uniform(0.5, 2.0))
        for bound in (-0.0, -5e-324, -1e-3, -1.0, -1e300, -np.inf):
            bounds = np.full(anchors.size, bound)
            reach = bounds[:, None] - norm * metric[np.ix_(anchors, outside)] >= 0.0
            covered = index.covered(frontier, anchors, bounds, norm)
            assert not covered[mask].any()
            assert np.array_equal(covered[outside], reach.any(axis=0))
            assert np.array_equal(index.reaches(frontier, anchors, bounds, norm), reach.any(axis=1))


@pytest.fixture
def queries(monkeypatch):
    """The anchors of every ``GridIndex._pairs`` call, in order."""
    seen = []
    pairs = GridIndex._pairs

    def counted(self, frontier, anchors, bounds, norm, reach):
        seen.append(anchors.copy())
        return pairs(self, frontier, anchors, bounds, norm, reach)

    monkeypatch.setattr(GridIndex, "_pairs", counted)
    return seen


def test_reaches_queries_only_the_band(queries):
    rng = np.random.default_rng(19)
    for kernel, domain, mask in fixtures(rng, 40):
        index = GridIndex(kernel, domain)
        frontier = index.frontier(mask)
        anchors = np.flatnonzero(mask)
        norm = float(rng.uniform(0.5, 2.0))
        near, edge = norm * frontier.near[anchors], reach_edges(index, frontier, anchors, norm)
        # Each bound reaches its near, or falls an ulp short of the reach
        # filter: the frontier decides every anchor, and no box is queried.
        short_of_edge = (rng.random(anchors.size) < 0.5) & (edge > 0.0)
        decided = np.where(short_of_edge, np.nextafter(edge, -np.inf), near)
        assert np.array_equal(index.reaches(frontier, anchors, decided, norm), ~short_of_edge)
        assert queries == []
        # An ulp short of near is in the band wherever its reach is at
        # least near squared; only those anchors are queried, in one call.
        short = np.nextafter(near, -np.inf)
        pick = rng.random(anchors.size) < 0.5
        band = pick & (index._reach(short, norm) - frontier.near[anchors] ** 2 >= 0.0)
        index.reaches(frontier, anchors, np.where(pick, short, decided), norm)
        assert len(queries) == band.any()
        if band.any():
            assert np.array_equal(queries.pop(), anchors[band])


@pytest.mark.filterwarnings("error")
def test_a_full_mask_covers_and_reaches_nothing():
    # No point lies outside a full mask, so no bound reaches one, an
    # infinite bound included.  The fixtures' full masks are grown from
    # their masks; the 5 x 4 lattice's from the empty mask.
    rng = np.random.default_rng(23)
    lattices = [(Kernel(), Domain.grid([(0.0, 1.0)] * 2, [5, 4]), None)]
    for kernel, domain, mask in lattices + list(fixtures(rng, 60)):
        index = GridIndex(kernel, domain)
        if mask is not None:
            index.frontier(mask)
        full = np.ones(domain.n_points, dtype=bool)
        frontier = index.frontier(full)
        anchors = np.arange(domain.n_points)
        norm = float(rng.uniform(0.5, 2.0))
        for bound in (-1.0, 0.0, 5.0, 1e300, np.inf):
            bounds = np.full(anchors.size, bound)
            assert not index.covered(frontier, anchors, bounds, norm).any()
            assert not index.reaches(frontier, anchors, bounds, norm).any()


@pytest.fixture
def empties(monkeypatch):
    """Every call of ``GridIndex._empty``, as the lattice size it was given."""
    seen = []
    empty = GridIndex._empty

    def counted(self, n):
        seen.append(n)
        return empty(self, n)

    monkeypatch.setattr(GridIndex, "_empty", counted)
    return seen


@pytest.fixture
def grows(monkeypatch):
    """Every mask ``GridIndex._grow`` is called with, in order."""
    seen = []
    grow = GridIndex._grow

    def counted(self, absorbed, mask, near):
        seen.append(mask.copy())
        return grow(self, absorbed, mask, near)

    monkeypatch.setattr(GridIndex, "_grow", counted)
    return seen


def test_a_growth_chain_matches_bruteforce(budget, empties):
    # Each link grows the frontier of the one before; only the first
    # starts from the empty mask.
    rng = np.random.default_rng(13)
    for kernel, domain, mask in fixtures(rng, 60):
        index = GridIndex(kernel, domain)
        chain = growth_chain(rng, mask)
        for link, mask in enumerate(chain[:-1]):
            before = len(empties)
            frontier = index.frontier(mask)
            assert len(empties) == before + (link == 0)
            assert_near_and_reach(index, mask, frontier)
            fresh = GridIndex(kernel, domain).frontier(mask)
            assert np.array_equal(frontier.mask, fresh.mask)
            assert_covered_and_reaches_match_the_dense_scan(rng, index, mask)
        before = len(empties)
        assert index.frontier(chain[-1]).mask.all() and len(empties) == before


def test_lattice_with_a_single_point_axis():
    domain = Domain((np.zeros(1), np.linspace(0.0, 1.0, 5)))
    mask = np.array([True, True, False, True, True])
    frontier = GridIndex(Kernel(lengthscale=0.5), domain).frontier(mask)
    metric = metric_matrix(Kernel(lengthscale=0.5), domain.points)
    assert np.array_equal(frontier.near[mask], metric[mask, 2])


def test_an_equal_mask_is_kept_a_superset_grows_and_any_other_grows_from_empty(empties, grows):
    domain = Domain.grid([(0.0, 1.0)] * 2, [6, 5])
    kernel = Kernel(lengthscale=0.3)
    index = GridIndex(kernel, domain)
    mask = random_mask(np.random.default_rng(3), domain.n_points)
    # The first mask grows from the empty mask.
    first = index.frontier(mask)
    assert len(empties) == 1 and len(grows) == 1
    # An equal mask in a fresh array is the same mask, and does no work.
    assert index.frontier(mask.copy()) is first and len(empties) == 1 and len(grows) == 1
    near = first.near.copy()
    superset = mask.copy()
    superset[(~mask).nonzero()[0][:2]] = True
    grown = index.frontier(superset)
    assert len(empties) == 1 and len(grows) == 2 and grown is not first
    # Growth leaves the kept frontier as it was.
    assert np.array_equal(first.near, near)
    # A mask that drops a point grows from the empty mask, even the mask
    # grown from.
    assert index.frontier(mask) is not first and len(empties) == 2 and len(grows) == 3
    fresh = GridIndex(kernel, domain).frontier(superset)
    assert np.array_equal(grown.mask, fresh.mask)
    assert_near_and_reach(index, superset, grown)


def test_a_growth_that_raises_leaves_nothing_stale(monkeypatch):
    # A growth that raises after rescanning its lines leaves rows that
    # describe no kept mask; the next frontier must not read them.
    domain = Domain.grid([(0.0, 1.0)] * 2, [6, 6])
    kernel = Kernel(lengthscale=0.3)
    index = GridIndex(kernel, domain)
    index.frontier(np.isin(np.arange(36), [14]))
    nearest_outside = GridIndex._nearest_outside

    def raises(self, stale):
        raise MemoryError

    monkeypatch.setattr(GridIndex, "_nearest_outside", raises)
    with pytest.raises(MemoryError):
        index.frontier(np.isin(np.arange(36), [14, *range(18, 24)]))
    monkeypatch.setattr(GridIndex, "_nearest_outside", nearest_outside)
    mask = np.isin(np.arange(36), range(6, 18))
    frontier = index.frontier(mask)
    fresh = GridIndex(kernel, domain).frontier(mask)
    assert np.array_equal(frontier.near[mask], fresh.near[mask])
    assert_near_and_reach(index, mask, frontier)


def test_a_mask_that_does_not_fit_the_lattice_raises(empties):
    domain = Domain.grid([(0.0, 1.0)], 5)
    index = GridIndex(Kernel(lengthscale=0.3), domain)
    mask = np.array([True, True, False, True, True])
    kept = index.frontier(mask)
    bad = (np.ones(1, dtype=bool), np.array([True, False, True]), mask.astype(int))
    for other in bad:
        with pytest.raises(ValueError, match=r"\(5,\)"):
            index.frontier(other)
    # The kept frontier survives: the equal mask is still no work.
    assert index.frontier(mask.copy()) is kept and len(empties) == 1


def test_the_kept_mask_is_a_private_copy(empties, grows):
    domain = Domain.grid([(0.0, 1.0)] * 2, [6, 5])
    index = GridIndex(Kernel(lengthscale=0.3), domain)
    mask = random_mask(np.random.default_rng(5), domain.n_points)
    before = mask.copy()
    frontier = index.frontier(mask)
    # The caller's array is written after the call, into a superset.
    mask[(~mask).nonzero()[0][0]] = True
    assert np.array_equal(frontier.mask, before)
    # So the kept mask is still the one frontier was called with: an
    # equal mask is kept, and the caller's new superset grows it.
    assert index.frontier(before) is frontier and len(grows) == 1
    assert np.array_equal(index.frontier(mask).mask, mask)
    assert len(empties) == 1 and len(grows) == 2
