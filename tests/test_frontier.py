"""The lattice frontier against brute force over every outside point."""

import numpy as np
import pytest

from safebo import Domain, Kernel, metric_matrix
from safebo import frontier as frontier_module
from safebo.frontier import Frontier, GridIndex
from safebo.kernels import FAMILIES, paired_metric

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


def assert_near_and_floor(kernel, domain, mask, frontier):
    """``near`` is the metric to a Euclidean-nearest outside point, ``floor`` at most any."""
    points = domain.points
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
    metric = paired_metric(kernel, anchors, others).reshape(inside.size, outside.size)
    nearest = sq <= sq.min(axis=1, keepdims=True) * (1.0 + TIE_RTOL)
    assert ((metric == frontier.near[inside, None]) & nearest).any(axis=1).all()
    assert (frontier.floor[inside] <= metric.min(axis=1)).all()


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


def test_near_and_floor_match_bruteforce(budget):
    rng = np.random.default_rng(7)
    for kernel, domain, mask in fixtures(rng, 120):
        assert_near_and_floor(kernel, domain, mask, GridIndex(kernel, domain).frontier(mask))


def test_covered_and_reaches_match_the_dense_scan(budget):
    rng = np.random.default_rng(11)
    for kernel, domain, mask in fixtures(rng, 80):
        assert_covered_and_reaches_match_the_dense_scan(rng, GridIndex(kernel, domain), mask)


def band_edges(frontier, anchors, norm):
    """Per anchor, ``norm`` times its ``near`` and ``floor``, and one ulp either side of each."""
    edges = []
    for edge in (norm * frontier.near[anchors], norm * frontier.floor[anchors]):
        edges += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
    return edges


def test_reaches_at_the_band_edges_matches_the_dense_scan(budget):
    rng = np.random.default_rng(17)
    for kernel, domain, mask in fixtures(rng, 80):
        index = GridIndex(kernel, domain)
        frontier = index.frontier(mask)
        metric = metric_matrix(kernel, domain.points)
        anchors, outside = np.flatnonzero(mask), np.flatnonzero(~mask)
        norm = float(rng.uniform(0.5, 2.0))
        # With near raised to the metric's supremum, which only narrows
        # what it decides, every bound from floor up goes to the ball query.
        wide = Frontier(mask, np.full(mask.size, index.metric_sup), frontier.floor)
        for bounds in band_edges(frontier, anchors, norm):
            reach = bounds[:, None] - norm * metric[np.ix_(anchors, outside)] >= 0.0
            assert np.array_equal(index.reaches(frontier, anchors, bounds, norm), reach.any(axis=1))
            assert np.array_equal(index.reaches(wide, anchors, bounds, norm), reach.any(axis=1))


@pytest.fixture
def queries(monkeypatch):
    """The anchors of every ``GridIndex._pairs`` call, in order."""
    seen = []
    pairs = GridIndex._pairs

    def counted(self, frontier, anchors, bounds, norm):
        seen.append(anchors.copy())
        return pairs(self, frontier, anchors, bounds, norm)

    monkeypatch.setattr(GridIndex, "_pairs", counted)
    return seen


def test_reaches_queries_only_the_band(queries):
    rng = np.random.default_rng(19)
    for kernel, domain, mask in fixtures(rng, 40):
        index = GridIndex(kernel, domain)
        frontier = index.frontier(mask)
        anchors = np.flatnonzero(mask)
        norm = float(rng.uniform(0.5, 2.0))
        near, floor = norm * frontier.near[anchors], norm * frontier.floor[anchors]
        # Each bound reaches its near, or falls an ulp short of its floor:
        # the frontier decides every anchor, and no ball is queried.
        decided = np.where(rng.random(anchors.size) < 0.5, near, np.nextafter(floor, -np.inf))
        assert np.array_equal(index.reaches(frontier, anchors, decided, norm), decided == near)
        assert queries == []
        # An ulp short of near is in the band wherever it still reaches
        # floor; only those anchors are queried, in one call.
        short = np.nextafter(near, -np.inf)
        pick = rng.random(anchors.size) < 0.5
        band = pick & (short - floor >= 0.0)
        index.reaches(frontier, anchors, np.where(pick, short, decided), norm)
        assert len(queries) == band.any()
        if band.any():
            assert np.array_equal(queries.pop(), anchors[band])


def test_a_growth_chain_matches_bruteforce(budget, builds):
    # Each link grows the frontier of the one before; only the first builds.
    rng = np.random.default_rng(13)
    for kernel, domain, mask in fixtures(rng, 60):
        index = GridIndex(kernel, domain)
        chain = growth_chain(rng, mask)
        for link, mask in enumerate(chain[:-1]):
            before = len(builds)
            frontier = index.frontier(mask)
            assert len(builds) == before + (link == 0)
            assert_near_and_floor(kernel, domain, mask, frontier)
            fresh = GridIndex(kernel, domain).frontier(mask)
            assert np.array_equal(frontier.mask, fresh.mask)
            assert_covered_and_reaches_match_the_dense_scan(rng, index, mask)
        before = len(builds)
        assert index.frontier(chain[-1]).mask.all() and len(builds) == before


def test_lattice_with_a_single_point_axis():
    domain = Domain((np.zeros(1), np.linspace(0.0, 1.0, 5)))
    mask = np.array([True, True, False, True, True])
    frontier = GridIndex(Kernel(lengthscale=0.5), domain).frontier(mask)
    metric = metric_matrix(Kernel(lengthscale=0.5), domain.points)
    assert np.array_equal(frontier.near[mask], metric[mask, 2])



@pytest.fixture
def builds(monkeypatch):
    """Every mask ``GridIndex._build`` is called with, in order."""
    seen = []
    build = GridIndex._build

    def counted(self, mask):
        seen.append(mask.copy())
        return build(self, mask)

    monkeypatch.setattr(GridIndex, "_build", counted)
    return seen


@pytest.fixture
def grows(monkeypatch):
    """Every mask ``GridIndex._grow`` is called with, a build's included, in order."""
    seen = []
    grow = GridIndex._grow

    def counted(self, absorbed, mask, near, floor):
        seen.append(mask.copy())
        return grow(self, absorbed, mask, near, floor)

    monkeypatch.setattr(GridIndex, "_grow", counted)
    return seen


def test_an_equal_mask_is_kept_a_superset_grows_and_any_other_is_built(builds, grows):
    domain = Domain.grid([(0.0, 1.0)] * 2, [6, 5])
    kernel = Kernel(lengthscale=0.3)
    index = GridIndex(kernel, domain)
    mask = random_mask(np.random.default_rng(3), domain.n_points)
    # A build grows from the empty mask.
    first = index.frontier(mask)
    assert len(builds) == 1 and len(grows) == 1
    # An equal mask in a fresh array is the same mask, and does no work.
    assert index.frontier(mask.copy()) is first and len(builds) == 1 and len(grows) == 1
    near, floor = first.near.copy(), first.floor.copy()
    superset = mask.copy()
    superset[(~mask).nonzero()[0][:2]] = True
    grown = index.frontier(superset)
    assert len(builds) == 1 and len(grows) == 2 and grown is not first
    # Growth leaves the kept frontier as it was.
    assert np.array_equal(first.near, near) and np.array_equal(first.floor, floor)
    # A mask that drops a point is built, even the mask grown from.
    assert index.frontier(mask) is not first and len(builds) == 2 and len(grows) == 3
    fresh = GridIndex(kernel, domain).frontier(superset)
    assert np.array_equal(grown.mask, fresh.mask)
    assert_near_and_floor(kernel, domain, superset, grown)


def test_a_mask_that_does_not_fit_the_lattice_raises(builds):
    domain = Domain.grid([(0.0, 1.0)], 5)
    index = GridIndex(Kernel(lengthscale=0.3), domain)
    mask = np.array([True, True, False, True, True])
    kept = index.frontier(mask)
    bad = (np.ones(1, dtype=bool), np.array([True, False, True]), mask.astype(int))
    for other in bad:
        with pytest.raises(ValueError, match=r"\(5,\)"):
            index.frontier(other)
    # The kept frontier survives: the equal mask is still no work.
    assert index.frontier(mask.copy()) is kept and len(builds) == 1


def test_the_kept_mask_is_a_private_copy(builds, grows):
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
    assert len(builds) == 1 and len(grows) == 2
