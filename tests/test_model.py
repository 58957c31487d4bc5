"""Geometry, kernels, potential laws, sampling."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perclab import (LatticeRegion, PotentialDistribution,
                     adjacency_kernel, bernoulli_distribution, boundary,
                     enumerate_connected_subgraphs,
                     sample_configuration, validate_kernel)
from perclab.errors import PreconditionError, ResourceGuardError
from perclab.model import BOX_SITE_MAX

from oracles import quantile as oracle_quantile


# ---------------------------------------------------------------------------
# kernels


def test_adjacency_d2():
    k = adjacency_kernel(2)
    assert k.hop_range == 1
    assert k.norm_bound == 4
    assert k.integer_valued


def test_kernel_longer_stencil():
    k = validate_kernel({(1, 0): 1, (-1, 0): 1, (2, 0): -1, (-2, 0): -1,
                         (0, 1): 1, (0, -1): 1})
    assert k.hop_range == 2
    assert k.norm_bound == 6


def test_kernel_symmetry_violation():
    with pytest.raises(PreconditionError):
        validate_kernel({(1,): 1.0, (-1,): 2.0})


def test_kernel_empty():
    with pytest.raises(PreconditionError):
        validate_kernel([])


@pytest.mark.parametrize("offsets", [
    {(0.5,): 1, (-0.5,): 1},              # not a lattice vector
    {(1,): math.inf, (-1,): math.inf},
    {(1,): math.nan, (-1,): math.nan},
    {(1,): "1", (-1,): "1"},
    {(): 1},                              # no dimension
])
def test_kernel_rejects_non_lattice_offsets_and_non_finite_coefficients(offsets):
    with pytest.raises(PreconditionError):
        validate_kernel(offsets)


def test_kernel_integer_valued_float_offsets_are_lattice_vectors():
    assert validate_kernel({(1.0,): 1, (-1.0,): 1}) == adjacency_kernel(1)


def test_kernel_idempotent():
    k = validate_kernel({(1, 0): 0.5, (-1, 0): 0.5, (0, 1): -2, (0, -1): -2})
    again = validate_kernel(k.offsets)
    assert again == k


def test_kernel_json_roundtrip():
    k = adjacency_kernel(3)
    assert validate_kernel([(tuple(v), c) for v, c in
                            json.loads(json.dumps(k.to_json_dict()))["offsets"]]) == k


# ---------------------------------------------------------------------------
# regions and boundaries


def test_box_core_enumeration_lexicographic():
    reg = LatticeRegion.box(2, 1, 0)
    expect = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
              (1, -1), (1, 0), (1, 1)]
    assert [tuple(s) for s in reg.sites.tolist()] == expect
    assert reg.n_core == 9


def test_collar_is_l1_shells():
    reg = LatticeRegion.box(2, 1, 2)
    # every collar site has l1 distance to the box between 1 and 2
    for s, sh in zip(reg.sites[reg.n_core:].tolist(), reg.shell[reg.n_core:].tolist()):
        d = sum(max(0, abs(x) - 1) for x in s)
        assert d == sh and 1 <= d <= 2


def test_box_site_guard_trips_before_allocating():
    # each case asks for BOX_SITE_MAX + 1 sites or (far) more; the guard
    # counts the collar's bounding box too
    for dim, halfwidth, collar in ((1, BOX_SITE_MAX // 2, 0), (1, BOX_SITE_MAX // 2 - 1, 1),
                                   (3, 10 ** 8, 0), (2, 10 ** 18, 2)):
        with pytest.raises(ResourceGuardError) as info:
            LatticeRegion.box(dim, halfwidth, collar)
        assert info.value.reached == (2 * (halfwidth + collar) + 1) ** dim


@st.composite
def shift_cases(draw):
    """(region, indices, offset): boxes, translated polyominoes with a
    collar, and full rectangular grids like mirror_embed's."""
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("box", "polyomino", "grid")))
    if kind == "box":
        region = LatticeRegion.box(dim, draw(st.integers(0, 3)), draw(st.integers(0, 2)))
    elif kind == "polyomino":
        size = draw(st.integers(1, 4))
        cls = draw(st.sampled_from(enumerate_connected_subgraphs(adjacency_kernel(dim), size)
                                   .classes(size)))
        at = draw(st.tuples(*[st.integers(-5, 5)] * dim))
        region = LatticeRegion.explicit([tuple(a + x for a, x in zip(at, s)) for s in cls],
                                        collar=draw(st.integers(0, 2)))
    else:
        spans = [range(lo, lo + n) for lo, n in draw(st.lists(
            st.tuples(st.integers(-4, 4), st.integers(1, 4)), min_size=dim, max_size=dim))]
        region = LatticeRegion.explicit(itertools.product(*spans))
    extent = int((region.sites.max(axis=0) - region.sites.min(axis=0)).max()) + 1
    step = st.sampled_from((0, 1, -1, 2, -2, extent - 1, extent, -extent, extent + 3))
    unit = (1,) + (0,) * (dim - 1)
    stencil = [v for v in ((0,) * dim, unit, (2,) + unit[1:], (1,) * dim, (1, -1) + unit[2:])
               if len(v) == dim]
    offset = draw(st.sampled_from(stencil) | st.tuples(*[step] * dim))
    indices = draw(st.lists(st.integers(0, len(region) - 1), max_size=12))
    return region, indices, offset


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shift_cases())
def test_shift_indices_matches_the_site_dict(case):
    # codes of neighbouring rows differ by one stride, so an offset that
    # leaves the bounding box through one face lands on a code inside it
    region, indices, offset = case
    index = region.site_index()
    expect = [index.get(tuple(x + v for x, v in zip(region.sites[i].tolist(), offset)), -1)
              for i in indices]
    got = region.shift_indices(np.array(indices, dtype=np.int64), offset)
    assert got.dtype == np.int64 and got.tolist() == expect


def test_region_lookup_guard_trips_before_allocating():
    # explicit regions take any sites, so their bounding box can be far
    # larger than the sites themselves
    for sites in ([(0, 0), (BOX_SITE_MAX, 0)], [(0, 0, 0), (10 ** 7, 10 ** 7, 10 ** 7)],
                  [(-2 ** 62,), (2 ** 62,)]):
        region = LatticeRegion.explicit(sites)
        cells = math.prod(b - a + 1 for a, b in zip(*sites))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceGuardError) as info:
                region.shift_indices(np.array([0, 1]), (1,) + (0,) * (len(sites[0]) - 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.reached == cells > BOX_SITE_MAX
        assert peak < 10 ** 6


def test_boundary_interval_inner_outer():
    reg = LatticeRegion.box(1, 2, 2)
    sub = [(-2,), (-1,), (0,), (1,), (2,)]
    assert boundary(reg, sub, 1, "inner") == [(-2,), (2,)]
    assert boundary(reg, sub, 1, "outer") == [(-3,), (3,)]


def test_boundary_3x3_inner_matches_exhaustive_distance_check():
    reg = LatticeRegion.box(2, 1, 1)
    sub = [tuple(s) for s in reg.sites[: reg.n_core].tolist()]
    got = boundary(reg, sub, 1, "inner")
    # oracle: sites of the box within l1 distance 1 of some site outside it
    subset = set(sub)
    expect = sorted(
        s for s in subset
        if any((s[0] + dx, s[1] + dy) not in subset
               for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)))
    )
    assert got == expect
    assert len(got) == 8  # all perimeter sites of the 3x3 box


def test_boundary_edge_cases():
    reg = LatticeRegion.box(1, 2, 1)
    assert boundary(reg, [(0,)], 0, "inner") == []
    assert boundary(reg, [], 1, "inner") == []
    with pytest.raises(PreconditionError):
        boundary(reg, [(99,)], 1, "inner")


@st.composite
def boundary_cases(draw):
    """(dim, halfwidth, subset, l, side): random subsets of small boxes."""
    dim = draw(st.integers(1, 3))
    half = draw(st.integers(0, (3, 2, 1)[dim - 1]))
    box = list(itertools.product(range(-half, half + 1), repeat=dim))
    subset = draw(st.lists(st.sampled_from(box), min_size=1, max_size=len(box), unique=True))
    return dim, half, subset, draw(st.integers(0, 3)), draw(st.sampled_from(("inner", "outer")))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(boundary_cases())
def test_boundary_matches_the_l1_distance_oracle(case):
    # graph distance on Z^d is the l1 distance.  Sites within l of the subset
    # lie in the box widened by l, and a nearest complement site of a subset
    # site lies in the box widened by 1
    dim, half, subset, l, side = case
    sub = set(subset)

    def dist(s, sites):
        return min(sum(abs(a - b) for a, b in zip(s, t)) for t in sites)

    def widened(w):
        return itertools.product(range(-half - w, half + w + 1), repeat=dim)

    if side == "outer":
        expect = sorted(s for s in widened(l) if s not in sub and dist(s, sub) <= l)
    else:
        complement = [s for s in widened(1) if s not in sub]
        expect = sorted(s for s in sub if dist(s, complement) <= l)
    assert boundary(LatticeRegion.box(dim, half), subset, l, side) == expect


def test_boundary_partition_and_disjointness():
    reg = LatticeRegion.box(2, 2, 2)
    sub = [(0, 0), (0, 1), (1, 0), (2, 0), (-2, 1)]
    inner = set(boundary(reg, sub, 1, "inner"))
    outer = set(boundary(reg, sub, 1, "outer"))
    assert inner | (set(sub) - inner) == set(sub)
    assert not inner & outer


# ---------------------------------------------------------------------------
# potential distributions


def test_distribution_validation():
    with pytest.raises(PreconditionError):
        PotentialDistribution(atoms=((0.0, 0.6),), inactive_weight=0.5)
    with pytest.raises(PreconditionError):
        PotentialDistribution(pieces=((1.0, 0.0, 1.0),))
    with pytest.raises(PreconditionError):
        PotentialDistribution(pieces=((0.0, 2.0, 0.5), (1.0, 3.0, 0.5)))


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf),
                                    (-1e308, 1e308), (math.nan, 1.0)])
def test_a_piece_needs_finite_ends_and_a_finite_width(lo, hi):
    # such a piece used to sample NaN or inf potentials, which close the site
    with pytest.raises(PreconditionError, match="needs finite lo < hi"):
        PotentialDistribution(pieces=((lo, hi, 1.0),))
    # the widest piece a float can hold still samples inside it
    wide = PotentialDistribution(pieces=((-8e307, 8e307, 1.0),))
    assert np.all(np.isfinite(wide.quantile(np.array([0.0, 0.25, 0.5, 0.9]))))


def test_distribution_derived_quantities():
    d = PotentialDistribution(atoms=((0.0, 0.2),), pieces=((-1.0, 1.0, 0.5),),
                              inactive_weight=0.3)
    assert not d.atomless_on_reals
    assert math.isclose(d.mass_in(-1.0, 1.0), 0.5 + 0.2)  # atom at 0 included
    assert math.isclose(d.mass_in(-0.5, 0.5), 0.25 + 0.2)
    assert math.isclose(d.mass_in(0.25, 1.0), 0.1875)


def test_an_atom_at_infinity_is_closed_sites():
    d = PotentialDistribution(atoms=((math.inf, 0.3), (2.0, 0.2), (-1.0, 0.0)),
                              pieces=((0.0, 1.0, 0.5),))
    assert d.finite_atoms == ((2.0, 0.2),)
    assert d.atoms_in(-math.inf, math.inf) == [(2.0, 0.2)]
    only_closed = PotentialDistribution(atoms=((math.inf, 0.4),), pieces=((0.0, 1.0, 0.6),))
    assert only_closed.atomless_on_reals


def test_distribution_json_roundtrip():
    d = PotentialDistribution(atoms=((0.0, 0.25), (2.0, 0.25)),
                              pieces=((3.0, 4.0, 0.25),), inactive_weight=0.25)
    assert PotentialDistribution.from_json_dict(json.loads(json.dumps(d.to_json_dict()))) == d


def test_quantile_segment_order():
    d = PotentialDistribution(atoms=((5.0, 0.25), (7.0, 0.25)),
                              pieces=((0.0, 1.0, 0.25),), inactive_weight=0.25)
    u = np.array([0.0, 0.24, 0.25, 0.49, 0.5, 0.625, 0.74, 0.75, 0.99])
    v = d.quantile(u)
    assert v[0] == 5.0 and v[1] == 5.0
    assert v[2] == 7.0 and v[3] == 7.0
    assert 0.0 <= v[4] < 1.0 and math.isclose(v[5], 0.5)
    assert math.isclose(v[6], 0.96)
    assert math.isinf(v[7]) and math.isinf(v[8])


@st.composite
def potential_laws(draw):
    """Laws with -0.0, +inf and zero-weight atoms, zero-weight pieces in any
    listed order, or only closed mass."""
    value = st.sampled_from([-0.0, 0.0, 1.0, math.inf]) | st.floats(-1e3, 1e3)
    weight = st.sampled_from([0.0, 0.0, 1.0]) | st.floats(0.0, 1.0)
    atom_values = draw(st.lists(value, max_size=4))
    ends = sorted(draw(st.lists(st.floats(-1e3, 1e3), max_size=6, unique=True)))
    spans = draw(st.permutations(list(zip(ends[::2], ends[1::2]))))
    spans = [(lo, hi) for lo, hi in spans if lo < hi]
    raw = draw(st.lists(weight, min_size=len(atom_values) + len(spans) + 1,
                        max_size=len(atom_values) + len(spans) + 1))
    total = sum(raw)
    if total == 0:
        return PotentialDistribution(inactive_weight=1.0)
    w = [x / total for x in raw]
    atoms = tuple(zip(atom_values, w))
    pieces = tuple((lo, hi, x) for (lo, hi), x in zip(spans, w[len(atom_values):]))
    return PotentialDistribution(atoms=atoms, pieces=pieces, inactive_weight=w[-1])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(potential_laws(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
def test_quantile_matches_the_two_branch_oracle_bit_for_bit(dist, extra):
    bounds = np.cumsum([w for _, w in dist.atoms] + [w for *_, w in dist.pieces])
    u = np.concatenate([[0.0, 1.0 - 2.0 ** -53], bounds, np.nextafter(bounds, 0.0),
                        np.nextafter(bounds, 1.0), extra])
    u = u[(u >= 0) & (u <= 1)]
    assert dist.quantile(u).tobytes() == oracle_quantile(dist, u).tobytes()
    for shaped in (u[0], u[:2].reshape(2, 1)):  # a scalar and a column keep their shapes
        got, want = dist.quantile(shaped), oracle_quantile(dist, shaped)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# sampling


def test_degenerate_distribution_all_active():
    reg = LatticeRegion.box(2, 3, 1)
    d = PotentialDistribution(atoms=((0.0, 1.0),))
    c = sample_configuration(d, reg, 123, 0)
    assert c.active_fraction == 1.0
    assert np.all(c.values == 0.0)


def test_sampling_deterministic_and_index_sensitive():
    reg = LatticeRegion.box(2, 10, 1)
    d = bernoulli_distribution(0.5)
    a = sample_configuration(d, reg, 42, 3)
    b = sample_configuration(d, reg, 42, 3)
    c = sample_configuration(d, reg, 42, 4)
    e = sample_configuration(d, reg, 43, 3)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert not np.array_equal(a.values, e.values)


def test_sampling_independent_of_region_enumeration():
    # the same site must draw the same value in different regions
    d = PotentialDistribution(atoms=((1.0, 0.3),), pieces=((2.0, 3.0, 0.3),),
                              inactive_weight=0.4)
    small = LatticeRegion.box(2, 2, 1)
    big = LatticeRegion.box(2, 5, 2)
    cs = sample_configuration(d, small, 7, 11)
    cb = sample_configuration(d, big, 7, 11)
    big_index = big.site_index()
    for s, v in zip(small.sites.tolist(), cs.values):
        w = cb.values[big_index[tuple(s)]]
        assert (math.isinf(v) and math.isinf(w)) or v == w


def test_active_fraction_converges_binomially():
    # mean active fraction over M realizations within 5 binomial stderr of p
    p = 0.5
    d = bernoulli_distribution(p)
    reg = LatticeRegion.box(2, 20, 1)
    m = 100
    fractions = [sample_configuration(d, reg, 2024, i).active_fraction
                 for i in range(m)]
    stderr = math.sqrt(p * (1 - p) / (reg.n_core * m))
    assert abs(np.mean(fractions) - p) < 5 * stderr


def test_mixed_law_sample_values_land_in_support():
    d = PotentialDistribution(atoms=((-1.0, 0.2),), pieces=((0.0, 2.0, 0.5),),
                              inactive_weight=0.3)
    reg = LatticeRegion.box(1, 500, 1)
    c = sample_configuration(d, reg, 9, 0)
    finite = c.values[np.isfinite(c.values)]
    assert np.all((finite == -1.0) | ((finite >= 0.0) & (finite <= 2.0)))
    # rough mass check, 5 sigma
    frac_atom = (finite == -1.0).mean() * c.active_fraction if len(finite) else 0
    assert abs(np.isinf(c.values[:reg.n_core]).mean() - 0.3) < 5 * math.sqrt(0.3 * 0.7 / reg.n_core)


# ---------------------------------------------------------------------------
# refusals


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: validate_kernel([((1,), 1), ((-1,), 1), ((1,), 2)]),
                 "listed twice with different coefficients", id="duplicate_offset"),
    pytest.param(lambda: validate_kernel({(1,): 1, (-1,): 1, (1, 0): 1, (-1, 0): 1}),
                 "mixed dimension", id="mixed_offset_dimension"),
    pytest.param(lambda: PotentialDistribution(atoms=((0.0, -0.5), (1.0, 1.5))),
                 "negative or NaN weight", id="negative_weight"),
    pytest.param(lambda: LatticeRegion.explicit([]), "at least one site", id="empty_explicit"),
    pytest.param(lambda: LatticeRegion.explicit([(0,), (0, 1)]), "mixed dimension",
                 id="explicit_mixed_dimension"),
    pytest.param(lambda: LatticeRegion.box(1, 2).index_of((5,)), r"\(5,\) not in region",
                 id="index_of_absent_site"),
    pytest.param(lambda: boundary(LatticeRegion.box(1, 2, 1), [(0,)], 1, "middle"),
                 "side must be inner or outer", id="boundary_side"),
    pytest.param(lambda: boundary(LatticeRegion.box(1, 2, 1), [(0,)], -1, "inner"),
                 "l must be nonnegative", id="boundary_l"),
    pytest.param(lambda: sample_configuration(bernoulli_distribution(0.5),
                                              LatticeRegion.box(1, 2), 0, -1),
                 "realization index must be nonnegative", id="negative_realization"),
])
def test_model_refuses_bad_input(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()
