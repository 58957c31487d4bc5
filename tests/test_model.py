"""Geometry, kernels, potential laws, sampling."""

import json
import math

import numpy as np
import pytest

from perclab import (LatticeRegion, PotentialDistribution,
                     adjacency_kernel, bernoulli_distribution, boundary,
                     sample_configuration, validate_kernel)
from perclab.errors import PreconditionError


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


def test_distribution_derived_quantities():
    d = PotentialDistribution(atoms=((0.0, 0.2),), pieces=((-1.0, 1.0, 0.5),),
                              inactive_weight=0.3)
    assert math.isclose(d.p_active, 0.7)
    assert math.isclose(d.density_sup, 0.25)
    assert d.has_finite_atoms and not d.atomless_on_reals
    assert math.isclose(d.mass_in(-1.0, 1.0), 0.5 + 0.2)  # atom at 0 included
    assert math.isclose(d.mass_in(-0.5, 0.5), 0.25 + 0.2)
    assert math.isclose(d.mass_in(0.25, 1.0), 0.1875)
    assert math.isclose(d.max_abs_finite(), 1.0)


def test_distribution_json_roundtrip():
    d = PotentialDistribution(atoms=((0.0, 0.25), (2.0, 0.25)),
                              pieces=((3.0, 4.0, 0.25),), inactive_weight=0.25)
    assert PotentialDistribution.from_json(json.dumps(d.to_json_dict())) == d


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
