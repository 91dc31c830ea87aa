"""The family's integer Farkas table (`family.joint_empty`) against the
kernel it replaces for member sets, `plus_empty` on their joint system."""

from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from polypierce import (ClaimViolation, Family, Point, Template, optimal_piercing,
                        pairwise_check)
from polypierce.family import joint_empty, joint_system
from polypierce.geometry import _check_certificate, plus_empty
from conftest import (antiparallel_families, count_calls_on, families, planted_family, shifted,
                      translate_of)


def _assert_table_matches_kernel(f: Family) -> int:
    """Compare the table with `plus_empty` on every set of 1-3 members of `f`;
    the number of empty sets."""
    empty = 0
    for k in (1, 2, 3):
        for ids in combinations(range(len(f.members)), k):
            certificate = joint_empty(f, ids)
            assert (certificate is None) == (plus_empty(joint_system(f, ids)) is None), ids
            if certificate is not None:
                empty += 1
                assert _check_certificate(certificate) is certificate
                halfplanes, weights = certificate
                assert len(halfplanes) == len(weights) in (2, 3)
                assert all(any(h is g for i in ids for g in f.member_halfplanes(i))
                           for h in halfplanes)
    return empty


@settings(max_examples=300, deadline=None)
@given(families())
def test_matches_plus_empty_on_families(f):
    _assert_table_matches_kernel(f)


@settings(max_examples=150, deadline=None)
@given(antiparallel_families())
def test_matches_plus_empty_on_antiparallel_families(f):
    _assert_table_matches_kernel(f)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([("general", 4), ("general", 5), ("theorem2", 4), ("theorem2", 5)]),
       st.integers(1, 40), st.sampled_from([F(1, 3), F(1, 2), F(1), F(2)]))
def test_matches_plus_empty_on_shifted_planted_families(config, seed, step):
    class_mode, n = config
    _assert_table_matches_kernel(shifted(planted_family(seed, class_mode, n, 8), step))


def test_shifted_planted_families_have_empty_pairs_and_triples():
    # The property above sees both kinds of empty answer on these inputs.
    f = shifted(planted_family(3, "general", 5, 8), F(1, 2))
    assert pairwise_check(f) != []
    assert any(joint_empty(f, ids) is not None and pairwise_check(f.subfamily(ids)) == []
               for ids in combinations(range(8), 3))


def test_flipped_coefficient_fails_the_certificate_check(unit_triangle):
    # The triangle x + y <= 1, x >= 0, y >= 0 is nonempty: the sum of its
    # spanning triple is 1 > 0.  With one coefficient negated the table calls
    # it empty, and the check on the offsets' Fractions refuses the answer.
    f = Family(unit_triangle, [translate_of(unit_triangle, Point(0, 0))])
    rows, pairs, triples = f._farkas_table
    assert joint_empty(f, (0,)) is None and len(triples) == 1
    i, j, k, ci, cj, ck, weights = triples[0]
    f.__dict__["_farkas_table"] = (rows, pairs, ((i, j, k, -ci, cj, ck, weights),))
    with pytest.raises(ClaimViolation) as exc:
        joint_empty(f, (0,))
    assert exc.value.claim == "farkas-certificate"


def test_one_table_per_family_and_one_per_template(monkeypatch):
    family_builds = count_calls_on(monkeypatch, Family.__dict__["_farkas_table"], "func")
    template_builds = count_calls_on(monkeypatch, Template.__dict__["_farkas_table"], "func")
    pool = planted_family(2, "theorem2", 5, 12)
    assert pairwise_check(pool) == []
    subfamilies = [pool.subfamily(range(s, s + 8)) for s in range(4)]
    for f in subfamilies:
        optimal_piercing(f)
        assert pairwise_check(f) == []
    assert len(family_builds) == 1 + len(subfamilies)
    assert len(template_builds) == 1
