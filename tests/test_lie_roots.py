"""Root-system enumeration checked against closed-form counts and algebra."""

from fractions import Fraction

import pytest

from bethegauge.lie_roots import (
    expected_root_count,
    generate_roots,
    root_family,
    weight_factor,
    weyl_images,
)


COUNTS = [
    ("E", 8, 240),
    ("E", 7, 126),
    ("E", 6, 72),
    ("F", 4, 48),
]
for n in range(1, 7):
    COUNTS.append(("A", n, n * (n - 1)))
    COUNTS.append(("B", n, 2 * n * n))
    COUNTS.append(("C", n, 2 * n * n))
    COUNTS.append(("D", n, 2 * n * (n - 1)))


@pytest.mark.parametrize("family,rank,count", COUNTS)
def test_root_counts(family, rank, count):
    roots = generate_roots(family, rank)
    assert len(roots) == count
    assert expected_root_count(family, rank) == count


@pytest.mark.parametrize("family,rank", [(f, r) for f, r, _ in COUNTS])
def test_roots_distinct_and_negation_closed(family, rank):
    roots = generate_roots(family, rank)
    as_set = set(roots)
    assert len(as_set) == len(roots)
    for root in roots:
        assert tuple(-c for c in root) in as_set


def test_weight_factors_exact():
    # 4 / |alpha|^2 as exact rationals per length class
    assert {weight_factor(r) for r in generate_roots("A", 3)} == {Fraction(2)}
    assert {weight_factor(r) for r in generate_roots("B", 3)} == {Fraction(2), Fraction(4)}
    assert {weight_factor(r) for r in generate_roots("C", 3)} == {Fraction(1), Fraction(2)}
    assert {weight_factor(r) for r in generate_roots("D", 3)} == {Fraction(2)}
    assert {weight_factor(r) for r in generate_roots("E", 8)} == {Fraction(2)}
    assert {weight_factor(r) for r in generate_roots("F", 4)} == {Fraction(2), Fraction(4)}


def test_b3_short_long_split():
    roots = generate_roots("B", 3)
    short = [r for r in roots if weight_factor(r) == 4]
    long_ = [r for r in roots if weight_factor(r) == 2]
    assert len(short) == 6  # +-e_i
    assert len(long_) == 12  # +-e_i +- e_j


def test_e8_integer_half_integer_split():
    roots = generate_roots("E", 8)
    halves = [r for r in roots if any(c.denominator == 2 for c in r)]
    ints = [r for r in roots if all(c.denominator == 1 for c in r)]
    assert len(halves) == 128
    assert len(ints) == 112
    for r in halves:
        assert all(c.denominator == 2 for c in r)
        # even number of minus signs
        assert sum(1 for c in r if c < 0) % 2 == 0


def test_root_sum_is_zero():
    for family, rank in (("A", 4), ("B", 2), ("C", 3), ("D", 3), ("E", 8), ("F", 4)):
        roots = generate_roots(family, rank)
        dim = len(roots[0])
        total = [sum(r[i] for r in roots) for i in range(dim)]
        assert all(c == 0 for c in total)


def test_g_family_out_of_scope():
    with pytest.raises(ValueError):
        generate_roots("G", 2)


def test_bad_rank_rejected():
    with pytest.raises(ValueError):
        generate_roots("E", 5)
    with pytest.raises(ValueError):
        generate_roots("A", 0)


@pytest.mark.parametrize("name,rank", [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4)])
def test_root_family_reads_the_rank_a_name_carries_and_refuses_another(name, rank):
    assert root_family(name, rank) == (name[0], rank)
    with pytest.raises(ValueError, match="^%s has rank %d$" % (name, rank)):
        root_family(name, rank - 1)
    assert root_family("B", 5) == ("B", 5)


def test_weyl_images_orbit_sizes():
    orbit = weyl_images("B", 2, (0.3, 0.7))
    assert orbit.complete
    assert len(set(orbit.images)) == 8  # 2! * 2^2
    orbit = weyl_images("D", 3, (0.2, 0.5, 0.9))
    assert orbit.complete
    assert len(set(orbit.images)) == 24  # 3! * 2^2 (even flips)
    orbit = weyl_images("A", 3, (0.1, 0.2, 0.3))
    assert len(set(orbit.images)) == 6
