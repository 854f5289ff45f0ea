"""Exact root-system data for the gauge-theory families A, B, C, D, E6/E7/E8, F4.

All roots are represented as tuples of exact rational coordinates so that
counting, length and inner-product checks are free of floating-point noise.
The A family uses the U(N) convention (roots e_i - e_j in N coordinates,
no tracelessness reduction), which is the convention the vacuum equations
are written in.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import combinations, permutations, product
from typing import Iterable, List, NamedTuple, Sequence, Tuple

Vector = Tuple[Q, ...]

FAMILIES = ("A", "B", "C", "D", "E", "F")

#: rank constraints for the exceptional families
_EXCEPTIONAL_RANKS = {"E": (6, 7, 8), "F": (4,)}


def _as_vector(coords: Iterable) -> Vector:
    return tuple(Q(c) for c in coords)


def dot(u: Sequence[Q], v: Sequence[Q]) -> Q:
    """Exact inner product of two coordinate vectors."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch: %d vs %d" % (len(u), len(v)))
    return sum((a * b for a, b in zip(u, v)), Q(0))


def length_sq(root: Sequence[Q]) -> Q:
    """Exact squared length |alpha|^2."""
    return dot(root, root)


def _known_family(family: str) -> None:
    """Refuse a family outside :data:`FAMILIES`; the G family is out of scope."""
    if family not in FAMILIES:
        raise ValueError("G-type root systems are out of scope" if family == "G"
                         else "unknown family %r" % (family,))


def weight_factor(root: Sequence[Q]) -> Q:
    """The per-root normalization 4/|alpha|^2, as an exact rational."""
    ls = length_sq(root)
    if ls == 0:
        raise ValueError("zero vector has no weight factor")
    return Q(4) / ls


def _roots_a(n: int) -> List[Vector]:
    # e_i - e_j for all i != j, in n coordinates (U(n) convention)
    roots = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            v = [Q(0)] * n
            v[i] = Q(1)
            v[j] = Q(-1)
            roots.append(tuple(v))
    return roots


def _pair_roots(n: int) -> List[Vector]:
    # +-e_i +- e_j for i < j: the common long/short doubletons of B/C/D
    roots = []
    for i, j in combinations(range(n), 2):
        for si, sj in product((1, -1), repeat=2):
            v = [Q(0)] * n
            v[i] = Q(si)
            v[j] = Q(sj)
            roots.append(tuple(v))
    return roots


def _axis_roots(n: int, scale: int) -> List[Vector]:
    roots = []
    for i in range(n):
        for s in (1, -1):
            v = [Q(0)] * n
            v[i] = Q(s * scale)
            roots.append(tuple(v))
    return roots


def _roots_e8() -> List[Vector]:
    roots = list(_pair_roots(8))
    # half-integer roots: all coordinates +-1/2 with an even number of minus signs
    for signs in product((1, -1), repeat=8):
        if signs.count(-1) % 2 != 0:
            continue
        roots.append(tuple(Q(s, 2) for s in signs))
    return roots


def _roots_e7() -> List[Vector]:
    # corank-1 cut of E8: roots orthogonal to e_7 + e_8
    probe = _as_vector([0, 0, 0, 0, 0, 0, 1, 1])
    return [r for r in _roots_e8() if dot(r, probe) == 0]


def _roots_e6() -> List[Vector]:
    # corank-2 cut of E8: orthogonal to both e_6 + e_8 and e_7 + e_8
    p1 = _as_vector([0, 0, 0, 0, 0, 1, 0, 1])
    p2 = _as_vector([0, 0, 0, 0, 0, 0, 1, 1])
    return [r for r in _roots_e8() if dot(r, p1) == 0 and dot(r, p2) == 0]


def _roots_f4() -> List[Vector]:
    roots = _axis_roots(4, 1) + _pair_roots(4)
    for signs in product((1, -1), repeat=4):
        roots.append(tuple(Q(s, 2) for s in signs))
    return roots


def generate_roots(family: str, rank: int) -> List[Vector]:
    """All roots of the family at the given rank, sorted deterministically.

    Raises ValueError for unsupported (family, rank) combinations; the G
    family is explicitly out of scope.
    """
    _known_family(family)
    if family in _EXCEPTIONAL_RANKS:
        if rank not in _EXCEPTIONAL_RANKS[family]:
            raise ValueError("rank %d not supported for family %s" % (rank, family))
    elif rank < 1:
        raise ValueError("rank must be >= 1")

    if family == "A":
        roots = _roots_a(rank)
    elif family == "B":
        roots = _pair_roots(rank) + _axis_roots(rank, 1)
    elif family == "C":
        roots = _pair_roots(rank) + _axis_roots(rank, 2)
    elif family == "D":
        roots = _pair_roots(rank)
    elif family == "F":
        roots = _roots_f4()
    elif rank == 8:
        roots = _roots_e8()
    elif rank == 7:
        roots = _roots_e7()
    else:
        roots = _roots_e6()
    return sorted(roots)


def root_family(name: str, rank: int) -> Tuple[str, int]:
    """(family, rank) behind a family name: "E6".."E8" and "F4" carry their rank,
    and a different ``rank`` is refused."""
    if len(name) == 2 and name[0] in _EXCEPTIONAL_RANKS:
        if rank != int(name[1]):
            raise ValueError("%s has rank %s" % (name, name[1]))
        return name[0], int(name[1])
    return name, rank


def expected_root_count(family: str, rank: int) -> int:
    """Closed-form root count used as the library-level cross check."""
    if family == "A":
        return rank * (rank - 1)
    if family in ("B", "C"):
        return 2 * rank * rank
    if family == "D":
        return 2 * rank * (rank - 1)
    if family == "E":
        return {6: 72, 7: 126, 8: 240}[rank]
    if family == "F":
        return 48
    raise ValueError("unknown family %r" % (family,))


class WeylOrbit(NamedTuple):
    images: List[Tuple[float, ...]]
    complete: bool


def weyl_images(family: str, rank: int, point: Sequence[float]) -> WeylOrbit:
    """Orbit of a point under the Weyl group acting on coordinates.

    A: permutations.  B/C: permutations with independent sign flips.
    D: permutations with an even number of sign flips.  For E and F only
    the permutation subgroup is generated and the orbit is flagged as
    incomplete.
    """
    _known_family(family)
    pt = tuple(point)
    if len(pt) != rank:
        raise ValueError("point has %d coordinates, expected %d" % (len(pt), rank))

    complete = family in ("A", "B", "C", "D")
    images = set()
    for perm in permutations(pt):
        if family == "A" or not complete:
            images.add(perm)
            continue
        for signs in product((1, -1), repeat=rank):
            if family == "D" and signs.count(-1) % 2 != 0:
                continue
            images.add(tuple(s * x for s, x in zip(signs, perm)))
    return WeylOrbit(images=sorted(images), complete=complete)
