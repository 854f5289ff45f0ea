"""Special functions against frozen high-precision references.

Reference values were produced once with mpmath at 30 significant digits
and frozen here; mpmath itself is only used for a couple of live
spot checks so the suite stays meaningful without it.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bethegauge.specfun import (
    BracketContext,
    SingularPointError,
    bracket,
    dilog,
    dilog_exp_derivative,
    dilog_factorization_residual,
    dilog_grad_check,
    dilog_qpoch_link,
    qpoch,
    qpoch_terms_for,
)


# mpmath.polylog(2, z), dps=30
DILOG_REFERENCES = [
    ((0.5 + 0j), complex(0.58224052646501251, 0.0)),
    ((-0.5 + 0j), complex(-0.4484142069236462, 0.0)),
    ((0.3 + 0.4j), complex(0.26659686674274042, 0.46136289181910899)),
    ((-1.2 + 0.7j), complex(-0.99763925792564034, 0.4539290196093633)),
    (0.9j, complex(-0.1717794378658015, 0.83598828572550505)),
    ((2.5 - 1j), complex(1.3042589918770261, -2.9032643754077257)),
    ((-3 + 0j), complex(-1.939375420766709, 0.0)),
    ((-0.4947491825078604 + 0.8459451793158962j),
     complex(-0.54020974668689532, 0.6630814418860953)),
]


def test_dilog_classical_values():
    assert abs(dilog(0.0)) == 0.0
    assert abs(dilog(1.0) - math.pi ** 2 / 6) <= 1e-12
    assert abs(dilog(-1.0) + math.pi ** 2 / 12) <= 1e-12
    # Landen value at 1/2
    ref = math.pi ** 2 / 12 - math.log(2) ** 2 / 2
    assert abs(dilog(0.5) - ref) <= 1e-14


@pytest.mark.parametrize("z,ref", DILOG_REFERENCES)
def test_dilog_frozen_references(z, ref):
    assert abs(dilog(z) - ref) <= 5e-14


def test_dilog_against_mpmath_live():
    mp = pytest.importorskip("mpmath")
    for z in (0.77 * cmath.exp(1.3j), -4.2 + 0.3j, 0.999):
        ref = complex(mp.polylog(2, mp.mpc(z)))
        assert abs(dilog(z) - ref) <= 1e-12


def test_derivative_identity():
    # exp(d/dx Li2(e^x)) * (1 - e^x) = 1
    for x in (0.2 + 0.3j, -0.4 + 1.1j, 1j * math.pi / 3):
        ana = dilog_exp_derivative(x)
        assert abs(cmath.exp(ana) * (1 - cmath.exp(x)) - 1) <= 1e-12
    assert abs(dilog_exp_derivative(1j * math.pi) - (-math.log(2))) <= 1e-12


def test_grad_check_agreement():
    ana, fd = dilog_grad_check(0.2 + 0.3j, h=1e-5)
    assert abs(ana - fd) <= 1e-8


def test_grad_check_rejects_bad_step():
    with pytest.raises(ValueError):
        dilog_grad_check(0.2 + 0.3j, h=1e-2)
    with pytest.raises(ValueError):
        dilog_grad_check(0.2 + 0.3j, h=1e-9)


def test_grad_check_rejects_singular_point():
    with pytest.raises(ValueError):
        dilog_grad_check(0.0)


def test_factorization_identity():
    # Li2(z^r) = r * sum_j Li2(w^j z)
    z = cmath.exp(0.3j)
    lhs = dilog(cmath.exp(0.6j))
    rhs = 2 * (dilog(z) + dilog(-z))
    assert abs(lhs - rhs) <= 1e-12
    for r in (2, 3, 4):
        for x in (-0.3 + 1.7j, -1.1 - 0.4j, math.log(0.9)):
            assert dilog_factorization_residual(cmath.exp(x), r) <= 1e-10


def test_bracket_values():
    ctx = BracketContext(0.31)
    assert abs(bracket(0.31, ctx) - 1.0) <= 1e-15
    assert abs(bracket(0.0, ctx)) == 0.0
    assert abs(bracket(1.31, ctx) + 1.0) <= 1e-12


def test_bracket_context_rejects_integer_eta():
    with pytest.raises(ValueError):
        BracketContext(1.0)
    with pytest.raises(ValueError):
        BracketContext(0.0)


def test_qpoch_truncations_agree():
    a = qpoch(0.5, 0.9, 400)
    b = qpoch(0.5, 0.9, 800)
    assert abs(a.value - b.value) <= 1e-15
    assert a.tail_bound >= abs(a.value - b.value)
    assert qpoch(0.3, 0.5, 1).value == 1 - 0.3
    assert qpoch(0.0, 0.5, 100).value == 1.0


def test_qpoch_rejects_bad_q():
    with pytest.raises(ValueError):
        qpoch(0.5, 1.1, 10)


def test_qpoch_terms_for_bound():
    k = qpoch_terms_for(0.5, 0.9, 1e-12)
    assert qpoch(0.5, 0.9, k).tail_bound <= 1e-12


def test_qpoch_dilog_link_monotone():
    rels = []
    for beta2 in (1e-1, 1e-2, 1e-3):
        _, _, rel = dilog_qpoch_link(cmath.exp(0.4j), beta2)
        rels.append(rel)
    assert rels[0] > rels[1] > rels[2]
    assert rels[-1] <= 5e-3


def test_singular_point_error_is_value_error():
    assert issubclass(SingularPointError, ValueError)


# ---------------------------------------------------------------------------
# properties of the array dilog
# ---------------------------------------------------------------------------

_OFFSETS = (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6)


@st.composite
def _near_a_region_boundary(draw):
    """A point on or within 1e-6 of |z| = 1/2, |z| = 1, Re z = 1/2 or |z|^2 = 2 Re z."""
    theta = draw(st.floats(-math.pi, math.pi))
    radius = 1.0 + draw(st.sampled_from(_OFFSETS))
    boundary = draw(st.sampled_from(["power", "unit", "half", "reflection"]))
    if boundary == "power":
        z = 0.5 * radius * cmath.exp(1j * theta)
    elif boundary == "unit":
        z = radius * cmath.exp(1j * theta)
    elif boundary == "half":
        z = complex(0.5 * radius, draw(st.floats(-3.0, 3.0)))
    else:
        z = 1.0 + radius * cmath.exp(1j * theta)
    assume(not (z.imag == 0.0 and z.real > 1.0))
    return z


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(_near_a_region_boundary(), min_size=1, max_size=8))
def test_array_dilog_is_its_one_element_calls_and_matches_mpmath(points):
    mp = pytest.importorskip("mpmath")
    values = dilog(np.array(points))
    assert values.shape == (len(points),)
    for z, value in zip(points, values):
        single = dilog(z)
        assert isinstance(single, complex)
        # an array and one element may take different numpy loops: allow a few ulps
        assert abs(value - single) <= 4 * np.finfo(float).eps * max(1.0, abs(single))
        assert abs(single - complex(mp.polylog(2, mp.mpc(z)))) <= 1e-12


_annulus = st.builds(lambda r, t: r * cmath.exp(1j * t),
                     st.floats(0.1, 10.0), st.floats(-math.pi, math.pi))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_annulus)
def test_dilog_reflection_and_inversion_identities(z):
    assume(abs(z.imag) > 1e-3)  # off the cuts of log z, log(1-z) and log(-z)
    reflection = dilog(z) + dilog(1 - z) - (math.pi ** 2 / 6 - cmath.log(z) * cmath.log(1 - z))
    inversion = dilog(z) + dilog(1 / z) - (-math.pi ** 2 / 6 - 0.5 * cmath.log(-z) ** 2)
    assert abs(reflection) <= 1e-12
    assert abs(inversion) <= 1e-12


def test_array_dilog_keeps_shape_and_guards():
    z = np.array([[0.0, 1.0], [-1.0, 0.5]])
    values = dilog(z)
    assert values.shape == (2, 2)
    assert values[0, 0] == 0 and values[0, 1] == math.pi ** 2 / 6
    assert abs(values[1, 0] + math.pi ** 2 / 12) <= 1e-15
    with pytest.raises(ValueError, match="branch cut"):
        dilog(np.array([0.3, 2.0]))
