"""The q**n spectral kernels against the brute-force oracles.

``_subset_norms`` and ``_noise`` replace the ``2**n * q**n`` component store
in the reports and verifiers, so each is checked here against plain
enumeration: squared component norms and the noise operator as
``sum_S theta**|S| f_S``.  The same property checks the coordinate average
they share with ``conditional_expectation`` and ``delta_i``.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab import ProductMeasure, QaryFunction, conditional_expectation, delta_i, dictator
from threshold_lab.decomposition import _noise, _subset_norms, _subset_sizes

from oracles import enum_component, enum_conditional, enum_delta, point_prob, points

TOL = 1e-9


@st.composite
def cases(draw):
    """A real function (random table, constant or dictator) on ``[q]**n`` with
    ``q`` in 2..4, ``n <= 5`` and ``q**n <= 27``, under a random measure whose
    atoms are all at least 1e-3."""
    q = draw(st.integers(2, 4))
    n = draw(st.integers(1, max(k for k in range(1, 6) if q**k <= 27)))
    kind = draw(st.sampled_from(["random", "constant", "dictator"]))
    if kind == "random":
        values = draw(st.lists(st.floats(-10, 10), min_size=q**n, max_size=q**n))
        f = QaryFunction.from_table(q, n, values, codomain="real")
    elif kind == "constant":
        f = QaryFunction.from_table(q, n, [draw(st.floats(-10, 10))] * q**n, codomain="real")
    else:
        f = dictator(q, n, draw(st.integers(0, n - 1))).tabulate().as_real()
    weights = np.array(draw(st.lists(st.floats(0, 1), min_size=q, max_size=q)))
    shares = weights / weights.sum() if weights.sum() > 0 else np.full(q, 1.0 / q)
    floor = 1e-3
    return f, ProductMeasure(q, floor + (1.0 - q * floor) * shares)


def enum_components(f, mu):
    """Every component table, mask by mask, from the inclusion-exclusion oracle."""
    pts = list(points(f.q, f.n))
    return np.array([[enum_component(f, mu, mask, x) for x in pts] for mask in range(1 << f.n)])


# the component oracle costs q**n * (2q + 1)**n evaluations, hence the size bound
@settings(max_examples=30)
@given(cases(), st.floats(0.0, 1.0))
def test_subset_norms_and_noise_match_enumerated_components(case, theta):
    f, mu = case
    comps = enum_components(f, mu)
    w = np.array([point_prob(x, mu) for x in points(f.q, f.n)])
    assert np.allclose(_subset_norms(f, mu), comps**2 @ w, rtol=0.0, atol=TOL)
    expected = (theta ** _subset_sizes(f.n)) @ comps
    assert np.allclose(_noise(f, mu, theta), expected, rtol=0.0, atol=TOL)
    pts = list(points(f.q, f.n))
    for mask in range(1 << f.n):
        coords = [i for i in range(f.n) if mask >> i & 1]
        expected = [enum_conditional(f, mu, coords, x) for x in pts]
        assert np.allclose(conditional_expectation(f, mu, coords).table, expected, rtol=0.0, atol=TOL)
    for i in range(f.n):
        expected = [enum_delta(f, mu, i, x) for x in pts]
        assert np.allclose(delta_i(f, mu, i).table, expected, rtol=0.0, atol=TOL)


def test_subset_norms_are_in_mask_order():
    # f(x) = x_0 * (x_2 == 1) on [3]**3: all mass on {0}, {2} and {0, 2}
    pts = list(itertools.product(range(3), repeat=3))
    f = QaryFunction.from_table(3, 3, [x[0] * (x[2] == 1) for x in pts], codomain="real")
    norms = _subset_norms(f, ProductMeasure.uniform(3))
    assert set(np.flatnonzero(norms > 1e-12)) == {0, 0b001, 0b100, 0b101}


def test_subset_sizes_are_popcounts():
    for n in range(0, 13):
        assert _subset_sizes(n).tolist() == [mask.bit_count() for mask in range(1 << n)]
