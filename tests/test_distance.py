"""The closed-form complexity of undisplaced pairs is a distance on the states.

It is a geodesic distance, so it is symmetric, zero between a state and
itself, and obeys the triangle inequality.  The last compares three
closed-form values with each other, not one against a rebuild, and needs
non-vacuum references.  Each state is a passive frame O times its
canonical form: sigma = O diag(e^{2r_1}, e^{-2r_1}, ...) O^T for bosons,
and the form O e^{theta K} Omega e^{-theta K} O^T for fermions, where K
rotates one pair of modes against Omega.  A boson state's radii are at
most R with eps sinh(4 R) <= 1e-11, so the whitening of every pair (A, B)
stays inside the band eps sinh(2 (r_A + r_B)) <= 1e-11: whitening a state
by itself leaves it about 3 eps sinh(4 r_A) from itself, below 1e-10.
The fermion angles keep every pair's rotation short of the branch cut.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcomplexity import GaussianState, StateKind, standard_symplectic_form, state_complexity
from helpers import passive

BOSON, FERMION = StateKind.BOSON, StateKind.FERMION
BOSON_RADIUS = 0.25 * np.arcsinh(1e-11 / np.finfo(float).eps)
# a pair's largest rotation angle is at most 2 (theta_A + theta_B) = 2.8 < pi
FERMION_ANGLE = 0.7
ZERO = 1e-10  # the largest C between a state and itself: distances are resolved to this


def _pair_rotation(n_modes, k, theta):
    """e^{theta K} for the K that rotates modes 2k and 2k + 1 and anticommutes with Omega."""
    m = np.eye(2 * n_modes)
    a, b = 4 * k, 4 * k + 2  # Q of each mode; K takes (Q_a, P_a) to (Q_b, -P_b)
    x = np.cos(theta) * np.eye(2)
    y = np.sin(theta) * np.diag([1.0, -1.0])
    m[a : a + 2, a : a + 2], m[a : a + 2, b : b + 2] = x, y
    m[b : b + 2, a : a + 2], m[b : b + 2, b : b + 2] = -y, x
    return m


def _state(kind, n_modes, radii, rng):
    frame = passive(rng, n_modes)
    omega = standard_symplectic_form(n_modes)
    if kind is BOSON:
        squeeze = np.exp(np.repeat(radii, 2) * np.tile([2.0, -2.0], n_modes))
        return GaussianState((frame * squeeze) @ frame.T @ omega, kind)
    w = frame
    for k, theta in enumerate(radii):
        w = w @ _pair_rotation(n_modes, k, theta)
    return GaussianState(w @ omega @ w.T, kind)


@st.composite
def triples(draw):
    kind = draw(st.sampled_from([BOSON, FERMION]))
    n_modes = draw(st.integers(1, 3))
    count, bound = (n_modes, BOSON_RADIUS) if kind is BOSON else (n_modes // 2, FERMION_ANGLE)
    radius = st.floats(0.0, bound)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [
        _state(kind, n_modes, draw(st.lists(radius, min_size=count, max_size=count)), rng)
        for _ in range(3)
    ]


@settings(max_examples=300, deadline=None)
@given(triples())
def test_the_closed_form_is_a_distance(states):
    a, b, c = states
    ab, bc, ac = state_complexity(a, b), state_complexity(b, c), state_complexity(a, c)
    assert ac <= (ab + bc) * (1.0 + 1e-12) + ZERO, (ac, ab, bc)
    for x in states:
        assert state_complexity(x, x) <= ZERO
    for x, y, xy in ((a, b, ab), (b, c, bc), (a, c, ac)):
        assert state_complexity(y, x) == pytest.approx(xy, rel=1e-11, abs=1e-12)
