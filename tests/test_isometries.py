"""Isometries, reflections, and the determinant / orientation characters."""

import random
from fractions import Fraction

import pytest

from mukailat.intmat import inv_rational, mat_mul
from mukailat.kernels import vectors_with_square
from mukailat.lattices import (hyperbolic_plane, hyperbolic_sum, direct_sum,
                               rank_one)
from mukailat.isometries import (Isometry, IsometryError, OrientationDatum,
                                 identity_isometry, minus_identity,
                                 positive_frame, det_char, ori_char,
                                 gram_of_columns, reflection,
                                 minus_reflection)


def _u3_minus():
    return direct_sum(hyperbolic_sum(3), rank_one(-6))


def test_constructor_rejects_non_isometry():
    u = hyperbolic_plane()
    with pytest.raises(IsometryError):
        Isometry(u, u, ((1, 0), (1, 1)))


def test_compose_inverse_power():
    u = hyperbolic_plane()
    swap = Isometry(u, u, ((0, 1), (1, 0)))
    assert swap.compose(swap).is_identity()
    assert (swap @ swap).is_identity()
    assert swap.inverse().matrix == swap.matrix
    assert swap.power(3).matrix == swap.matrix
    assert swap.power(0).is_identity()
    assert swap.power(-1).matrix == swap.matrix


def test_det_char_values():
    u = hyperbolic_plane()
    assert det_char(identity_isometry(u)) == 0
    assert det_char(Isometry(u, u, ((0, 1), (1, 0)))) == 1
    assert det_char(minus_identity(u)) == 0


def test_reflection_involution_and_fixed_space():
    lat = _u3_minus()
    u = (1, 1, 0, 0, 0, 0, 0)   # square 2
    r = reflection(lat, u)
    assert r.compose(r).is_identity()
    assert r.apply(u) == tuple(-c for c in u)
    w = (0, 0, 1, 0, 0, 0, 0)
    assert lat.inner(u, w) == 0 and r.apply(w) == w


def test_reflection_requires_square_pm2():
    lat = _u3_minus()
    with pytest.raises(IsometryError):
        reflection(lat, (1, 2, 0, 0, 0, 0, 0))  # square 4


def test_minus_reflection_signs():
    lat = _u3_minus()
    upos = (1, 1, 0, 0, 0, 0, 0)   # square 2
    uneg = (1, -1, 0, 0, 0, 0, 0)  # square -2
    assert minus_reflection(lat, uneg).matrix == reflection(lat, uneg).matrix
    rp = minus_reflection(lat, upos)
    assert rp.matrix == tuple(tuple(-x for x in row)
                              for row in reflection(lat, upos).matrix)


def test_ori_char_on_signed_reflections():
    lat = _u3_minus()
    datum = OrientationDatum(lat, ((1, 1, 0, 0, 0, 0, 0),
                                   (0, 0, 1, 1, 0, 0, 0),
                                   (0, 0, 0, 0, 1, 1, 0)))
    # reflection in a negative vector preserves the positive part
    assert ori_char(reflection(lat, (1, -1, 0, 0, 0, 0, 0)), datum) == 0
    # reflection in a positive vector reverses it
    assert ori_char(reflection(lat, (1, 1, 0, 0, 0, 0, 0)), datum) == 1
    # minus the identity reverses an odd-dimensional positive part
    assert ori_char(minus_identity(lat), datum) == 1


def test_positive_frame_dimension_and_agreement():
    lat = _u3_minus()
    frame = positive_frame(lat)
    assert len(frame.columns) == 3
    datum = OrientationDatum(lat, ((1, 1, 0, 0, 0, 0, 0),
                                   (0, 0, 1, 1, 0, 0, 0),
                                   (0, 0, 0, 0, 1, 1, 0)))
    for u in ((1, 1, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0, 0),
              (0, 0, 1, -1, 0, 0, 0)):
        r = reflection(lat, u)
        assert ori_char(r, frame) == ori_char(r, datum)


def test_orientation_datum_validation():
    lat = _u3_minus()
    with pytest.raises(IsometryError):
        OrientationDatum(lat, ((1, -1, 0, 0, 0, 0, 0),))  # negative square
    with pytest.raises(IsometryError):
        OrientationDatum(lat, ((1, 1, 0, 0, 0, 0, 0),))   # wrong dimension


def test_isometry_json_roundtrip():
    u = hyperbolic_plane()
    swap = Isometry(u, u, ((0, 1), (1, 0)))
    back = Isometry.from_json(swap.to_json())
    assert back.matrix == swap.matrix
    assert back.source.gram == u.gram


def _fraction_det(a):
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d


def _reference_ori_char(g, lat, cols):
    """The former formula: the sign of det(gp^-1 * rhs) over Q, with the
    datum columns taken as given (rational entries allowed)."""
    gp = gram_of_columns(lat, cols)
    rhs = tuple(tuple(lat.inner(u, g.apply(v)) for v in cols) for u in cols)
    d = _fraction_det(mat_mul(inv_rational(gp), rhs))
    assert d != 0
    return 0 if d > 0 else 1


def test_ori_char_matches_rational_reference():
    fixed = ((1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0),
             (0, 0, 0, 0, 1, 1, 0))
    rng = random.Random(11)
    for k in (2, 3, 5, 6):
        lat = direct_sum(hyperbolic_sum(3), rank_one(-2 * k))
        frame = positive_frame(lat)
        assert all(isinstance(x, int) for col in frame.columns for x in col)
        # positive rational multiples of the frame columns
        scaled = tuple(tuple(Fraction(x, d) for x in col)
                       for col, d in zip(frame.columns, (2, 3, 7)))
        data = ((OrientationDatum(lat, fixed), fixed),
                (frame, frame.columns),
                (OrientationDatum(lat, scaled), scaled))
        roots = (vectors_with_square(lat.gram, 1, 2)
                 + vectors_with_square(lat.gram, 1, -2))
        for _ in range(6):
            g = identity_isometry(lat)
            for u in rng.sample(roots, rng.randint(1, 4)):
                g = reflection(lat, u).compose(g)
            for datum, cols in data:
                assert ori_char(g, datum) == _reference_ori_char(g, lat, cols)
