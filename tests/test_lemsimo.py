"""End-to-end normal-form pipeline: targets, splittings, companion, solve."""

import functools
import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

import mukailat
from mukailat.intmat import mat, mat_mul, mat_vec, transpose, det
from mukailat.discriminant import NotFound
from mukailat.isometries import Isometry, ori_char, reflection
from mukailat.kernels import vectors_with_square
from mukailat.lattices import IntegerLattice
from mukailat.lemsimo import (LemsimoProblem, LemsimoSolution, solve,
                              build_targets, target_betas, TargetsNotIntegral,
                              split_off_U, iter_splits, AMBIENT, U3_DATUM,
                              F_VEC, _reduce_gram2, _match_gram2,
                              _gram2_autos, _block_iso_search,
                              _integral_reflections)
from mukailat.verify import sample_admissible_pair


FIXTURE = dict(k=3, xi1=(1, 2, 0, 0, 0, 0), xi2=(0, 0, 1, 2, 0, 0))


def test_problem_validation():
    with pytest.raises(ValueError):
        LemsimoProblem(2, (1, 2, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0))
    with pytest.raises(ValueError):
        LemsimoProblem(3, (2, 2, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0))  # imprimitive
    with pytest.raises(ValueError):
        LemsimoProblem(3, (1, 3, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0))  # wrong square
    with pytest.raises(ValueError):
        LemsimoProblem(3, (1, 2, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0))  # same vector


def test_target_betas_squares():
    for k in (3, 4, 5):
        for l in (-1, 0, 1, 5):
            b1, b2 = target_betas(k, l)
            t1 = tuple(b - f for b, f in zip(b1, F_VEC))
            t2 = tuple(b - f for b, f in zip(b2, F_VEC))
            assert AMBIENT.norm(t1) == 2 * k - 2
            assert AMBIENT.norm(t2) == 2 * k - 2
            assert AMBIENT.inner(t1, t2) == l


def test_build_targets_maps_inputs():
    prob = LemsimoProblem(**FIXTURE)
    beta1, beta2, phi = build_targets(prob)
    s1 = phi.source
    for xi, beta in ((prob.xi1, beta1), (prob.xi2, beta2)):
        src = tuple(int(c) for c in s1.from_ambient(xi))
        want = tuple(b - f for b, f in zip(beta, F_VEC))
        assert phi.target.to_ambient(phi.apply(src)) == want


def test_non_pair_primitive_span_is_rejected():
    # both vectors are primitive with square 4, but their span has index 2
    # in its saturation, which makes the prescribed images non-integral
    xi1 = (1, 2, 0, 0, 0, 0)
    xi2 = (-1, 2, 2, 2, 0, 0)
    assert AMBIENT.norm(xi1) == 4 and AMBIENT.norm(xi2) == 4
    span = AMBIENT.span((xi1, xi2))
    assert not AMBIENT.is_primitive(span)
    prob = LemsimoProblem(3, xi1, xi2)
    with pytest.raises(TargetsNotIntegral):
        build_targets(prob)
    with pytest.raises(TargetsNotIntegral):
        solve(prob)


def test_reduce_gram2_is_congruent_and_small():
    cases = (((2, 1), (1, -104)), ((-9320, -12692), (-12692, -17284)),
             ((10, -3), (-3, -20)), ((0, 3), (3, 0)), ((2, 0), (0, 2)))
    for g in cases:
        gr, p = _reduce_gram2(mat(g))
        assert det(p) in (1, -1)
        assert mat_mul(mat_mul(transpose(p), mat(g)), p) == gr
        if g[0][0] or g[1][1]:
            assert abs(gr[0][0]) <= max(abs(g[0][0]), abs(g[1][1]))


def test_match_gram2_finds_congruence():
    g = ((2, 1), (1, -10))
    p0 = ((1, 1), (0, 1))
    target = mat_mul(mat_mul(transpose(p0), mat(g)), p0)
    p = _match_gram2(mat(g), target, 5)
    assert p is not None
    assert mat_mul(mat_mul(transpose(p), mat(g)), p) == target


def test_gram2_autos_contains_signs():
    g = ((-4, 0), (0, -4))
    autos = _gram2_autos(mat(g), 3)
    assert ((1, 0), (0, 1)) in autos
    assert ((-1, 0), (0, -1)) in autos
    assert ((1, 0), (0, -1)) in autos
    assert ((0, 1), (1, 0)) in autos


def test_block_iso_search_identity_and_conjugate():
    g = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 2, 1), (0, 0, 1, -104))
    assert _block_iso_search(g, g, 3) is not None
    p = ((1, 0, 1, 0), (2, 1, 0, 0), (0, 1, 1, 1), (1, 0, 0, 1))
    gconj = mat_mul(mat_mul(transpose(p), mat(g)), p)
    m = _block_iso_search(gconj, g, 6)
    assert m is not None
    assert mat_mul(mat_mul(transpose(m), mat(g)), m) == mat(gconj)


def test_split_off_U_produces_unimodular_change():
    prob = LemsimoProblem(**FIXTURE)
    _, _, phi = build_targets(prob)
    k1 = AMBIENT.orth_complement(phi.source)
    split = split_off_U(k1, 10)
    bg = split.block.gram
    assert bg[0][0] == 0 and bg[1][1] == 0 and bg[0][1] == 1
    assert abs(det(split.to_block.matrix)) == 1
    # several inequivalent splittings can exist
    assert len(list(iter_splits(k1, 10))) >= 1


def test_solve_fixture():
    sol = solve(LemsimoProblem(**FIXTURE))
    assert isinstance(sol, LemsimoSolution)
    g = sol.g
    assert g.det() == 1
    assert ori_char(g, U3_DATUM) == 0
    for xi, beta in ((FIXTURE["xi1"], sol.beta1), (FIXTURE["xi2"], sol.beta2)):
        want = tuple(b - f for b, f in zip(beta, F_VEC))
        assert g.apply(xi) == want
    stages = [s["stage"] for s in sol.trace]
    assert stages[0] == "targets" and stages[-1] == "done"


def test_solve_random_admissible_pairs():
    rng = random.Random(20240817)
    for k in (3, 4):
        for _ in range(3):
            xi1, xi2 = sample_admissible_pair(rng, k)
            sol = solve(LemsimoProblem(k, xi1, xi2, bound=10))
            assert sol.g.det() == 1
            assert ori_char(sol.g, U3_DATUM) == 0


def test_bound_zero_reports_not_found():
    prob = LemsimoProblem(FIXTURE["k"], FIXTURE["xi1"], FIXTURE["xi2"],
                          bound=0)
    with pytest.raises(NotFound) as exc:
        solve(prob)
    assert exc.value.bound == 0
    assert exc.value.stage.startswith("companion")


def _reference_integral_reflections(K, radius):
    """The former pure-Python enumeration of integral reflections, kept as a
    reference for the box-based one."""
    out = []
    n = K.rank
    for u in itertools.product(range(-radius, radius + 1), repeat=n):
        if not any(u):
            continue
        sq = K.norm(u)
        if sq == 0:
            continue
        gu = mat_vec(K.gram, u)
        if any((2 * c) % sq != 0 for c in gu):
            continue
        cols = []
        for j in range(n):
            coef = 2 * gu[j] // sq
            cols.append(tuple((1 if i == j else 0) - coef * u[i]
                              for i in range(n)))
        out.append(Isometry(K, K, transpose(cols)))
    return out


@functools.lru_cache(maxsize=None)
def _split_blocks():
    """U+W block grams of the splittings of a few pipeline complements."""
    rng = random.Random(5)
    blocks = []
    for k in (3, 4, 5):
        xi1, xi2 = sample_admissible_pair(rng, k)
        _, _, phi = build_targets(LemsimoProblem(k, xi1, xi2))
        k1 = AMBIENT.orth_complement(phi.source)
        blocks += [s.block.gram for s in itertools.islice(iter_splits(k1, 4),
                                                          3)]
    return tuple(blocks)


@st.composite
def small_even_grams(draw):
    """Symmetric, even, nondegenerate rank-4 grams with small entries."""
    g = [[0] * 4 for _ in range(4)]
    for i in range(4):
        g[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i + 1, 4):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    gram = mat(g)
    assume(det(gram) != 0)
    return gram


@settings(max_examples=40, deadline=None)
@given(data=st.data(), radius=st.integers(1, 3))
def test_integral_reflections_match_reference(data, radius):
    gram = data.draw(st.one_of(small_even_grams(),
                               st.sampled_from(_split_blocks())))
    K = IntegerLattice(gram)
    got = _integral_reflections(K, radius)
    ref = _reference_integral_reflections(K, radius)
    assert sorted(r.matrix for r in got) == sorted(r.matrix for r in ref)
    first = [reflection(K, u) for sq in (2, -2)
             for u in vectors_with_square(K.gram, radius, sq)]
    assert got[:len(first)] == first


def test_solve_raises_when_a_correction_fails_under_optimize():
    """The self-checks of solve are exceptions, so python -O keeps them: a
    determinant correction that fixes nothing must raise, not return an
    answer of determinant -1."""
    stages = [s["stage"] for s in solve(LemsimoProblem(**FIXTURE)).trace]
    assert "det-fix" in stages
    script = """
import mukailat.lemsimo as lm
from mukailat.isometries import identity_isometry
lm._swap_iso = identity_isometry
try:
    sol = lm.solve(lm.LemsimoProblem(**%r))
except RuntimeError as exc:
    print("RuntimeError", exc)
else:
    print("returned det", sol.g.det())
""" % (FIXTURE,)
    src = os.path.dirname(os.path.dirname(os.path.abspath(mukailat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.startswith("RuntimeError"), out.stdout
