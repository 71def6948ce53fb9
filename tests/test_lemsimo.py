"""End-to-end normal-form pipeline: targets, splittings, companion, solve."""

import collections.abc
import functools
import hashlib
import importlib.util
import inspect
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import mukailat
from mukailat.intmat import (mat, mat_mul, mat_vec, transpose, det, row_basis,
                             kernel_int, identity, solve_rational, block_diag)
from mukailat import kernels
from mukailat.discriminant import (DiscriminantData, NotFound, glue, disc_map,
                                   extend_isometry, identity_disc_map)
from mukailat.isometries import (Isometry, ori_char, minus_identity,
                                 identity_isometry, reflect,
                                 reflection_matrix)
from mukailat.kernels import isotropic_vectors, integral_reflections
from mukailat.lattices import IntegerLattice, LatticeError
import mukailat.lemsimo as lemsimo
from mukailat.lemsimo import (LemsimoProblem, LemsimoSolution, solve,
                              build_targets, target_betas, targets,
                              TargetsNotIntegral, split_off_U, iter_splits,
                              AMBIENT, F_VEC, MAX_SPLITS,
                              _reduce_gram2, _gram2_maps)
from mukailat.verify import sample_admissible_pair, _sample_lemsimo_xi


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


def test_problem_keeps_tuples():
    """A list equal to a tuple is the same vector: the list xi1 below passed
    the "xi2 must differ from +-xi1" check and the solve failed later."""
    with pytest.raises(ValueError, match="must differ"):
        LemsimoProblem(3, [1, 2, 0, 0, 0, 0], (1, 2, 0, 0, 0, 0))
    prob = LemsimoProblem(3, [1, 2, 0, 0, 0, 0], [0, 0, 1, 2, 0, 0])
    assert prob == LemsimoProblem(**FIXTURE)
    assert type(prob.xi1) is tuple and type(prob.xi2) is tuple


def test_target_betas_squares():
    for k in (3, 4, 5):
        for l in (-1, 0, 1, 5):
            t1, t2 = targets(*target_betas(k, l))
            assert AMBIENT.norm(t1) == 2 * k - 2
            assert AMBIENT.norm(t2) == 2 * k - 2
            assert AMBIENT.inner(t1, t2) == l


def test_build_targets_maps_inputs():
    prob = LemsimoProblem(**FIXTURE)
    beta1, beta2, phi = build_targets(prob)
    s1 = phi.source
    for xi, want in zip((prob.xi1, prob.xi2), targets(beta1, beta2)):
        src = s1.from_ambient(xi)
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


def test_build_targets_keeps_the_given_bases(monkeypatch):
    """S1 has the basis (xi1, xi2) and S2 the basis (t1, t2), so phi is the
    identity matrix; nothing is saturated and nothing is solved over Q."""
    def refuse(*args, **kwargs):
        raise AssertionError("build_targets saturates or solves")

    monkeypatch.setattr(IntegerLattice, "saturate", refuse)
    monkeypatch.setattr(lemsimo, "solve_rational", refuse)
    prob = LemsimoProblem(**FIXTURE)
    beta1, beta2, phi = build_targets(prob)
    assert phi.matrix == identity(2)
    assert phi.source.embedding.basis == (prob.xi1, prob.xi2)
    assert phi.target.embedding.basis == targets(beta1, beta2)
    assert phi.target.embedding.basis == ((0, -1, 1, 2, 0, 0),
                                          (0, -1, 0, 0, 2, 1))


def _reference_build_targets(problem):
    """The former construction, kept as a reference: saturate the span of
    the inputs, solve for each saturated basis vector over Fraction, reject
    denominators, and read the images in the HNF basis of their span."""
    beta1, beta2 = target_betas(problem.k, problem.l)
    s1 = AMBIENT.saturate((problem.xi1, problem.xi2), label="S1")
    span_mat = transpose((problem.xi1, problem.xi2))
    ys = []
    for x in s1.embedding.basis:
        lam, mu = solve_rational(span_mat, x)
        y = tuple(lam * b1 + mu * b2 - (lam + mu) * fv
                  for b1, b2, fv in zip(beta1, beta2, F_VEC))
        if any(c.denominator != 1 for c in y):
            raise TargetsNotIntegral("prescribed images have denominators")
        ys.append(tuple(int(c) for c in y))
    s2 = AMBIENT.span(ys, label="S2")
    if not AMBIENT.is_primitive(s2):
        raise TargetsNotIntegral("target span fails to be primitive")
    cols = [s2.from_ambient(y) for y in ys]
    return beta1, beta2, Isometry(s1, s2, transpose(cols))


def _targets_outcome(build, problem):
    """How a construction ends: "not-integral", "degenerate", or the ambient
    images of xi1 and xi2 under its phi."""
    try:
        _, _, phi = build(problem)
    except TargetsNotIntegral:
        return "not-integral"
    except LatticeError:
        return "degenerate"
    return tuple(phi.target.to_ambient(phi.apply(phi.source.from_ambient(xi)))
                 for xi in (problem.xi1, problem.xi2))


def _wide_problems():
    """The pairs of test_wide_solves_are_pinned."""
    rng = random.Random(2026)
    return [LemsimoProblem(k, *sample_admissible_pair(rng, k, coord_bound=20))
            for k in range(3, 21)]


def test_build_targets_matches_the_saturating_construction():
    """On the 120 seed-1 solve-small pairs and the wide pinned pairs, the
    spans as given send xi1 and xi2 where the saturated spans did."""
    problems = [LemsimoProblem(k, xi1, xi2)
                for k, xi1, xi2 in _solve_small_problems(1, 120)]
    for prob in problems + _wide_problems():
        got = _targets_outcome(build_targets, prob)
        assert got == _targets_outcome(_reference_build_targets, prob)
        assert got == targets(*target_betas(prob.k, prob.l))


@st.composite
def lemsimo_problems(draw):
    """Valid problems, k = 3..8, whose span is primitive, not primitive or
    degenerate as drawn; a pair of that kind is found by rejection from a
    drawn seed (about one sampled span in thirty is not primitive)."""
    k = draw(st.integers(3, 8))
    kind = draw(st.sampled_from(("primitive", "not-primitive", "degenerate")))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    while True:
        xi1, xi2 = (_sample_lemsimo_xi(rng, k, 6) for _ in range(2))
        if xi2 in (xi1, tuple(-c for c in xi1)):
            continue
        if abs(AMBIENT.inner(xi1, xi2)) == 2 * k - 2:
            got = "degenerate"
        elif AMBIENT.is_primitive(AMBIENT.span((xi1, xi2))):
            got = "primitive"
        else:
            got = "not-primitive"
        if got == kind:
            return kind, LemsimoProblem(k, xi1, xi2)


@settings(max_examples=150, deadline=None)
@given(drawn=lemsimo_problems())
def test_build_targets_decides_as_the_saturating_construction(drawn):
    kind, prob = drawn
    got = _targets_outcome(build_targets, prob)
    assert got == _targets_outcome(_reference_build_targets, prob)
    want = {"not-primitive": "not-integral", "degenerate": "degenerate"}
    assert got == want.get(kind, targets(*target_betas(prob.k, prob.l)))


def test_reduce_gram2_is_congruent_and_small():
    cases = (((2, 1), (1, -104)), ((-9320, -12692), (-12692, -17284)),
             ((10, -3), (-3, -20)), ((0, 3), (3, 0)), ((2, 0), (0, 2)))
    for g in cases:
        gr, p = _reduce_gram2(mat(g))
        assert det(p) in (1, -1)
        assert mat_mul(mat_mul(transpose(p), mat(g)), p) == gr
        if g[0][0] or g[1][1]:
            assert abs(gr[0][0]) <= max(abs(g[0][0]), abs(g[1][1]))


def _reference_reduce_gram2(g):
    """The former reduction, rounding b / a through Fraction, kept as a
    reference for the integer rounding of _reduce_gram2."""
    a, b, d = g[0][0], g[0][1], g[1][1]
    p = [[1, 0], [0, 1]]
    for _ in range(256):
        if a == 0 and d == 0:
            break
        if a == 0 or (d != 0 and abs(d) < abs(a)):
            a, d = d, a
            p = [[p[0][1], p[0][0]], [p[1][1], p[1][0]]]
            continue
        q = round(Fraction(b, a))
        if q == 0:
            break
        d, b = d - 2 * q * b + q * q * a, b - q * a
        p[0][1] -= q * p[0][0]
        p[1][1] -= q * p[1][0]
    return mat(((a, b), (b, d))), mat(p)


# small entries make ties (b / a halfway between integers) common
_ENTRIES = st.one_of(st.integers(-12, 12), st.integers(-10**12, 10**12))


@settings(max_examples=300, deadline=None)
@given(a=_ENTRIES, b=_ENTRIES, d=_ENTRIES)
def test_reduce_gram2_matches_fraction_rounding(a, b, d):
    g = mat(((a, b), (b, d)))
    assert _reduce_gram2(g) == _reference_reduce_gram2(g)


def test_match_gram2_finds_congruence():
    g = ((2, 1), (1, -10))
    p0 = ((1, 1), (0, 1))
    target = mat_mul(mat_mul(transpose(p0), mat(g)), p0)
    p = next(_gram2_maps(mat(g), target, 5), None)
    assert p is not None
    assert mat_mul(mat_mul(transpose(p), mat(g)), p) == target


def test_gram2_autos_contains_signs():
    g = ((-4, 0), (0, -4))
    autos = list(_gram2_maps(mat(g), mat(g), 3))
    assert ((1, 0), (0, 1)) in autos
    assert ((-1, 0), (0, -1)) in autos
    assert ((1, 0), (0, -1)) in autos
    assert ((0, 1), (1, 0)) in autos


def _block_gram(w_gram):
    """U + W: the gram of the block of a splitting with rank-2 gram W."""
    (a, b), (c, d) = w_gram
    return (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, a, b), (0, 0, c, d)


def test_split_off_U_produces_unimodular_change():
    prob = LemsimoProblem(**FIXTURE)
    _, _, phi = build_targets(prob)
    k1 = AMBIENT.orth_complement(phi.source)
    split = split_off_U(k1, 10)
    f = transpose(split.basis)
    assert mat_mul(mat_mul(transpose(f), k1.gram), f) == \
        _block_gram(split.w_gram)
    assert abs(det(f)) == 1
    assert mat_mul(f, split.inverse) == identity(4)
    # several inequivalent splittings can exist
    assert len(list(iter_splits(k1, 10))) >= 1


def _reference_splits(K, bound):
    """The former split enumeration, kept as a reference: W is the saturated
    kernel of the pairings with u and u', every sign of u is tried, and a
    non-unimodular change of basis is skipped.  Yields (F, w_gram) pairs,
    F the change of basis from the block, whose columns are u, u', w1, w2."""
    seen = set()
    for u in isotropic_vectors(K.gram, bound):
        if gcd(*[abs(c) for c in u]) != 1:
            continue
        pair = mat_vec(K.gram, u)
        if gcd(*[abs(int(c)) for c in pair]) != 1:
            continue
        x = lemsimo._solve_unit_pairing(pair)
        half = K.norm(x) // 2
        uprime = tuple(xi - half * ui for xi, ui in zip(x, u))
        cond = mat((mat_vec(K.gram, u), mat_vec(K.gram, uprime)))
        wbasis = row_basis(kernel_int(cond))
        gw = mat_mul(mat_mul(wbasis, K.gram), transpose(wbasis))
        if len(wbasis) == 2:
            gw, p = _reduce_gram2(gw)
            wbasis = mat_mul(transpose(p), wbasis)
        newbasis = mat((u, uprime) + tuple(wbasis))
        if abs(det(newbasis)) != 1:
            continue
        if gw in seen:
            continue
        seen.add(gw)
        yield transpose(newbasis), gw


def test_splits_match_reference_enumeration():
    rng = random.Random(17)
    for i in range(10):
        k = 3 + i % 3
        xi1, xi2 = sample_admissible_pair(rng, k)
        _, _, phi = build_targets(LemsimoProblem(k, xi1, xi2))
        for s in (phi.source, phi.target):
            comp = AMBIENT.orth_complement(s)
            got = [(transpose(sp.basis), sp.w_gram) for sp in
                   itertools.islice(iter_splits(comp, 10), MAX_SPLITS)]
            ref = list(itertools.islice(_reference_splits(comp, 10),
                                        MAX_SPLITS))
            assert got and got == ref


def test_solve_fixture():
    sol = solve(LemsimoProblem(**FIXTURE))
    assert isinstance(sol, LemsimoSolution)
    g = sol.g
    assert g.det() == 1
    assert ori_char(g) == 0
    for xi, want in zip((FIXTURE["xi1"], FIXTURE["xi2"]),
                        targets(sol.beta1, sol.beta2)):
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
            assert ori_char(sol.g) == 0


def test_solve_answers_are_pinned():
    """g and the stage trace of nine seeded solves hash to the value the
    pipeline produced before its stages shared one Split record."""
    rng = random.Random(31)
    digest = hashlib.sha256()
    for k in (3, 4, 5):
        for _ in range(3):
            xi1, xi2 = sample_admissible_pair(rng, k)
            sol = solve(LemsimoProblem(k, xi1, xi2))
            digest.update(repr((sol.g.matrix, sol.trace)).encode())
    assert digest.hexdigest() == \
        "cf36e7a60bdb95f98e28b633b5895f6d139e5f206826e9eeaaa85e75aa0e10ec"


def test_wide_solves_are_pinned():
    """One pair per k = 3..20 with coordinates up to 20: g and the trace of
    each answer, or the stage and bound of each NotFound, hash to the value
    taken before the companion stage lost its fallbacks and the det and
    orientation fixes were composed onto the companion."""
    digest = hashlib.sha256()
    stages = []
    for prob in _wide_problems():
        try:
            sol = solve(prob)
            item = (sol.g.matrix, sol.trace)
        except NotFound as exc:
            stages.append(exc.stage)
            item = ("not-found", exc.stage, exc.bound)
        digest.update(repr(item).encode())
    assert stages == ["companion:companion"] * 2
    assert digest.hexdigest() == \
        "e1078efc8c0d35a6f4c01c2a0b57f6931602da60f348487e35c27df2dd17142d"


def test_solve_of_the_targets_is_the_identity():
    for k, l in ((3, 0), (3, 1), (4, 5), (5, -3)):
        sol = solve(LemsimoProblem(k, *targets(*target_betas(k, l))))
        assert sol.g.matrix == identity(6)


def test_solve_lists_the_splits_of_k2_once(monkeypatch):
    """On a cold target side the splittings of K2 are listed once; a
    second solve on the same (k, l) lists them no more."""
    lemsimo._target_side.cache_clear()
    labels = []
    real = lemsimo.iter_splits

    def counting(K, bound):
        labels.append(K.label)
        return real(K, bound)

    monkeypatch.setattr(lemsimo, "iter_splits", counting)
    sol = solve(LemsimoProblem(**FIXTURE))
    assert "det-fix" in [s["stage"] for s in sol.trace]
    assert labels.count("K2") == 1
    del labels[:]
    warm = solve(LemsimoProblem(**FIXTURE))
    assert labels == ["K1"]
    assert warm.g.matrix == sol.g.matrix and warm.trace == sol.trace


def test_solve_builds_one_split_of_each_complement_when_the_first_pair_fits(
        monkeypatch):
    """One splitting of each complement on a cold target side; a second
    solve on the same (k, l) builds only the splitting of K1."""
    lemsimo._target_side.cache_clear()
    built = []
    real = lemsimo.Split

    def counting(*fields):
        built.append(fields)
        return real(*fields)

    monkeypatch.setattr(lemsimo, "Split", counting)
    problem = LemsimoProblem(3, (5, 1, 2, -1, 1, -1), (-2, -3, -2, 2, 0, 0))
    solve(problem)
    assert len(built) == 2
    del built[:]
    solve(problem)
    assert [fields[0].label for fields in built] == ["K1"]


def _target_side_key(k, xi1, xi2, bound=10):
    return k, AMBIENT.inner(xi1, xi2), bound


def test_warm_answers_equal_cold_answers():
    """The 120 seed-1 solve-small inputs, each solved on a cold target
    side, then all of them on warm ones, in shuffled order and in order:
    g, the betas and the trace agree across the three passes."""
    problems = [LemsimoProblem(*item) for item in _solve_small_problems(1, 120)]

    def answer(problem):
        sol = solve(problem)
        return sol.g.matrix, sol.beta1, sol.beta2, sol.trace

    cold = []
    for problem in problems:
        lemsimo._target_side.cache_clear()
        cold.append(answer(problem))
    order = list(range(len(problems)))
    random.Random(0).shuffle(order)
    shuffled = {i: answer(problems[i]) for i in order}
    assert [shuffled[i] for i in range(len(problems))] == cold
    misses = lemsimo._target_side.cache_info().misses
    assert [answer(problem) for problem in problems] == cold
    assert lemsimo._target_side.cache_info().misses == misses
    keys = {_target_side_key(p.k, p.xi1, p.xi2) for p in problems}
    assert len(keys) == 65


def test_warm_target_side_reports_the_split_stage(monkeypatch):
    """K1 without splittings is a NotFound at the split stage, on a cold
    target side and on a warm one that holds splittings of K2."""
    problem = LemsimoProblem(**FIXTURE)
    real = lemsimo.iter_splits

    def none_for_k1(K, bound):
        return iter(()) if K.label == "K1" else real(K, bound)

    lemsimo._target_side.cache_clear()
    solve(problem)
    assert lemsimo._target_side(*_target_side_key(**FIXTURE)).splits.items
    monkeypatch.setattr(lemsimo, "iter_splits", none_for_k1)
    for clear in (False, True):
        if clear:
            lemsimo._target_side.cache_clear()
        with pytest.raises(NotFound) as exc:
            solve(problem)
        assert exc.value.stage == "companion:split"


def test_target_side_cache_holds_finished_values_only():
    """Every value reachable from a cached target side is finished: no
    generator, iterator or numpy array pins a scan's state or box.  The
    cache is bounded by its constant."""
    info = lemsimo._target_side.cache_info()
    assert info.maxsize == lemsimo.TARGET_SIDE_CACHE_SIZE == 128
    lemsimo._target_side.cache_clear()
    keys = set()
    for k, xi1, xi2 in _solve_small_problems(1, 120):
        solve(LemsimoProblem(k, xi1, xi2))
        keys.add(_target_side_key(k, xi1, xi2))
    misses = lemsimo._target_side.cache_info().misses
    sides = [lemsimo._target_side(*key) for key in sorted(keys)]
    assert lemsimo._target_side.cache_info().misses == misses
    assert any(side.generators for side in sides)
    seen = set()
    stack = list(sides)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        assert not isinstance(obj, (collections.abc.Iterator, np.ndarray))
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, functools.partial):
            stack.append(obj.func)
            stack.extend(obj.args)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())


def test_scan_prefix_continues_the_scan_it_restarts():
    """A reader that stops early leaves a prefix; the next reader rereads
    it, restarts the scan past it and lists the same sequence."""
    starts = []

    def scan():
        starts.append(1)
        return iter(range(5))

    prefix = lemsimo._ScanPrefix(scan)
    assert list(itertools.islice(prefix.read(), 2)) == [0, 1]
    assert prefix.items == [0, 1] and not prefix.done
    assert list(prefix.read()) == list(range(5))
    assert prefix.items == list(range(5)) and prefix.done
    assert list(prefix.read()) == list(range(5)) and len(starts) == 2


def test_solve_enumerates_no_discriminant_group(monkeypatch):
    lemsimo._target_side.cache_clear()
    calls = []
    real = DiscriminantData.elements

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(DiscriminantData, "elements", counting)
    sol = solve(LemsimoProblem(**FIXTURE))
    assert "det-fix" in [s["stage"] for s in sol.trace]
    assert calls == []


# the block maps of the det and ori fixes: the swap of the two isotropic
# generators of the split-off plane, and minus the identity on it
SWAP = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
MINUS_U = ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _block_changes(split):
    """The block U + W of a splitting as a lattice, with the change of basis
    F from it and F^-1, both checked isometries: the former layout of a
    splitting, kept as a reference for its matrices."""
    block = IntegerLattice(_block_gram(split.w_gram))
    from_block = Isometry(block, split.lattice, transpose(split.basis))
    return block, from_block, from_block.inverse()


def _reference_pull_back(split, matrix):
    """The checked isometry of the lattice that acts as matrix on the block,
    composed from checked factors."""
    block, from_block, to_block = _block_changes(split)
    return from_block.compose(Isometry(block, block, matrix)).compose(
        to_block)


def _reference_pair_scan(K1, K2, bound):
    """The former scan, kept as a reference: list up to MAX_SPLITS
    splittings of each complement, then take the first pair in
    itertools.product order whose rank-2 complements are isometric in the
    box.  Returns (i, j, matrix of psi0)."""
    splits1 = list(itertools.islice(iter_splits(K1, bound), MAX_SPLITS))
    splits2 = list(itertools.islice(iter_splits(K2, bound), MAX_SPLITS))
    for (i, split1), (j, split2) in itertools.product(enumerate(splits1),
                                                      enumerate(splits2)):
        if split1.w_gram == split2.w_gram:
            pmat = identity(2)
        else:
            pmat = next(_gram2_maps(split2.w_gram, split1.w_gram, bound), None)
        if pmat is not None:
            block1, _, to_block1 = _block_changes(split1)
            block2, from_block2, _ = _block_changes(split2)
            mid = Isometry(block1, block2,
                           block_diag(identity(2), pmat))
            psi0 = from_block2.compose(mid).compose(to_block1)
            return i, j, psi0.matrix
    return None


def _solve_small_problems(seed, count):
    """The benchmark's solve-small inputs, read from its own generator."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("_bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.solve_problems(seed, count)


def test_lazy_pair_scan_matches_the_product_scan(monkeypatch):
    """On the 120 seed-1 solve-small inputs the lazy scan matches the same
    pair (i, j) with the same psi0 as the former eager scan, having built
    the splittings of K1 up to row i and those of K2 once."""
    built = []
    real = lemsimo.iter_splits

    def recording(K, bound):
        for split in real(K, bound):
            built.append(K.label)
            yield split

    matched = set()
    for k, xi1, xi2 in _solve_small_problems(1, 120):
        _, _, phi = build_targets(LemsimoProblem(k, xi1, xi2))
        k1 = AMBIENT.orth_complement(phi.source, label="K1")
        k2 = AMBIENT.orth_complement(phi.target, label="K2")
        i, j, want = _reference_pair_scan(k1, k2, 10)
        matched.add((i, j))
        del built[:]
        splits2 = lemsimo._ScanPrefix(
            functools.partial(lemsimo._first_splits, k2, 10))
        with monkeypatch.context() as m:
            m.setattr(lemsimo, "iter_splits", recording)
            psi0, got_j = lemsimo._companion_base(k1, 10, splits2)
        assert psi0.matrix == want
        assert got_j == j
        assert built.count("K1") == i + 1
        assert built.count("K2") == len(splits2.items)
        if i == 0:
            assert len(splits2.items) == j + 1
    assert {(3, 0), (0, 29)} <= matched


def test_solve_evaluates_less_than_one_rank_4_box(monkeypatch):
    """The isotropic search evaluates the slabs it reaches, not the whole
    radius-10 box of 21^4 vectors per complement."""
    scanned = []
    real = kernels.box_squares

    def counting(gram, bound):
        vecs, squares = real(gram, bound)
        scanned.append(len(vecs))
        return vecs, squares

    lemsimo._target_side.cache_clear()
    monkeypatch.setattr(kernels, "box_squares", counting)
    solve(LemsimoProblem(**FIXTURE))
    assert 0 < sum(scanned) < 21 ** 4


def _reference_disc_generators(K, split, data, bound):
    """The former eager generator set, kept as a reference: every candidate
    is built, then one witness is kept per discriminant image."""
    cands = [minus_identity(K)]
    for base in (SWAP, MINUS_U):
        cands.append(_reference_pull_back(split, base))
    for pm in _gram2_maps(split.w_gram, split.w_gram, bound):
        cands.append(_reference_pull_back(
            split, block_diag(identity(2), pm)))
    cands.extend(_reflection_isometry(K, u, sq)
                 for u, sq in integral_reflections(K.gram, bound))
    seen = {}
    for iso in cands:
        d = disc_map(iso.apply, data, data)
        if d.images not in seen:
            seen[d.images] = (d, iso)
    return list(seen.values())


def _reference_bfs_disc(have, want, gens, data):
    """The former search over a generator list built in full."""
    ident = identity_disc_map(data)
    frontier = [(ident, identity_isometry(gens[0][1].source))]
    seen = {ident.images}
    while frontier:
        nxt = []
        for d, wit in frontier:
            for gd, giso in gens:
                nd = gd.compose(d)
                if nd.images in seen:
                    continue
                nwit = giso.compose(wit)
                if nd.compose(have) == want:
                    return nwit
                seen.add(nd.images)
                nxt.append((nd, nwit))
        frontier = nxt
    return None


def test_lazy_generator_search_matches_the_eager_one():
    """On the 120 seed-1 solve-small inputs, the search over generators
    built as it reaches them returns the witness of the eager search, at
    every radius find_companion tries.  Each generator matrix it builds is
    that of a checked isometry of the eager set with the same image, apart
    from the identity image, which the eager set first reaches through
    the swap."""
    searches = 0
    for k, xi1, xi2 in _solve_small_problems(1, 120):
        _, _, phi = build_targets(LemsimoProblem(k, xi1, xi2))
        k1 = AMBIENT.orth_complement(phi.source, label="K1")
        k2 = AMBIENT.orth_complement(phi.target, label="K2")
        glue1, glue2 = glue(phi.source, k1), glue(phi.target, k2)
        splits2 = lemsimo._ScanPrefix(
            functools.partial(lemsimo._first_splits, k2, 10))
        psi0, j = lemsimo._companion_base(k1, 10, splits2)
        split2 = splits2.items[j]
        data = glue2.disc_comp
        have = disc_map(psi0.apply, glue1.disc_comp, data).compose(
            glue1.gamma)
        want = glue2.gamma.compose(
            disc_map(phi.apply, glue1.disc_sub, glue2.disc_sub))
        if have == want:
            continue
        for radius in (3, 6, 10):
            searches += 1
            ref_gens = _reference_disc_generators(k2, split2, data, radius)
            ref = _reference_bfs_disc(have, want, ref_gens, data)
            gens = lemsimo._ScanPrefix(functools.partial(
                lemsimo._disc_generators, k2, split2, data, radius))
            got = lemsimo._bfs_disc(have, want, gens, data)
            assert got == (ref and ref.matrix)
            checked = {d.images: iso.matrix for d, iso in ref_gens}
            for d, m in gens.items:
                assert d.is_identity() or checked[d.images] == m
            if ref is not None:
                break
    assert searches >= 100


def test_bound_zero_reports_not_found():
    prob = LemsimoProblem(FIXTURE["k"], FIXTURE["xi1"], FIXTURE["xi2"],
                          bound=0)
    with pytest.raises(NotFound) as exc:
        solve(prob)
    assert exc.value.bound == 0
    assert exc.value.stage.startswith("companion")


def _reflection_isometry(K, u, sq):
    """The reflection in u built from (u, u.u) as integral_reflections
    yields them and gu = G u: column j is e_j - (2 gu_j / sq) u."""
    gu = mat_vec(K.gram, u)
    n = len(u)
    cols = [tuple(int(i == j) - 2 * gu[j] // sq * u[i] for i in range(n))
            for j in range(n)]
    return Isometry(K, K, transpose(cols))


def _reference_integral_reflections(K, radius):
    """The former pure-Python enumeration of integral reflections over the
    whole box, kept as a reference for the slab scan: (u, u.u) in
    lexicographic box order, sorted stably into square 2, square -2 and
    every other square."""
    hits = []
    for u in itertools.product(range(-radius, radius + 1), repeat=K.rank):
        sq = K.norm(u)
        if sq and all((2 * c) % sq == 0 for c in mat_vec(K.gram, u)):
            hits.append((u, sq))
    return ([h for h in hits if h[1] == 2] + [h for h in hits if h[1] == -2]
            + [h for h in hits if abs(h[1]) != 2])


def _solve_small_k2s(seed):
    """The distinct K2 complements of the solve-small inputs of a seed."""
    k2s = {}
    for k, xi1, xi2 in _solve_small_problems(seed, 120):
        _, _, phi = build_targets(LemsimoProblem(k, xi1, xi2))
        k2 = AMBIENT.orth_complement(phi.target, label="K2")
        k2s.setdefault(k2.gram, k2)
    return list(k2s.values())


def test_reflection_images_read_off_the_vector_match_disc_map():
    """For every integral reflection of the seed-1 K2 complements at radius
    3 and 6, reflection_matrix is the matrix of the reflection, and the
    discriminant image read off the vector by reflect, and the one read off
    reflection_matrix, are disc_map of the reflection; squares other than
    +-2 are among them."""
    squares = set()
    for k2 in _solve_small_k2s(1):
        data = DiscriminantData(k2)
        for radius in (3, 6):
            for u, sq in integral_reflections(k2.gram, radius):
                squares.add(sq)
                gu = mat_vec(k2.gram, u)
                iso = _reflection_isometry(k2, u, sq)
                matrix = reflection_matrix(u, gu, sq)
                assert matrix == iso.matrix
                want = disc_map(iso.apply, data, data)
                assert disc_map(lambda y: reflect(y, u, gu, sq),
                                data, data) == want
                assert disc_map(functools.partial(mat_vec, matrix),
                                data, data) == want
    assert squares - {2, -2}


def test_solve_small_builds_at_most_4000_isometries(monkeypatch):
    """The 120 seed-1 solve-small solves construct at most 4,000 Isometry
    objects with the target side cleared before every solve (7,621 were
    built when every candidate and every BFS node had its own Isometry).
    A pass that clears it once constructs at most 1,000, and a second pass
    on the warm sides at most 600: inside the companion search maps are
    integer matrices, and only the base companion, the companion, the
    corrections of a target side and the answer are checked, each as one
    product (2,151 and 651 were built when the splittings' changes of
    basis, the block maps and the generators were checked too)."""
    built = []
    real = Isometry.__init__

    def counting(self, *args):
        built.append(self)
        real(self, *args)

    monkeypatch.setattr(Isometry, "__init__", counting)
    problems = [LemsimoProblem(*item) for item in _solve_small_problems(1, 120)]
    for problem in problems:
        lemsimo._target_side.cache_clear()
        solve(problem)
    assert len(built) <= 4000
    lemsimo._target_side.cache_clear()
    del built[:]
    for problem in problems:
        solve(problem)
    assert len(built) <= 1000
    del built[:]
    for problem in problems:
        solve(problem)
    assert len(built) <= 600


@pytest.mark.parametrize("k, xi1, xi2, fixes", [
    (FIXTURE["k"], FIXTURE["xi1"], FIXTURE["xi2"], ["det-fix"]),
    (5, (-3, -2, -2, 0, -2, 1), (-6, 0, -1, -2, -2, -1), ["ori-fix"]),
    (3, (1, 1, 1, 0, 1, 1), (2, 1, 0, 2, -2, 0), ["det-fix", "ori-fix"]),
])
def test_a_kept_correction_equals_the_re_extension(monkeypatch, k, xi1, xi2,
                                                    fixes):
    """One seed-1 solve-small input per kind of fix: g is the extension of
    phi and the fixed companion c psi, c the swap and then minus the
    identity on the plane split off by the first splitting of K2, each
    pulled back by composing with the changes of basis.  The correction
    is a product of reflections of U^3, so a solve extends psi alone,
    cold and warm."""
    lemsimo._target_side.cache_clear()
    calls = []
    real = lemsimo.extend_isometry

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lemsimo, "extend_isometry", counting)
    problem = LemsimoProblem(k, xi1, xi2)
    sol = solve(problem)
    assert [s["stage"] for s in sol.trace if s["stage"].endswith("-fix")] \
        == fixes
    assert len(calls) == 1

    _, _, phi = build_targets(problem)
    side = lemsimo._target_side(k, problem.l, problem.bound)
    glue1 = glue(phi.source, AMBIENT.orth_complement(phi.source, label="K1"))
    companion = next(s["matrix"] for s in sol.trace
                     if s["stage"] == "companion")
    fixed = Isometry(glue1.comp, side.glue2.comp, companion)
    split2 = side.splits.items[0]
    for stage, base in (("det-fix", SWAP), ("ori-fix", MINUS_U)):
        if stage in fixes:
            fixed = _reference_pull_back(split2, base).compose(fixed)
    assert sol.g.matrix == real(phi, fixed, glue1, side.glue2).matrix

    del calls[:]
    warm = solve(problem)
    assert (warm.g.matrix, warm.trace) == (sol.g.matrix, sol.trace)
    assert len(calls) == 1


@functools.lru_cache(maxsize=None)
def _split_blocks():
    """U+W block grams of the splittings of a few pipeline complements."""
    rng = random.Random(5)
    blocks = []
    for k in (3, 4, 5):
        xi1, xi2 = sample_admissible_pair(rng, k)
        _, _, phi = build_targets(LemsimoProblem(k, xi1, xi2))
        k1 = AMBIENT.orth_complement(phi.source)
        blocks += [_block_gram(s.w_gram)
                   for s in itertools.islice(iter_splits(k1, 4), 3)]
    return tuple(blocks)


@st.composite
def small_even_grams(draw):
    """Symmetric, even, nondegenerate grams of rank 1..4, small entries."""
    n = draw(st.integers(1, 4))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    gram = mat(g)
    assume(det(gram) != 0)
    return gram


def _check_integral_reflections(K, radius):
    """The slab scan yields the reference sequence, in order, as Python
    ints, and each (u, u.u) builds the matrix of the reflection in u."""
    yielded = list(integral_reflections(K.gram, radius))
    assert yielded == _reference_integral_reflections(K, radius)
    for u, sq in yielded:
        assert all(type(x) is int for x in (*u, sq))
        assert reflection_matrix(u, mat_vec(K.gram, u), sq) == \
            _reflection_isometry(K, u, sq).matrix


@settings(max_examples=60, deadline=None)
@given(data=st.data(), radius=st.integers(0, 3))
def test_integral_reflections_match_reference(data, radius):
    gram = data.draw(st.one_of(small_even_grams(),
                               st.sampled_from(_split_blocks())))
    _check_integral_reflections(IntegerLattice(gram), radius)


def test_integral_reflections_of_rank_one_and_two():
    """A rank-1 gram has no trailing block: its slabs are the points of
    [-radius, radius]."""
    for gram in (((2,),), ((-2,),), ((4,),), ((-6,),), ((2, 1), (1, -2)),
                 ((0, 1), (1, 0)), ((2, 3), (3, 4)), ((-4, 2), (2, 6))):
        for radius in range(5):
            _check_integral_reflections(IntegerLattice(mat(gram)), radius)
    assert list(integral_reflections(((2,),), 2)) == \
        [((-1,), 2), ((1,), 2), ((-2,), 8), ((2,), 8)]
    assert list(integral_reflections(((2, 1), (1, -2)), 0)) == []


def test_integral_reflections_hold_one_slab(monkeypatch):
    """A radius-10 scan of a solve-small K2 gram, the widest that solve
    makes, reads the box one slab at a time: it builds one box, of the
    trailing block, and its traced peak stays under 4 MB (13.3 MB when it
    built the 21^4 box at once)."""
    k2 = _solve_small_k2s(1)[0]
    dims = []
    real = kernels._box

    def recording(n, bound):
        dims.append(n)
        return real(n, bound)

    monkeypatch.setattr(kernels, "_box", recording)
    tracemalloc.start()
    try:
        hits = list(integral_reflections(k2.gram, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits and dims == [k2.rank - 1]
    assert peak < 4 * 2 ** 20, peak


# pool indices of the escalated seed-1 solves
ESCALATED = [30, 45, 79, 96, 112, 123, 127, 129, 141, 166, 216, 267, 309, 351,
             376, 379, 403, 420, 421, 481, 482, 484, 516, 533, 560, 653, 673,
             675, 685, 701, 714, 716, 746, 747, 753, 754, 759, 807, 809, 871,
             895, 917, 936, 975]


def test_escalated_solves_are_pinned(monkeypatch):
    """The first 1,000 seed-1 solve-small pool items whose companion search
    runs past radius 3, the radius each reaches, and g and the trace of
    each of their answers hash to the values taken while the reflection
    scan built the whole box at once."""
    rounds = []
    real = lemsimo._bfs_disc

    def counting(*args):
        rounds.append(None)
        return real(*args)

    monkeypatch.setattr(lemsimo, "_bfs_disc", counting)
    lemsimo._target_side.cache_clear()
    reached = {}
    digest = hashlib.sha256()
    for i, item in enumerate(_solve_small_problems(1, 1000)):
        del rounds[:]
        sol = solve(LemsimoProblem(*item))
        if len(rounds) > 1:
            reached[i] = (3, 6, 10)[len(rounds) - 1]
            digest.update(repr((sol.g.matrix, sol.trace)).encode())
    assert {i for i, r in reached.items() if r == 10} == {267, 351, 516}
    assert sorted(reached) == ESCALATED
    assert digest.hexdigest() == \
        "d036153a01e6fa94d1e0c469a88b736fd04dd8c5a976add775e079ca799f6afb"


def test_solve_raises_when_a_correction_fails_under_optimize():
    """The self-checks of solve are exceptions, so python -O keeps them: a
    determinant correction that fixes nothing, built from reflections that
    are the identity, must raise, not return an answer of determinant -1."""
    stages = [s["stage"] for s in solve(LemsimoProblem(**FIXTURE)).trace]
    assert "det-fix" in stages
    script = """
import mukailat.lemsimo as lm
lm.reflection = lambda lat, u: lm.Isometry(lat, lat,
                                           lm.intmat.identity(lat.rank))
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
    assert out.stdout.startswith(
        "RuntimeError pipeline produced determinant -1"), out.stdout


def _pipeline_digest():
    """SHA-256 of repr((g.matrix, trace)) over the 60 solves of verify's
    lemsimo-pipeline check, on its inputs drawn as the check draws them.
    Self-contained, so its source also runs in a subprocess."""
    import hashlib
    from mukailat.lemsimo import LemsimoProblem, solve
    from mukailat.verify import VerifyConfig, _rng, sample_admissible_pair
    cfg = VerifyConfig()
    rng = _rng(cfg, 8)
    digest = hashlib.sha256()
    for k in (3, 4, 5):
        for _ in range(cfg.lemsimo_samples):
            xi1, xi2 = sample_admissible_pair(rng, k)
            sol = solve(LemsimoProblem(k, xi1, xi2, bound=cfg.bound))
            digest.update(repr((sol.g.matrix, sol.trace)).encode())
    return digest.hexdigest()


def test_lemsimo_pipeline_answers_are_the_same_under_optimize():
    """The answers behind verify's lemsimo-pipeline check, whose report is
    only a count: g and the trace of its 60 solves hash to the same value
    under python -O as in this process."""
    script = inspect.getsource(_pipeline_digest) + "print(_pipeline_digest())"
    src = os.path.dirname(os.path.dirname(os.path.abspath(mukailat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == _pipeline_digest()


def test_corrections_are_the_former_extensions():
    """On the target side of each of the 120 seed-1 solve-small inputs,
    the correction of each (det_fix, ori_fix) is an isometry of U^3 with
    the (det, ori) that undoes the fix, it fixes t1 and t2, it maps K2
    onto itself acting as the identity on A_K2, and it equals the former
    correction: the extension of the identity on S2 and of the block map
    c on K2, pulled back through the first splitting of K2."""
    lemsimo._target_side.cache_clear()
    keys = set()
    for k, xi1, xi2 in _solve_small_problems(1, 120):
        solve(LemsimoProblem(k, xi1, xi2))
        keys.add(_target_side_key(k, xi1, xi2))
    blocks = {(True, False): (SWAP, -1, 0), (False, True): (MINUS_U, 1, 1),
              (True, True): (mat_mul(MINUS_U, SWAP), -1, 1)}
    for k, l, bound in sorted(keys):
        side = lemsimo._target_side(k, l, bound)
        glue2 = side.glue2
        K2, d_k2 = glue2.comp, glue2.disc_comp
        split = side.splits.items[0]
        assert set(side.corrections) == set(blocks)
        for key, (block, det_want, ori_want) in blocks.items():
            corr = side.corrections[key]
            assert corr.source is AMBIENT and corr.target is AMBIENT
            assert (corr.det(), ori_char(corr)) == (det_want, ori_want)
            for t in targets(*target_betas(k, l)):
                assert corr.apply(t) == t
            on_k2 = transpose([K2.from_ambient(corr.apply(K2.to_ambient(e)))
                               for e in identity(K2.rank)])
            assert disc_map(functools.partial(mat_vec, on_k2),
                            d_k2, d_k2).is_identity()
            former = extend_isometry(identity_isometry(glue2.sub),
                                     _reference_pull_back(split, block),
                                     glue2, glue2)
            assert corr.matrix == former.matrix
