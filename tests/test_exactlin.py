"""Exact linear algebra: examples and algebraic properties."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylgpd._rational import rat
from weylgpd.errors import InvalidTable, SingularBasis, ZeroCovector
from weylgpd.exactlin import (
    dual_basis,
    int_adjugate,
    int_det,
    integer_kernel_basis,
    nullspace,
    nullspace_and_pivots,
    primitive_normalize,
    primitive_ray,
    rank,
    sign_at,
    solve_coordinates,
    vdot,
    vec,
)

from _oracles import gauss_solve, reference_primitive_ray, solve_in_span

F4_SIMPLE = (
    vec((0, 1, -1, 0)),
    vec((0, 0, 1, -1)),
    vec((0, 0, 0, 1)),
    vec(("1/2", "-1/2", "-1/2", "-1/2")),
)


class TestSolveCoordinates:
    def test_identity_case(self):
        basis = (vec((1, 0)), vec((0, 1)))
        assert solve_coordinates(basis, vec((3, -1))) == vec((3, -1))

    def test_linearity(self):
        basis = (vec((1, 0)), vec((0, 1)))
        assert solve_coordinates(basis, vec((1, 1))) == (rat(1), rat(1))

    def test_f4_simple_root_coordinates_match_oracle(self):
        target = vec((1, 0, 0, 0))
        got = solve_coordinates(F4_SIMPLE, target)
        expected = gauss_solve(F4_SIMPLE, target)
        assert tuple(map(F, map(str, got))) == expected
        assert got == vec((1, 2, 3, 2))

    def test_dependent_basis_raises(self):
        with pytest.raises(SingularBasis):
            solve_coordinates((vec((1, 0)), vec((2, 0))), vec((1, 1)))


class TestDegenerateArguments:
    def test_rank_of_no_vectors_is_zero(self):
        assert rank([]) == 0

    def test_solve_coordinates_needs_one_basis_covector_per_coordinate(self):
        with pytest.raises(SingularBasis, match=r"^need 2 basis covectors, got 1$"):
            solve_coordinates([vec((1, 0))], vec((1, 2)))

    def test_nullspace_of_no_rows_is_refused(self):
        with pytest.raises(ValueError, match=r"^nullspace needs the ambient dimension; pass at least one row$"):
            nullspace_and_pivots([])

    def test_kernel_basis_of_zero_is_refused(self):
        with pytest.raises(ZeroCovector, match=r"^kernel basis of the zero covector is the whole lattice$"):
            integer_kernel_basis((0, 0))


class TestDualBasis:
    def test_standard(self):
        basis = (vec((1, 0)), vec((0, 1)))
        assert dual_basis(basis) == [vec((1, 0)), vec((0, 1))]

    def test_example(self):
        duals = dual_basis((vec((1, 1)), vec((0, 1))))
        assert duals == [vec((1, 0)), vec((-1, 1))]

    def test_dependent_raises(self):
        with pytest.raises(SingularBasis):
            dual_basis((vec((1, 0)), vec((2, 0))))

    def test_kronecker_property_randomized(self):
        rng = random.Random(20240917)
        trials = 0
        while trials < 400:
            r = rng.choice((2, 3, 4))
            basis = tuple(
                vec([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(r)])
                for _ in range(r)
            )
            try:
                duals = dual_basis(basis)
            except SingularBasis:
                continue
            trials += 1
            for i in range(r):
                for j in range(r):
                    assert vdot(basis[i], duals[j]) == (1 if i == j else 0)


class TestPrimitiveNormalize:
    def test_examples(self):
        assert primitive_normalize(vec((2, -4, 0))) == vec((1, -2, 0))
        assert primitive_normalize(vec(("-1/2", "1/2", "1/2", "0"))) == vec((1, -1, -1, 0))
        with pytest.raises(ZeroCovector):
            primitive_normalize(vec((0, 0, 0)))

    def test_ray_preserves_orientation(self):
        assert primitive_ray(vec(("-1/2", "1/2"))) == vec((-1, 1))

    @given(st.lists(st.fractions(min_value=F(-50), max_value=F(50), max_denominator=40), min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_ray_matches_the_fraction_rule(self, coords):
        """primitive_ray gives ints, equal and hash-equal to the former
        Fraction rule, on a Fraction covector and on its positive multiple
        with int entries; the zero covector has no primitive ray."""
        alpha = vec(coords)
        ints = tuple(int(c * math.lcm(*(c.denominator for c in alpha))) for c in alpha)
        if all(c == 0 for c in coords):
            for zero in (alpha, ints):
                with pytest.raises(ZeroCovector):
                    primitive_ray(zero)
            return
        expected = reference_primitive_ray(alpha)
        for covector in (alpha, ints):
            got = primitive_ray(covector)
            assert got == expected and hash(got) == hash(expected)
            assert all(type(c) is int for c in got)

    @given(
        st.lists(
            st.fractions(min_value=F(-50), max_value=F(50), max_denominator=40),
            min_size=2,
            max_size=4,
        ),
        st.fractions(min_value=F(1, 30), max_value=F(50), max_denominator=30),
    )
    @settings(max_examples=300, deadline=None)
    def test_idempotent_and_scale_invariant(self, coords, scale):
        if all(c == 0 for c in coords):
            return
        alpha = vec(coords)
        key = primitive_normalize(alpha)
        assert primitive_normalize(key) == key
        assert primitive_normalize(vec([scale * c for c in coords])) == key


class TestSignAt:
    def test_examples(self):
        assert sign_at(vec((1, 0)), vec((3, 5))) == 1
        assert sign_at(vec((1, -1)), vec((2, 2))) == 0
        assert sign_at(vec(("1/2", "-1")), vec((1, 1))) == -1

    def test_a_point_of_another_rank_is_refused(self):
        """zip raised `argument 2 is shorter than argument 1` here before."""
        with pytest.raises(InvalidTable, match=r"^point \(1\) does not have rank 2$"):
            sign_at((1, 0), (1,))


class TestSolveRoundtrip:
    def test_randomized_exact(self):
        rng = random.Random(77)
        done = 0
        while done < 400:
            r = rng.choice((2, 3, 4))
            basis = tuple(vec([rng.randint(-6, 6) for _ in range(r)]) for _ in range(r))
            lam = vec([F(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(r)])
            target = tuple(
                sum((lam[i] * basis[i][k] for i in range(r)), start=rat(0)) for k in range(r)
            )
            try:
                got = solve_coordinates(basis, target)
            except SingularBasis:
                continue
            done += 1
            assert got == lam


class TestSpanAndKernel:
    def test_solve_in_span(self):
        spanning = (vec((1, 0, 0)), vec((0, 1, 1)))
        assert solve_in_span(spanning, vec((2, 3, 3))) == (rat(2), rat(3))
        assert solve_in_span(spanning, vec((0, 1, 0))) is None

    def test_nullspace_orthogonality(self):
        rows = [vec((1, 1, 0, 0)), vec((0, 0, 1, -1))]
        kernel = nullspace(rows)
        assert len(kernel) == 2
        for v in kernel:
            for row in rows:
                assert vdot(row, v) == 0

    def test_rank_nullspace_and_span_match_oracle_randomized(self):
        rng = random.Random(6)
        for _ in range(300):
            m, n = rng.randint(1, 5), rng.randint(1, 6)
            # Rank-deficient and non-square: rows are combinations of fewer generators.
            gens = [_random_rationals(rng, n) for _ in range(rng.randint(1, m))]
            rows = [_combination(rng, gens, n) for _ in range(m)]
            independent = _oracle_independent(rows)
            assert rank(rows) == len(independent)
            kernel = nullspace(rows)
            assert len(kernel) == n - len(independent)
            assert len(_oracle_independent(kernel)) == len(kernel)
            assert all(vdot(row, v) == 0 for row in rows for v in kernel)
            inside = _combination(rng, independent, n)
            for target in (inside, _random_rationals(rng, n)):
                got = solve_in_span(independent, target)
                expected = gauss_solve(independent, target)
                if expected is None:
                    assert got is None
                else:
                    assert tuple(map(F, map(str, got))) == expected


def _random_rationals(rng, n) -> tuple:
    return vec([F(rng.choice((0, rng.randint(-6, 6))), rng.randint(1, 4)) for _ in range(n)])


def _combination(rng, vectors, n) -> tuple:
    return tuple(
        sum((F(rng.randint(-3, 3)) * v[k] for v in vectors), start=rat(0)) for k in range(n)
    )


def _oracle_independent(vectors) -> list:
    """A maximal independent subfamily, chosen greedily with the oracle: a vector
    joins when it is not a combination of those already chosen."""
    chosen = []
    for v in vectors:
        if any(c != 0 for c in v) and (not chosen or gauss_solve(chosen, v) is None):
            chosen.append(v)
    return chosen


def _leibniz_det(matrix) -> int:
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


class TestBareiss:
    def test_examples(self):
        assert int_adjugate(((2, 1), (7, 4))) == (((4, -1), (-7, 2)), 1)
        assert int_det(((0, 1), (1, 0))) == -1
        assert int_det(()) == 1
        assert int_adjugate(((1, 2), (2, 4))) == (None, 0)

    def test_matches_fraction_inverse_randomized(self):
        rng = random.Random(1968)
        done = 0
        while done < 400:
            n = rng.choice((1, 2, 3, 4, 5))
            # Zeros are common so that pivoting (row swaps) is exercised.
            matrix = tuple(tuple(rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)) for _ in range(n))
            adj, det = int_adjugate(matrix)
            assert det == _leibniz_det(matrix)
            # Column j of M^-1 solves M x = e_j.
            columns = tuple(zip(*matrix))
            inv_columns = [gauss_solve(columns, tuple(int(i == j) for i in range(n))) for j in range(n)]
            if inv_columns[0] is None:
                assert (adj, det) == (None, 0)
                continue
            done += 1
            assert all(isinstance(a, int) for row in adj for a in row)
            assert adj == tuple(tuple(det * inv_columns[j][i] for j in range(n)) for i in range(n))
