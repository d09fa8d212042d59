"""Permutohedron face modules, coinvariant algebras, and closed forms."""

import json
import re
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

import hessllt.characters
import hessllt.cli
from hessllt import linalg, permco
from hessllt.characters import (
    frobenius_char,
    frobenius_inverse,
    graded_dimension,
    regular_character,
    sign_character,
    trivial_character,
)
from hessllt.combinat import all_permutations, compose, identity_perm
from hessllt.errors import BudgetExceededError, VerificationError
from hessllt.gkm import GkmModel, quotient_graded_character
from hessllt.hessgraph import HessenbergFunction
from hessllt.linalg import SMALL_PRIMES, blocked_rref, certified_integer_nullspace
from hessllt.permco import (
    PermutohedronFace,
    coinvariant_closed_form_check,
    coinvariant_flag_cross_check,
    coinvariant_graded_character,
    complete_graph_agreement,
    eulerian_polynomial,
    f_vector,
    face_and_h_series,
    face_module_character,
    face_module_twin_check,
    faces,
    permco_report,
    q_binomial_sum_check,
    q_factorial,
)
from hessllt.qrat import QPoly, QRat
from oracles import (
    face_image,
    ideal_span_columns,
    polynomial_algebra_series,
    rational_palindromicity,
)


def stirling2(n, k):
    """Independent oracle: subset counts via the standard recurrence."""
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, min(i, k) + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


class TestFaces:
    def test_f_vectors(self):
        assert f_vector(2) == (2, 1)
        assert f_vector(3) == (6, 6, 1)
        assert f_vector(4) == (24, 36, 14, 1)
        assert f_vector(5) == (120, 240, 150, 30, 1)
        assert f_vector(6) == (720, 1800, 1560, 540, 62, 1)

    def test_counts_match_ordered_set_partitions(self):
        import math

        for n in range(2, 7):
            fv = f_vector(n)
            for dim in range(n):
                blocks = n - dim
                expected = math.factorial(blocks) * stirling2(n, blocks)
                assert fv[dim] == expected, (n, dim)

    def test_faces_grouped_by_dimension(self):
        for n in (2, 3, 4):
            grouped = faces(n)
            assert tuple(len(g) for g in grouped) == f_vector(n)
            for dim, group in enumerate(grouped):
                for face in group:
                    assert face.dimension == dim

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            faces(8)


class TestPermutohedronFace:
    def test_ordered_set_partition_round_trip(self):
        face = PermutohedronFace.from_ordered_set_partition(
            4, [{2, 4}, {1}, {3}]
        )
        assert len(face.chain) == 2
        assert face.dimension == 1
        blocks = face.to_ordered_set_partition()
        assert blocks == (frozenset({2, 4}), frozenset({1}), frozenset({3}))

    def test_whole_polytope(self):
        face = PermutohedronFace.from_ordered_set_partition(3, [{1, 2, 3}])
        assert len(face.chain) == 0
        assert face.dimension == 2

    def test_apply_and_fixed(self):
        face = PermutohedronFace.from_ordered_set_partition(3, [{1, 2}, {3}])
        swap12 = (2, 1, 3)
        assert face_image(face, swap12) == face
        assert face.is_fixed_by(swap12)
        swap23 = (1, 3, 2)
        moved = face_image(face, swap23)
        assert moved == PermutohedronFace.from_ordered_set_partition(3, [{1, 3}, {2}])
        assert not face.is_fixed_by(swap23)

    def test_group_action_law(self):
        face = PermutohedronFace.from_ordered_set_partition(4, [{1, 3}, {2, 4}])
        for u in all_permutations(4)[:8]:
            for v in all_permutations(4)[:8]:
                assert face_image(face, compose(u, v)) == face_image(face_image(face, v), u)

    def test_is_fixed_by_matches_the_image(self):
        for group in faces(4):
            for face in group:
                for sigma in all_permutations(4):
                    assert face.is_fixed_by(sigma) == (face_image(face, sigma) == face)


class TestFaceModules:
    def test_vertex_module_is_regular(self):
        assert face_module_character(3, 0) == regular_character(3)

    def test_top_module_is_trivial(self):
        assert face_module_character(3, 2) == trivial_character(3)
        assert face_module_character(4, 3) == trivial_character(4)

    def test_edge_module_values(self):
        chi = frobenius_inverse(face_module_character(3, 1))
        assert chi[(1, 1, 1)] == QRat.of(6)
        assert chi[(2, 1)] == QRat.of(2)  # two 2-block partitions survive a swap
        assert chi[(3,)] == QRat.zero()

    def test_series_dimensions(self):
        F, Hs = face_and_h_series(3)
        assert graded_dimension(F) == QRat(QPoly((6, 6, 1)))
        assert graded_dimension(Hs) == QRat(QPoly((1, 4, 1)))

    def test_eulerian_polynomials(self):
        expected = {
            1: (1,),
            2: (1, 1),
            3: (1, 4, 1),
            4: (1, 11, 11, 1),
            5: (1, 26, 66, 26, 1),
            6: (1, 57, 302, 302, 57, 1),
        }
        for n, coeffs in expected.items():
            assert eulerian_polynomial(n) == QPoly(coeffs)

    def test_twin_checks(self):
        for n in (2, 3, 4):
            checks = {c["name"]: c for c in face_module_twin_check(n)}
            assert all(c["passed"] for c in checks.values()), checks
            for name in (
                "h_series_equals_closed_form",
                "closed_form_sign_twist_is_twin_character",
                "shifted_face_series_is_llt_at_q_plus_one",
                "moment_graph_route_matches_twin_character",
            ):
                assert checks[name]["passed"], (n, name, checks[name])


def mahonian(n, d):
    """The permutations of [n] with d inversions, counted."""
    return sum(
        sum(w[a] > w[b] for a, b in combinations(range(n), 2)) == d for w in all_permutations(n)
    )


class TestCoinvariants:
    def test_staircase_nullspaces_match_the_ideal_span(self):
        for n in range(1, 6):
            for d in range(n * (n - 1) // 2 + 1):
                staircase = permco._staircase_columns(n, d)
                assert staircase.dtype == np.int32
                size = comb(n + d - 1, d) - mahonian(n, d)
                assert staircase.shape == (comb(n + d - 1, d), size), (n, d)
                if size:
                    assert blocked_rref(staircase, SMALL_PRIMES[0], full=False)[0] == size, (n, d)
                assert np.array_equal(
                    certified_integer_nullspace(staircase.T),
                    certified_integer_nullspace(ideal_span_columns(n, d).T),
                ), (n, d)

    @pytest.mark.parametrize("n", [4, 5])
    def test_each_degree_eliminates_its_ideal_piece_only(self, monkeypatch, n):
        # dim I_d rows per nullspace, and no elimination one degree above the top
        top = n * (n - 1) // 2
        handed, eliminated = [], []
        real_nullspace, real_rref = permco.certified_integer_nullspace, linalg.blocked_rref

        def nullspace(A):
            handed.append(A.shape)
            return real_nullspace(A)

        def rref(A, p, full=True):
            eliminated.append(np.shape(A))
            return real_rref(A, p, full)

        monkeypatch.setattr(permco, "certified_integer_nullspace", nullspace)
        monkeypatch.setattr(linalg, "blocked_rref", rref)
        coinvariant_graded_character(n)
        sizes = [comb(n + d - 1, d) for d in range(top + 2)]
        assert handed == [(sizes[d] - mahonian(n, d), sizes[d]) for d in range(top + 1)]
        assert eliminated and all(cols in sizes[: top + 1] for _, cols in eliminated)
        assert not any(sizes[top + 1] in shape for shape in eliminated)

    def test_nonvanishing_above_the_top_degree_raises(self, monkeypatch):
        # one monomial of degree top + 1 = 7 read as standard: the quotient
        # then has a nonzero piece there
        real = permco._leading_variable

        def one_standard_above_the_top(exps):
            out = real(exps)
            if exps[0].sum() == 7:
                out[len(out) // 2] = 0
            return out

        monkeypatch.setattr(permco, "_leading_variable", one_standard_above_the_top)
        with pytest.raises(ArithmeticError, match="does not vanish above the top degree"):
            coinvariant_graded_character(4)

    def test_a_generator_outside_the_ideal_is_refused(self, monkeypatch):
        # g_3 = h_3(t_3, t_4) without its last term t_4^3
        real = permco._complete_terms
        monkeypatch.setattr(
            permco, "_complete_terms",
            lambda n, k, degree: real(n, k, degree)[: -1 if k == degree == 3 else None],
        )
        with pytest.raises(ArithmeticError, match=re.escape(
            "g_3 does not lie in the ideal of the elementary symmetric polynomials"
        )):
            coinvariant_graded_character(4)

    def test_an_elementary_polynomial_with_a_remainder_is_refused(self, monkeypatch):
        # t_1 t_2 read as standard: no staircase column leads with it, so e_2 keeps it
        real = permco._leading_variable

        def t1_t2_standard(exps):
            out = real(exps)
            out[(exps == (1, 1, 0, 0)).all(axis=-1)] = 0
            return out

        monkeypatch.setattr(permco, "_leading_variable", t1_t2_standard)
        with pytest.raises(ArithmeticError, match=re.escape(
            "e_2 leaves a remainder modulo the staircase basis"
        )):
            coinvariant_graded_character(4)

    def test_graded_character_small(self):
        chi2 = frobenius_inverse(coinvariant_graded_character(2))
        assert chi2[(1, 1)] == QRat(QPoly((1, 1)))
        assert chi2[(2,)] == QRat(QPoly((1, -1)))
        chi3 = frobenius_inverse(coinvariant_graded_character(3))
        assert chi3[(1, 1, 1)] == QRat(QPoly((1, 2, 2, 1)))
        assert chi3[(2, 1)] == QRat(QPoly((1, 0, 0, -1)))
        assert chi3[(3,)] == QRat(QPoly((1, -1, -1, 1)))

    def test_q_factorial(self):
        assert q_factorial(1) == QPoly.one()
        assert q_factorial(2) == QPoly((1, 1))
        assert q_factorial(3) == QPoly((1, 2, 2, 1))
        assert q_factorial(4) == QPoly((1, 3, 5, 6, 5, 3, 1))

    def test_closed_forms(self):
        for n in (2, 3, 4):
            checks = coinvariant_closed_form_check(n)
            assert all(c["passed"] for c in checks), checks

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cleared_ring_checks_match_the_rational_route(self, monkeypatch, n):
        # the rational route: C[t] has character prod_k 1/(1 - q^k) times R,
        # palindromic with shift 1 and scale (-q)^n
        R = coinvariant_graded_character(n)
        odd = (trivial_character(n) - sign_character(n)).scale(Fraction(1, 2))
        invariants = QPoly.one()
        for k in range(1, n + 1):
            invariants = invariants * (QPoly.one() - QPoly.monomial(k))
        scale = QRat.q() ** n * (-1) ** n
        for chi in (R, R + odd):
            monkeypatch.setattr(permco, "coinvariant_graded_character", lambda n: chi)
            passed = {c["name"]: c["passed"] for c in coinvariant_closed_form_check(n)}
            ring = chi.scale(QRat(QPoly.one(), invariants))
            rational = {
                "polynomial_ring_factors_through_invariants": polynomial_algebra_series(n) == ring,
                "polynomial_ring_palindromicity": rational_palindromicity(ring, QRat.one(), True, scale),
            }
            # the odd-class bump is zero only at n = 1
            assert rational == {name: passed[name] for name in rational} == dict.fromkeys(rational, chi == R)

    def test_flag_cross_check(self):
        assert coinvariant_flag_cross_check(2)
        assert coinvariant_flag_cross_check(3)

    def test_flag_cross_check_follows_the_moment_graph_budget(self, monkeypatch):
        with pytest.raises(BudgetExceededError, match="cross-check supports n <= 4$"):
            coinvariant_flag_cross_check(5)
        monkeypatch.setattr(permco, "GKM_N_BUDGET", 2)
        with pytest.raises(BudgetExceededError, match="cross-check supports n <= 2$"):
            coinvariant_flag_cross_check(3)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            coinvariant_graded_character(6)


class TestGaussianBinomials:
    def test_small_cases(self):
        for n in range(2, 7):
            for i in range(1, n):
                assert q_binomial_sum_check(n, i), (n, i)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            q_binomial_sum_check(11, 2)


class TestCompleteGraph:
    def test_agreement(self):
        for n in (2, 3, 4):
            checks = complete_graph_agreement(n)
            assert all(c["passed"] for c in checks), checks

    def test_partition_keys(self):
        assert [c["name"] for c in complete_graph_agreement(3)] == [
            "complete-graph partition 3",
            "complete-graph partition 2.1",
            "complete-graph partition 1.1.1",
            "complete-graph totals",
        ]

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            complete_graph_agreement(6)


class TestReport:
    def test_report_n4(self):
        checks = permco_report(4)
        assert all(c["passed"] for c in checks)
        assert f_vector(4) == (24, 36, 14, 1)
        names = [c["name"] for c in checks]
        assert names == [
            "face-count-identity",
            "face-module-dimensions-match-f-vector",
            "h-series-dimensions-are-eulerian",
            "face-module-twin-law",
            "coinvariant-closed-forms",
            "coinvariant-moment-graph-cross-check",
            "gaussian-binomial-sums",
            "complete-graph-agreement",
        ]

    def test_report_n6_drops_oversized_scopes(self):
        checks = permco_report(6)
        assert all(c["passed"] for c in checks)
        names = [c["name"] for c in checks]
        assert "coinvariant-moment-graph-cross-check" not in names
        assert "complete-graph-agreement" not in names


def verify_permutohedron(capsys, n):
    """Exit code and {check name: passed} of `verify --scope permutohedron`."""
    code = hessllt.cli.main(["verify", "--scope", "permutohedron", "--n", str(n)])
    out, err = capsys.readouterr()
    checks = {c["name"]: c["passed"] for c in json.loads(out)["checks"]} if out else {}
    return code, checks, err


class TestRepresentativeAgreement:
    def test_disagreeing_representatives_fail(self, monkeypatch, capsys):
        # the identity as second representative of every two-element class
        real = hessllt.characters.class_representatives

        def patched(mu):
            reps = real(mu)
            return reps[:1] + [identity_perm(sum(mu))] if len(reps) == 2 else reps

        monkeypatch.setattr(hessllt.characters, "class_representatives", patched)
        with pytest.raises(VerificationError, match="disagree"):
            coinvariant_graded_character(3)
        model = GkmModel(HessenbergFunction((2, 2, 3)), "X")
        with pytest.raises(VerificationError, match="disagree"):
            quotient_graded_character(model, "t_vars")
        code, _, err = verify_permutohedron(capsys, 3)
        assert code == 1
        assert "computation failed" in err


class TestFaultInjection:
    """Corrupting one route of a dual-route check fails the report."""

    def test_perturbed_coinvariant_character(self, monkeypatch, capsys):
        real = permco.coinvariant_graded_character

        def perturbed(n):
            values = frobenius_inverse(real(n))
            values[(n,)] = values[(n,)] + QRat.q()
            return frobenius_char(n, values)

        monkeypatch.setattr(permco, "coinvariant_graded_character", perturbed)
        code, checks, _ = verify_permutohedron(capsys, 4)
        assert code == 1
        assert checks["n=4: coinvariant-closed-forms"] is False

    def test_missing_face_breaks_the_orbit_count(self, monkeypatch, capsys):
        real = permco.faces

        def one_vertex_short(n):
            by_dim = real(n)
            return (by_dim[0][1:],) + by_dim[1:]

        monkeypatch.setattr(permco, "faces", one_vertex_short)
        with pytest.raises(ArithmeticError, match="orbit formula"):
            face_module_character(4, 0)
        code, _, err = verify_permutohedron(capsys, 4)
        assert code == 1
        assert "computation failed" in err

    def test_llt_of_the_wrong_h(self, monkeypatch, capsys):
        real = permco.llt
        monkeypatch.setattr(permco, "llt", lambda h: real(HessenbergFunction((h.n,) * h.n)))
        code, checks, _ = verify_permutohedron(capsys, 4)
        assert code == 1
        assert checks["n=4: face-module-twin-law"] is False
