"""Moment-graph congruence spaces, group actions, quotients, localization."""

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

import hessllt.cli
import hessllt.linalg
from hessllt import gkm
from hessllt.characters import frobenius_inverse, standard_tableaux
from hessllt.errors import BudgetExceededError, VerificationError
from hessllt.gkm import (
    EquivariantClass,
    GkmModel,
    betti_numbers,
    degree_piece,
    equivariant_palindromicity_check,
    gkm_report,
    localization_equivariance_check,
    localization_pushforward,
    perm_monomial_map,
    quotient_graded_character,
    xi_transport,
)
from hessllt.hessgraph import HessenbergFunction, csf, hessenberg_all, llt
from hessllt.qrat import QRat
from hessllt.combinat import all_permutations, class_representatives, partitions_of, transposition
from oracles import (
    act_by_dicts,
    first_violated_edge_by_substitution,
    frac_rref,
    product_by_dicts,
    product_columns_all,
    pushforward_by_dicts,
    quotient_character_bruteforce,
    relabeling_map_by_lookup,
    shift_map_by_lookup,
    staircase_columns_by_lookup,
    subst_map_by_lookup,
    transported_space,
    values_by_lookup,
    xi_by_dicts,
)

H = HessenbergFunction.parse


def basis(model, d):
    """Basis columns of either flavor: the Y basis is the oracle's
    xi-transport of the X basis."""
    return (degree_piece if model.flavor == "X" else transported_space)(model, d).matrix


def models(text):
    mx = GkmModel(H(text), "X")
    return mx, mx.twin()


class TestModelShape:
    def test_vertices_and_edges(self):
        mx, my = models("2,2")
        assert mx.vertices == ((1, 2), (2, 1))
        assert len(mx.edges) == 1
        assert my.flavor == "Y"
        assert my.twin().flavor == "X"
        assert len(GkmModel(H("3,3,3"), "X").edges) == 3 * 6 // 2

    def test_flavor_validation(self):
        with pytest.raises(ValueError):
            GkmModel(H("2,2"), "Z")

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            GkmModel(HessenbergFunction([5] * 5), "X")


class TestDegreePieces:
    def test_dims_two_vertices(self):
        # pairs of homogeneous polynomials in t1,t2 agreeing under t1=t2:
        # one linear condition per degree, so dims 2(d+1) - 1
        mx, my = models("2,2")
        for model in (mx, my):
            assert degree_piece(model, 0).dim == 1
            assert degree_piece(model, 1).dim == 3
            assert degree_piece(model, 2).dim == 5

    def test_identity_trace_is_dimension(self):
        mx, my = models("2,3,3")
        for model in (mx, my):
            for d in range(3):
                space = degree_piece(model, d)
                assert space.trace((1, 2, 3)) == space.dim

    def test_transposition_traces_two_vertices(self):
        # hand computation on the bases {t1, t2, (t1 at id, t2 at w)}
        mx, my = models("2,2")
        assert degree_piece(mx, 0).trace((2, 1)) == 1
        assert degree_piece(mx, 1).trace((2, 1)) == 1
        assert degree_piece(my, 0).trace((2, 1)) == 1
        assert degree_piece(my, 1).trace((2, 1)) == 1

    def test_degree_budget(self):
        mx, _ = models("2,2")
        with pytest.raises(BudgetExceededError):
            degree_piece(mx, H("2,2").size() + 4)

    def test_certified_path_reports_certificate(self):
        mx = GkmModel(H("2,3,4,4"), "X")
        space = degree_piece(mx, 1)
        assert space.dim == 15
        cert = space.certificate
        assert cert["twin_dimension"] == 15
        assert cert["exhibited"] == 15
        assert cert["route"] == "crt-lift"

    def test_corrupted_lift_is_caught(self, monkeypatch, capsys):
        real = hessllt.linalg.lift_vector

        def corrupted(residues, moduli):
            vec = real(residues, moduli)
            if vec is not None:
                vec[0] += 1
            return vec

        monkeypatch.setattr(hessllt.linalg, "lift_vector", corrupted)
        monkeypatch.setattr(gkm, "_space_cache", {})
        with pytest.raises(ArithmeticError):
            degree_piece(GkmModel(H("2,3,4,4"), "X"), 1)
        assert hessllt.cli.main(["verify", "--scope", "gkm", "--h", "2,3,4,4"]) == 1
        assert "computation failed" in capsys.readouterr().err

    def test_crt_lift_builds_constraint_matrix_once(self, monkeypatch):
        monkeypatch.setattr(gkm, "_space_cache", {})
        mx = GkmModel(H("2,3,4,4"), "X")
        degree_piece(mx, 0)
        calls = []
        real = gkm._constraint_matrix

        def counting(model, d):
            calls.append(d)
            return real(model, d)

        monkeypatch.setattr(gkm, "_constraint_matrix", counting)
        assert degree_piece(mx, 1).certificate["route"] == "crt-lift"
        assert calls == [1]


class TestSmallPiecesAgainstFraction:
    """At n <= 3 every degree piece is checked against an exact Fraction
    elimination of its constraint matrix: the X basis, and for Y the
    dimension from the irreducibles and the oracle's transported basis."""

    def test_every_piece_matches_its_fraction_nullity(self, monkeypatch):
        monkeypatch.setattr(gkm, "_space_cache", {})
        routes = set()
        for n in (1, 2, 3):
            for h in hessenberg_all(n):
                for flavor in ("X", "Y"):
                    model = GkmModel(h, flavor)
                    for d in range(h.size() + 2):
                        if flavor == "X":
                            routes.add(degree_piece(model, d).certificate["route"])
                        C = gkm._constraint_matrix(model, d)
                        rows = [[Fraction(int(x)) for x in row] for row in C]
                        rank = frac_rref(rows)[0] if rows else 0
                        assert degree_piece(model, d).dim == C.shape[1] - rank, (h, flavor, d)
                        B = basis(model, d).astype(object)
                        assert not np.any(C.astype(object) @ B), (h, flavor, d)
                        cols = [[Fraction(int(x)) for x in col] for col in B.T]
                        assert frac_rref(cols)[0] == C.shape[1] - rank, (h, flavor, d)
        assert {"crt-lift", "products"} <= routes
        edgeless = degree_piece(GkmModel(H("1,2,3"), "X"), 0)
        assert edgeless.dim == 6
        assert edgeless.certificate["route"] == "crt-lift"


def merged_gather(real):
    """A xi gather whose second coordinate reads the first one's source."""

    def merged(model, d):
        gather = real(model, d)
        gather[1] = gather[0]
        return gather

    return merged


class TestXiCertificate:
    """Flavor X is certified through the xi bijection with flavor Y, whose
    dimension comes from the irreducibles, not by a rank of its own
    constraint matrix."""

    def test_report_builds_flavor_x_constraint_matrices_only(self, monkeypatch):
        monkeypatch.setattr(gkm, "_space_cache", {})
        flavors = []
        real = gkm._constraint_matrix

        def recording(model, d):
            flavors.append(model.flavor)
            return real(model, d)

        monkeypatch.setattr(gkm, "_constraint_matrix", recording)
        assert all(c["passed"] for c in gkm_report(H("2,3,4,4")))
        assert flavors and set(flavors) == {"X"}

    def test_x_piece_meets_the_twin_dimension(self):
        mx, my = models("2,3,4,4")
        for d in range(H("2,3,4,4").size() + 2):
            cert = degree_piece(mx, d).certificate
            assert cert["twin_dimension"] == cert["exhibited"] == degree_piece(my, d).dim
            assert degree_piece(my, d).dim == sum(
                len(standard_tableaux(lam)) * k for lam, k in degree_piece(my, d).kernel_dims.items())

    def test_each_flavor_has_its_own_piece(self):
        mx, my = models("2,3,3")
        for d in range(mx.h.size() + 2):
            space, twin = degree_piece(mx, d), degree_piece(my, d)
            assert isinstance(space, gkm.GkmSpace) and isinstance(twin, gkm.TwinPiece)
            assert twin.model.flavor == "Y" and twin.dim == space.dim

    @pytest.mark.parametrize("text", ["3,3,3", "2,3,4,4"])
    def test_gather_sending_two_monomials_to_one_is_caught(self, monkeypatch, text):
        monkeypatch.setattr(gkm, "_xi_gather", merged_gather(gkm._xi_gather))
        h = H(text)
        for d in range(h.size() + 2):
            monkeypatch.setattr(gkm, "_space_cache", {})
            with pytest.raises(ArithmeticError, match="permutation"):
                degree_piece(GkmModel(h, "X"), d)

    def test_mismatched_edge_label_is_caught(self, monkeypatch):
        h = H("3,3,3")
        mx = GkmModel(h, "X")
        iu, iv, a, b = mx.edges[0]
        c = next(k for k in range(1, h.n + 1) if k not in (a, b))
        mx.edges = ((iu, iv, a, c),) + mx.edges[1:]
        for d in range(h.size() + 2):
            monkeypatch.setattr(gkm, "_space_cache", {})
            with pytest.raises(ArithmeticError, match="xi-images"):
                degree_piece(mx, d)

    def test_gather_fault_fails_the_cli(self, monkeypatch, capsys):
        monkeypatch.setattr(gkm, "_xi_gather", merged_gather(gkm._xi_gather))
        monkeypatch.setattr(gkm, "_space_cache", {})
        assert hessllt.cli.main(["verify", "--scope", "gkm", "--h", "3,3,3"]) == 1
        err = capsys.readouterr().err
        assert "computation failed" in err
        assert "Traceback" not in err


def twin_cases():
    """Every h with n <= 3, and 2,3,4,4 and 4,4,4,4."""
    hs = [h for n in (1, 2, 3) for h in hessenberg_all(n)] + [H("2,3,4,4"), H("4,4,4,4")]
    return [",".join(map(str, h.values)) for h in hs]


class TestTwinAgainstTransport:
    """The flavor-Y pieces from the irreducibles against the oracle's
    xi-transported bases and their SubspaceTracer traces: the dimension and
    the dagger trace of every class representative at every degree up to
    |h| + 1, and the dimension against the mod-p nullity of the Y
    constraint matrix."""

    @pytest.mark.parametrize("text", twin_cases())
    def test_dims_and_dagger_traces(self, text):
        my = GkmModel(H(text), "Y")
        for d in range(my.h.size() + 2):
            twin, transported = degree_piece(my, d), transported_space(my, d)
            C = gkm._constraint_matrix(my, d)
            nullity = C.shape[1] - hessllt.linalg.blocked_rref(C, hessllt.linalg.SMALL_PRIMES[1], full=False)[0]
            assert twin.dim == transported.dim == nullity, d
            for mu in partitions_of(my.n):
                for sigma in class_representatives(mu):
                    assert twin.trace(sigma) == transported.trace(sigma), (d, sigma)


class TestEquivariantClasses:
    def test_one_t_x(self):
        mx, my = models("2,2")
        assert list(EquivariantClass.one(mx).coords) == [1, 1]
        assert list(EquivariantClass.t_class(mx, 2).coords) == [0, 1, 0, 1]
        x1 = EquivariantClass.x_class(mx, 1)
        assert list(x1.coords) == [1, 0, 0, 1]
        assert x1 == EquivariantClass(mx, 1, [1, 0, 0, 1])
        assert values_by_lookup(mx, 1, x1.coords) == [{(1, 0): 1}, {(0, 1): 1}]
        with pytest.raises(ValueError):
            EquivariantClass.x_class(my, 1)

    def test_verify_rejects_noncongruent(self):
        mx, _ = models("2,2")
        # t_1 at (1, 2) and 2 t_1 at (2, 1): the difference survives t_2 := t_1
        with pytest.raises(VerificationError, match=re.escape("on edge ((1, 2), (2, 1))")):
            EquivariantClass(mx, 1, [1, 0, 2, 0])

    def test_constructor_rejects_a_wrong_shape(self):
        mx, _ = models("2,2")
        for coords in ([1, 0, 1], np.zeros((4, 1, 1), dtype=np.int64)):
            with pytest.raises(ValueError, match="one coordinate per"):
                EquivariantClass(mx, 1, coords)

    def test_constructor_refuses_non_integer_entries(self):
        # the pushforward's int64 cast would truncate them: x_1 / 2 pushed forward to {}
        mx, _ = models("2,2")
        coords = EquivariantClass.x_class(mx, 1).coords
        halves = coords.astype(object) * Fraction(1, 2)
        for bad in (coords * 0.5, coords.astype(float), coords * 1j, halves, coords.astype(object) * Fraction(1)):
            with pytest.raises(TypeError, match="coordinates must be integers"):
                EquivariantClass(mx, 1, bad)

    def test_constructor_takes_int64_and_python_ints(self):
        mx, _ = models("2,2")
        coords = EquivariantClass.x_class(mx, 1).coords
        for good in (coords, coords.astype(object), coords.tolist(), coords.astype(object) * (1 << 70)):
            f = EquivariantClass(mx, 1, good)
            scale = int(good[0])
            assert localization_pushforward(f) == {(0, 0): -scale}

    def test_dot_fixes_tautological_classes(self):
        for text in ("2,2", "2,3,3", "3,3,3"):
            mx, _ = models(text)
            n = mx.n
            for i in range(1, n + 1):
                xi = EquivariantClass.x_class(mx, i)
                for sigma in all_permutations(n):
                    assert xi.act(sigma) == xi

    def test_dot_permutes_t_classes(self):
        mx, _ = models("2,3,3")
        sigma = (2, 3, 1)
        t1 = EquivariantClass.t_class(mx, 1)
        assert t1.act(sigma) == EquivariantClass.t_class(mx, sigma[0])

    def test_dagger_fixes_t_classes(self):
        _, my = models("2,3,3")
        t2 = EquivariantClass.t_class(my, 2)
        for sigma in all_permutations(3):
            assert t2.act(sigma) == t2

    def test_multiplication(self):
        mx, _ = models("2,2")
        x1 = EquivariantClass.x_class(mx, 1)
        sq = x1 * x1
        assert sq.degree == 2
        assert list(sq.coords) == [1, 0, 0, 0, 0, 1]  # t_1^2 at (1, 2), t_2^2 at (2, 1)
        batch = EquivariantClass(mx, 1, degree_piece(mx, 1).matrix)
        with pytest.raises(ValueError, match="single classes"):
            batch * x1

    def test_multiplication_across_models(self):
        # classes on two equal models built separately multiply like classes
        # on one model; a different h or flavor is refused
        mx, my = models("2,3,3")
        again = GkmModel(H("2,3,3"), "X")
        assert again is not mx
        x1, t2 = EquivariantClass.x_class(mx, 1), EquivariantClass.t_class(mx, 2)
        assert x1 * EquivariantClass.t_class(again, 2) == x1 * t2
        assert EquivariantClass.x_class(again, 1) * t2 == x1 * t2
        for other in (EquivariantClass.t_class(my, 2),
                      EquivariantClass.t_class(GkmModel(H("3,3,3"), "X"), 2)):
            with pytest.raises(ValueError, match="classes live on different models"):
                x1 * other
            with pytest.raises(ValueError, match="classes live on different models"):
                other * x1


class TestQuotientCharacters:
    def test_two_vertex_literals(self):
        # dot/t: (q+1) on both classes; dot/x and dagger/t: q+1 and 1-q
        mx, my = models("2,2")
        q = QRat.q()
        dot_t = quotient_graded_character(mx, "t_vars")
        assert frobenius_inverse(dot_t) == {(2,): q + 1, (1, 1): q + 1}
        dot_x = quotient_graded_character(mx, "x_classes")
        assert frobenius_inverse(dot_x) == {(2,): 1 - q, (1, 1): q + 1}
        dag_t = quotient_graded_character(my, "t_vars")
        assert dag_t == dot_x

    def test_quotient_matches_symmetric_functions(self):
        for text in ("2,2", "2,3,3", "3,3,3"):
            mx, my = models(text)
            h = mx.h
            assert quotient_graded_character(mx, "t_vars") == csf(h).omega()
            assert quotient_graded_character(mx, "x_classes") == llt(h)
            assert quotient_graded_character(my, "t_vars") == llt(h)

    def test_koszul_equals_bruteforce(self):
        for text in ("2,2", "1,2", "2,3,3", "3,3,3"):
            mx, my = models(text)
            for model, gens in ((mx, "t_vars"), (mx, "x_classes"), (my, "t_vars")):
                koszul = quotient_graded_character(model, gens)
                brute = quotient_character_bruteforce(model, gens)
                assert koszul == brute, (text, model.flavor, gens)

    def test_perturbed_exterior_traces_break_koszul_against_bruteforce(self, monkeypatch):
        # shows that test_koszul_equals_bruteforce can fail: one exterior
        # trace off by one changes every Koszul character it enters
        exterior = gkm._exterior_generator_traces

        def off_by_one(sigma, permuted):
            coeffs = exterior(sigma, permuted)
            coeffs[1] += 1
            return coeffs

        mx, my = models("2,3,3")
        combos = ((mx, "t_vars"), (mx, "x_classes"), (my, "t_vars"))
        brute = [quotient_character_bruteforce(*combo) for combo in combos]
        monkeypatch.setattr(gkm, "_exterior_generator_traces", off_by_one)
        for combo, expected in zip(combos, brute):
            assert quotient_graded_character(*combo) != expected, (combo[0].flavor, combo[1])

    def test_vanishing_beyond_top_degree(self):
        mx, _ = models("2,3,3")
        size = mx.h.size()
        chi = quotient_graded_character(mx, "t_vars", max_d=size + 1)
        assert chi == quotient_graded_character(mx, "t_vars")

    def test_invalid_combinations(self):
        mx, my = models("2,2")
        with pytest.raises(ValueError):
            quotient_graded_character(my, "x_classes")
        with pytest.raises(ValueError):
            quotient_graded_character(mx, "y_classes")


class TestXiTransport:
    def test_t_goes_to_x(self):
        mx, my = models("2,3,3")
        for i in (1, 2, 3):
            assert xi_transport(EquivariantClass.t_class(my, i)) == EquivariantClass.x_class(mx, i)

    def test_round_trip(self):
        mx, my = models("2,3,3")
        space = transported_space(my, 2)
        for col in space.matrix.T[:3]:
            f = EquivariantClass(my, 2, col)
            assert xi_transport(xi_transport(f)) == f

    def test_intertwines_actions(self):
        mx, my = models("2,3,3")
        f = EquivariantClass.t_class(my, 1) * EquivariantClass.t_class(my, 2)
        for sigma in ((2, 1, 3), (2, 3, 1)):
            lhs = xi_transport(f.act(sigma))
            rhs = xi_transport(f).act(sigma)
            assert lhs == rhs


class TestLocalization:
    def test_push_forward_constants_to_zero(self):
        mx, _ = models("2,2")
        assert localization_pushforward(EquivariantClass.one(mx)) == {}
        assert localization_pushforward(EquivariantClass.t_class(mx, 1)) == {}

    def test_push_forward_tautological_class(self):
        mx, _ = models("2,2")
        x1 = EquivariantClass.x_class(mx, 1)
        assert localization_pushforward(x1) == {(0, 0): Fraction(-1)}

    def test_integrality_on_basis(self):
        mx, _ = models("2,3,3")
        for d in range(H("2,3,3").size() + 1):
            space = degree_piece(mx, d)
            for col in space.matrix.T:
                f = EquivariantClass(mx, d, col)
                localization_pushforward(f)  # must not raise

    def test_failed_division_fails_the_report(self, monkeypatch):
        def refuse(a, i, j):
            raise ValueError("polynomial is not divisible by the linear form")

        monkeypatch.setattr(gkm, "mp_divide_linear", refuse)
        mx, _ = models("2,2")
        with pytest.raises(VerificationError):
            localization_pushforward(EquivariantClass.x_class(mx, 1))
        checks = {c["name"]: c["passed"] for c in gkm_report(H("2,2"))}
        assert checks["localization-integrality-and-equivariance"] is False
        assert hessllt.cli.main(["verify", "--scope", "gkm", "--h", "2,2"]) == 1

    def test_equivariance(self):
        mx, _ = models("2,3,3")
        f = EquivariantClass.x_class(mx, 1) * EquivariantClass.x_class(mx, 2)
        for sigma in ((2, 1, 3), (3, 1, 2)):
            assert localization_equivariance_check(f, sigma)


def batch_cases():
    """(h, d) for every h with n <= 3 and for 2,3,4,4, at every d <= |h|."""
    hs = [h for n in (1, 2, 3) for h in hessenberg_all(n)] + [H("2,3,4,4")]
    return [(",".join(map(str, h.values)), d) for h in hs for d in range(h.size() + 1)]


def column(poly, k):
    """Column k of a polynomial with vector coefficients."""
    return {e: c[k] for e, c in poly.items() if c[k]}


def generators(n):
    """The two generators gkm_report checks equivariance with."""
    return [transposition(n, 1, 2), tuple(range(2, n + 1)) + (1,)] if n >= 2 else []


class TestBatchLocalization:
    """One batch class per degree piece against the per-class route."""

    @pytest.mark.parametrize("text, d", batch_cases())
    def test_batch_matches_per_class(self, text, d):
        mx, _ = models(text)
        space = degree_piece(mx, d)
        batch = EquivariantClass(mx, d, space.matrix)
        pushed = localization_pushforward(batch)
        singles = [EquivariantClass(mx, d, col) for col in space.matrix.T]
        for k, f in enumerate(singles):
            assert column(pushed, k) == localization_pushforward(f), k
        assert all(type(x) is int for c in pushed.values() for x in c)
        for sigma in generators(mx.n):
            assert localization_equivariance_check(batch, sigma) == all(
                localization_equivariance_check(f, sigma) for f in singles
            )

    @pytest.mark.parametrize("text", ["2,2,3", "3,3,3"])
    def test_equivariance_check_sees_an_act_that_does_nothing_only_above_the_top(self, text, monkeypatch):
        # below |h| + 1 the pushforward is zero or a constant, which every
        # permutation fixes, so only degree |h| + 1 can tell the two acts apart
        mx, _ = models(text)
        top = mx.h.size()
        batches = [EquivariantClass(mx, d, degree_piece(mx, d).matrix) for d in range(top + 2)]
        sigmas = generators(mx.n)
        assert all(localization_equivariance_check(batches[-1], s) for s in sigmas)
        monkeypatch.setattr(EquivariantClass, "act", lambda self, sigma: self)
        assert not any(localization_equivariance_check(batches[-1], s) for s in sigmas)
        assert all(localization_equivariance_check(b, s) for b in batches[:-1] for s in sigmas)

    def test_batch_values_are_the_basis_rows(self):
        mx, _ = models("2,3,3")
        space = degree_piece(mx, 2)
        batch = EquivariantClass(mx, 2, space.matrix)
        for k in range(space.dim):
            single = EquivariantClass(mx, 2, space.matrix[:, k])
            assert np.array_equal(batch.coords[:, k], single.coords)
        assert batch == EquivariantClass(mx, 2, space.matrix.astype(object))
        assert batch != EquivariantClass(mx, 2, space.matrix * 2)

    def test_one_nondivisible_column_raises(self):
        mx, _ = models("2,3,3")
        space = degree_piece(mx, 1)
        bad = np.zeros((space.matrix.shape[0], 1), dtype=space.matrix.dtype)
        bad[0, 0] = 1  # t_1 at the first vertex only: violates the congruences
        matrix = np.concatenate([space.matrix[:, :1], bad, space.matrix[:, 1:]], axis=1)
        localization_pushforward(EquivariantClass(mx, 1, space.matrix))
        # the constructor refuses the batch before any division;
        # test_failed_division_fails_the_report covers a failed division
        with pytest.raises(VerificationError):
            EquivariantClass(mx, 1, matrix)

    def test_big_entries_stay_exact(self):
        mx, _ = models("2,3,3")
        space = degree_piece(mx, 2)
        big = (1 << 64) + 7
        matrix = space.matrix.astype(object) * big
        pushed = localization_pushforward(EquivariantClass(mx, 2, matrix))
        plain = localization_pushforward(EquivariantClass(mx, 2, space.matrix))
        assert pushed.keys() == plain.keys()
        for e, c in pushed.items():
            assert list(c) == [x * big for x in plain[e]]


def oracle_cases():
    """(h, d) for every h with n <= 3 and for 2,3,4,4, at every d <= |h| + 1."""
    hs = [h for n in (1, 2, 3) for h in hessenberg_all(n)] + [H("2,3,4,4")]
    return [(",".join(map(str, h.values)), d) for h in hs for d in range(h.size() + 2)]


class TestPushforwardAgainstDicts:
    """The numerator formed on the coordinates against the per-vertex dict
    route of the oracle, on every basis piece of oracle_cases, as one batch
    and column by column, on int64 coordinates, on Python ints and on Python
    ints past the int64 bound."""

    @pytest.mark.parametrize("text, d", oracle_cases())
    def test_pushforward_matches_the_dict_route(self, text, d):
        mx, _ = models(text)
        matrix = degree_piece(mx, d).matrix
        expected = pushforward_by_dicts(mx, d, matrix)
        big = (1 << 64) + 7
        for coords, scale in ((matrix, 1), (matrix.astype(object), 1), (matrix.astype(object) * big, big)):
            scaled = {e: c * scale for e, c in expected.items()}
            assert_same_values([localization_pushforward(EquivariantClass(mx, d, coords))], [scaled])
            for k in range(matrix.shape[1]):
                single = localization_pushforward(EquivariantClass(mx, d, coords[:, k]))
                assert single == column(scaled, k), k



def dict_cases():
    """(h, d) for every h with n <= 3 at every d <= |h| + 1, and 2,3,4,4 at d <= 2."""
    hs = [h for n in (1, 2, 3) for h in hessenberg_all(n)]
    cases = [(",".join(map(str, h.values)), d) for h in hs for d in range(h.size() + 2)]
    return cases + [("2,3,4,4", d) for d in range(3)]


def product_cases():
    """The (h, d) of dict_cases whose products with degree-1 classes stay in
    dict_cases."""
    cases = dict_cases()
    return [(text, d) for text, d in cases if (text, d + 1) in cases]


def assert_same_values(got, expected):
    """Two lists of per-vertex dicts agree monomial for monomial, with
    scalar or row-vector coefficients."""
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.keys() == e.keys()
        for mono, c in g.items():
            assert np.array_equal(c, e[mono]), mono


class TestCoordinatesAgainstDicts:
    """The coordinate verifier, actions, xi and product of EquivariantClass
    against the per-vertex dict oracles, entry for entry, on every basis
    column of every piece of dict_cases, in both flavors."""

    @pytest.mark.parametrize("flavor", ["X", "Y"])
    @pytest.mark.parametrize("text, d", dict_cases())
    def test_verifier_names_the_same_first_edge(self, text, d, flavor):
        model = GkmModel(H(text), flavor)
        columns = basis(model, d)
        size = columns.shape[0]
        units = np.eye(size, dtype=np.int64)
        mons = columns.shape[0] // len(model.vertices)
        across = [units[iu * mons + m] - units[iv * mons + m]
                  for iu, iv, _, _ in model.edges for m in range(mons)]
        for col in list(columns.T) + list(units) + across:
            edge = first_violated_edge_by_substitution(model, values_by_lookup(model, d, col))
            if edge is None:
                EquivariantClass(model, d, col)  # must not raise
                continue
            iu, iv, a, b = edge
            named = f"on edge ({model.vertices[iu]}, {model.vertices[iv]}) with label t_{a} - t_{b}"
            with pytest.raises(VerificationError, match=re.escape(named)):
                EquivariantClass(model, d, col)

    @pytest.mark.parametrize("flavor", ["X", "Y"])
    @pytest.mark.parametrize("text, d", dict_cases())
    def test_actions_and_xi(self, text, d, flavor):
        model = GkmModel(H(text), flavor)
        columns = basis(model, d)
        batch = EquivariantClass(model, d, columns)
        values = values_by_lookup(model, d, columns)
        for sigma in all_permutations(model.n):
            moved = batch.act(sigma)
            expected = act_by_dicts(model, values, sigma)
            assert_same_values(values_by_lookup(model, d, moved.coords), expected)
        moved = xi_transport(batch)
        assert moved.model.flavor != flavor
        assert_same_values(values_by_lookup(model, d, moved.coords), xi_by_dicts(model, values))

    @pytest.mark.parametrize("flavor", ["X", "Y"])
    @pytest.mark.parametrize("text, d", product_cases())
    def test_product(self, text, d, flavor):
        model = GkmModel(H(text), flavor)
        factors = [EquivariantClass(model, 1, col) for col in basis(model, 1).T]
        factors += [EquivariantClass.t_class(model, i) for i in range(1, model.n + 1)]
        if flavor == "X":
            factors += [EquivariantClass.x_class(model, i) for i in range(1, model.n + 1)]
        for col in basis(model, d).T:
            f = EquivariantClass(model, d, col)
            for g in factors:
                expected = product_by_dicts(values_by_lookup(model, d, col), values_by_lookup(model, 1, g.coords))
                assert_same_values(values_by_lookup(model, d + 1, (f * g).coords), expected)


class TestTopology:
    def test_betti_numbers(self):
        assert betti_numbers(H("2,2")) == [1, 1]
        assert betti_numbers(H("1,2,3")) == [6]
        assert betti_numbers(H("1,3,3")) == [3, 3]
        assert betti_numbers(H("2,3,3")) == [1, 4, 1]
        assert betti_numbers(H("3,3,3")) == [1, 2, 2, 1]

    def test_equivariant_palindromicity(self):
        for text in ("2,2", "2,3,3", "3,3,3"):
            assert equivariant_palindromicity_check(H(text))


class TestMonomialRelabeling:
    def test_identity(self):
        pm = perm_monomial_map((1, 2, 3), 2)
        assert list(pm) == list(range(len(pm)))

    def test_swap_two_variables(self):
        assert list(perm_monomial_map((2, 1), 1)) == [1, 0]
        assert list(perm_monomial_map((2, 1), 2)) == [2, 1, 0]

    def test_involution(self):
        pm = perm_monomial_map((2, 1, 3), 3)
        assert [pm[pm[i]] for i in range(len(pm))] == list(range(len(pm)))


class TestReport:
    def test_report_passes(self):
        checks = gkm_report(H("2,3,3"))
        assert all(c["passed"] for c in checks)
        assert betti_numbers(H("2,3,3")) == [1, 4, 1]
        names = {c["name"] for c in checks}
        assert "free-module-dimension-law" in names
        assert "twin-quotient-equals-x-quotient" in names
        assert "localization-integrality-and-equivariance" in names


class TestIndexMapsAgainstLookup:
    """The index maps, placed by multipoly.monomial_positions, against the
    tuple-lookup oracles, entry for entry, for n <= 4 and d <= |h| + 1."""

    @staticmethod
    def degrees(n):
        return range(n * (n - 1) // 2 + 2)

    def test_relabeling(self):
        for n in range(1, 5):
            for tau in all_permutations(n):
                for d in self.degrees(n):
                    assert np.array_equal(perm_monomial_map(tau, d), relabeling_map_by_lookup(tau, d))

    def test_shift(self):
        for n in range(1, 5):
            for i in range(1, n + 1):
                for d in self.degrees(n)[1:]:
                    assert np.array_equal(gkm._mono_shift_map(n, d, i), shift_map_by_lookup(n, d, i))

    def test_substitution(self):
        for n in range(2, 5):
            for a, b in itertools.permutations(range(1, n + 1), 2):
                for d in self.degrees(n):
                    assert np.array_equal(gkm._subst_map(n, d, a, b), subst_map_by_lookup(n, d, a, b))

    def test_staircase(self):
        for n in range(1, 5):
            for h in hessenberg_all(n):
                model = GkmModel(h, "X")
                for d in range(h.size() + 2):
                    expected = staircase_columns_by_lookup(model, d)
                    assert np.array_equal(gkm._staircase_columns(model, d), expected), (h, d)

    def test_every_piece_matches_the_one_built_from_the_lookup_maps(self, monkeypatch):
        # the X bases entry for entry, the Y kernel dimensions irreducible by irreducible
        cases = [(GkmModel(h, "X"), d) for n in range(1, 5) for h in hessenberg_all(n)
                 for d in range(h.size() + 2)]
        fast = [degree_piece(model, d).matrix for model, d in cases]
        kernels = [degree_piece(model.twin(), d).kernel_dims for model, d in cases]
        monkeypatch.setattr(gkm, "_space_cache", {})
        monkeypatch.setattr(gkm, "perm_monomial_map", relabeling_map_by_lookup)
        monkeypatch.setattr(gkm, "_mono_shift_map", shift_map_by_lookup)
        monkeypatch.setattr(gkm, "_subst_map", subst_map_by_lookup)
        monkeypatch.setattr(gkm, "_staircase_columns", staircase_columns_by_lookup)
        for (model, d), matrix, dims in zip(cases, fast, kernels):
            assert np.array_equal(degree_piece(model, d).matrix, matrix), (model, d)
            assert degree_piece(model.twin(), d).kernel_dims == dims, (model, d)


class TestExactVerification:
    """_verify_columns sums in int64 up to _EXACT_ENTRY_BOUND and in Python
    ints beyond it."""

    def test_scaled_piece_verifies_and_one_changed_entry_names_its_edge(self):
        mx = GkmModel(H("2,3,3"), "X")
        scaled = degree_piece(mx, 2).matrix * (1 << 41)
        assert scaled.dtype == np.int64
        assert int(np.abs(scaled).max()) > gkm._EXACT_ENTRY_BOUND
        gkm._verify_columns(mx, 2, scaled)
        iu, iv, a, b = mx.edges[0]
        assert iu == 0
        scaled[0, 0] += 1
        edge = f"({mx.vertices[iu]}, {mx.vertices[iv]}) with label t_{a} - t_{b}"
        with pytest.raises(ArithmeticError, match=re.escape(f"degree-2 congruence on edge {edge}")):
            gkm._verify_columns(mx, 2, scaled)


# The degrees d <= |h| + 1 whose flavor-X piece is pinned by the CRT lift,
# as they were before the last-variable rule (every other degree takes the
# products route).  The rule changed none of them, nor any at d <= |h| + 3.
CRT_LIFT_DEGREES = {
    "1": (), "1,2": (0,), "2,2": (), "1,2,3": (0,), "1,3,3": (0, 1), "2,2,3": (0, 1), "2,3,3": (1,),
    "3,3,3": (), "1,2,3,4": (0,), "1,2,4,4": (0, 1), "1,3,3,4": (0, 1), "1,3,4,4": (0, 1, 2),
    "1,4,4,4": (0, 1, 2, 3), "2,2,3,4": (0, 1), "2,2,4,4": (0, 1, 2), "2,3,3,4": (0, 1, 2),
    "2,3,4,4": (1, 2), "2,4,4,4": (1, 2, 3), "3,3,3,4": (0, 1, 2, 3), "3,3,4,4": (1, 2, 3),
    "3,4,4,4": (2, 3), "4,4,4,4": (),
}


class TestLastVariableRule:
    """_product_columns forms t_i * f only where i is at least the last
    variable of f.  Against the all-products oracle the certificates and
    the spans agree; on 4,4,4,4, whose X is free over Q[t] on the staircase
    classes, the candidates of every degree are exactly a basis; and a
    shortfall still falls back to the CRT lift."""

    def test_spans_and_certificates_match_all_products(self, monkeypatch):
        # spans by Fraction rank at n <= 3, by rank mod p on 2,3,4,4 (both
        # sides are verified X classes, so the Q rank cannot exceed dim X_d)
        cases = [(GkmModel(h, "X"), d) for n in (1, 2, 3) for h in hessenberg_all(n) for d in range(h.size() + 2)]
        cases += [(GkmModel(H("2,3,4,4"), "X"), d) for d in range(H("2,3,4,4").size() + 2)]
        monkeypatch.setattr(gkm, "_space_cache", {})
        lean = [degree_piece(model, d) for model, d in cases]
        monkeypatch.setattr(gkm, "_space_cache", {})
        monkeypatch.setattr(gkm, "_product_columns", product_columns_all)
        for (model, d), piece in zip(cases, lean):
            full = degree_piece(model, d)
            assert piece.certificate == full.certificate, (model, d)
            both = np.concatenate([piece.matrix, full.matrix], axis=1)
            if model.n <= 3:
                rank = frac_rref([[Fraction(int(x)) for x in col] for col in both.T])[0]
            else:
                rank = hessllt.linalg.blocked_rref(both, hessllt.linalg.SMALL_PRIMES[1], full=False)[0]
            assert rank == piece.dim == full.dim, (model, d)

    def test_every_4444_degree_has_exactly_dim_candidates(self, monkeypatch):
        widths = {}
        real = gkm._product_columns

        def recording(model, prev, tail):
            out, last = real(model, prev, tail)
            widths[prev.degree + 1] = out.shape[1]
            return out, last

        monkeypatch.setattr(gkm, "_space_cache", {})
        monkeypatch.setattr(gkm, "_product_columns", recording)
        mx = GkmModel(H("4,4,4,4"), "X")
        pieces = [degree_piece(mx, d) for d in range(mx.h.size() + 2)]
        assert [piece.dim for piece in pieces] == [1, 7, 27, 76, 174, 344, 610, 996]
        assert widths == {d: pieces[d].dim for d in range(1, len(pieces))}
        assert {piece.certificate["route"] for piece in pieces} == {"products"}

    def test_routes_are_unchanged_for_every_h_up_to_n4(self):
        for n in range(1, 5):
            for h in hessenberg_all(n):
                mx = GkmModel(h, "X")
                lifted = tuple(d for d in range(h.size() + 2)
                               if degree_piece(mx, d).certificate["route"] == "crt-lift")
                assert lifted == CRT_LIFT_DEGREES[",".join(map(str, h.values))], h

    def test_a_shortfall_falls_back_to_the_crt_lift(self, monkeypatch):
        # recording t_n as the last variable of every product leaves degree 2
        # of 3,3,3 with t_3 * f only for the products f of degree 1: 11
        # candidates for dim 14, so the piece is lifted, with the same dims
        real = gkm._product_columns

        def last_is_n(model, prev, tail):
            out, last = real(model, prev, tail)
            return out, np.where(last > 0, model.n, 0)

        monkeypatch.setattr(gkm, "_space_cache", {})
        monkeypatch.setattr(gkm, "_product_columns", last_is_n)
        mx = GkmModel(H("3,3,3"), "X")
        pieces = [degree_piece(mx, d) for d in range(mx.h.size() + 2)]
        assert [piece.dim for piece in pieces] == [1, 5, 14, 29, 50]
        assert [piece.certificate["route"] for piece in pieces][:3] == ["products", "products", "crt-lift"]
