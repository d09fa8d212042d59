"""Hessenberg functions, coloring expansions, the orientation model, and identities."""

import itertools
import json
import time
from collections import Counter

import pytest

from hessllt import cli, hessgraph
from hessllt.errors import BudgetExceededError, VerificationError
from hessllt.hessgraph import (
    HessenbergFunction,
    csf,
    hessenberg_all,
    llt,
    orientation_e_expansion,
    verify_identities,
)
from hessllt.qrat import QPoly, QRat
from hessllt.symfunc import SymFunc
from oracles import (
    asc_coloring,
    coloring_expansion_bruteforce,
    coloring_weights_kernel,
    elementary,
    is_proper,
    power_sum,
)

H = HessenbergFunction.parse


class TestHessenbergFunction:
    def test_parse_and_fields(self):
        h = H("2,3,3")
        assert h.n == 3
        assert h(1) == 2 and h(3) == 3
        assert h.size() == 2
        assert h.edge_pairs() == ((1, 2), (2, 3))
        assert H("3,3,3").edge_pairs() == ((1, 2), (1, 3), (2, 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            H("2,1")  # not weakly increasing
        with pytest.raises(ValueError):
            H("0,2")  # h(1) < 1
        with pytest.raises(ValueError):
            H("1,3")  # h(2) > n

    def test_values_must_be_integers(self):
        # int() would truncate 2.7 to 2 and read "233" digit by digit
        for values in ([2.7, 3, 3], [2.0, 3, 3], "233"):
            with pytest.raises(TypeError):
                HessenbergFunction(values)
        assert HessenbergFunction([2, 3, 3]) == H("2,3,3")

    def test_hessenberg_all_counts_are_catalan(self):
        catalan = [1, 2, 5, 14, 42, 132, 429]
        for n, expected in zip(range(1, 8), catalan):
            assert len(hessenberg_all(n)) == expected

    def test_hessenberg_all_budget(self):
        with pytest.raises(BudgetExceededError):
            hessenberg_all(8)

    def test_coloring_budget(self):
        with pytest.raises(BudgetExceededError, match="n <= 8, got 9"):
            csf(HessenbergFunction([9] * 9))


class TestExpansions:
    def test_edgeless_graph(self):
        # no edges: every coloring proper with no ascents on both sides
        assert llt(H("1,2")) == power_sum((1, 1))
        assert csf(H("1,2")) == power_sum((1, 1))
        assert llt(H("1,2")) == elementary((1, 1))

    def test_two_vertex_path(self):
        q = QRat.q()
        assert csf(H("2,2")) == elementary((2,)).scale(q + 1)
        assert llt(H("2,2")) == elementary((2,)).scale(q - 1) + elementary((1, 1))

    def test_triangle(self):
        q = QRat.q()
        expected = elementary((3,)).scale((q + 1) * (q**2 + q + 1))
        assert csf(H("3,3,3")) == expected

    def test_path_three_vertices(self):
        # hand count: aba colorings give q*m_21, distinct-color ones
        # give (q^2+4q+1)*m_111, so X = (q^2+q+1)e_3 + q*e_21
        q = QRat.q()
        f = csf(H("2,3,3")).in_basis("e")
        assert f.coeff((3,)) == q**2 + q + 1
        assert f.coeff((2, 1)) == q
        assert f.coeff((1, 1, 1)) == QRat.zero()

    def test_brute_force_routes_agree(self):
        for n in (1, 2, 3, 4):
            for h in hessenberg_all(n):
                assert coloring_expansion_bruteforce(h, proper_only=True) == csf(h)
                assert coloring_expansion_bruteforce(h, proper_only=False) == llt(h)

    def test_llt_at_q_one_is_regular(self):
        for h in hessenberg_all(3):
            f = llt(h).subs_coeffs(lambda c: QRat.of(c.evaluate(1)))
            assert f == power_sum((1, 1, 1))


def _tally_colorings(h):
    """(weights_all, weights_proper) by a pure Python pass over every coloring."""
    n, edges = h.n, h.edge_pairs()
    weights_all, weights_proper = {}, {}
    for kappa in itertools.product(range(n), repeat=n):
        exp = tuple(kappa.count(c) for c in range(n))
        a = asc_coloring(kappa, edges)
        tables = [weights_all] + ([weights_proper] if is_proper(kappa, edges) else [])
        for table in tables:
            by_asc = table.setdefault(exp, {})
            by_asc[a] = by_asc.get(a, 0) + 1
    return weights_all, weights_proper


@pytest.fixture
def fresh_coloring_cache():
    hessgraph._coloring_symfuncs.cache_clear()
    yield
    hessgraph._coloring_symfuncs.cache_clear()


class TestColoringKernel:
    @pytest.mark.parametrize(
        "h",
        [h for n in (1, 2, 3, 4) for h in hessenberg_all(n)] + [H("2,3,4,5,5"), H("5,5,5,5,5")],
        ids=repr,
    )
    def test_full_tables_match_python_tally(self, h):
        # the kernel oracle: every exponent vector, dominant or not, in both tables
        assert coloring_weights_kernel(h) == _tally_colorings(h)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_rankings_match_kernel_on_every_strong_composition(self, n):
        # [M_alpha] is the weight of the exponent vector alpha padded with zeros
        for h in hessenberg_all(n):
            for route, kernel in zip(hessgraph._composition_weights(h), coloring_weights_kernel(h)):
                assert len(route) == 2 ** (n - 1), h
                for alpha, by_asc in route.items():
                    assert by_asc == kernel.get(alpha + (0,) * (n - len(alpha)), {}), (h, alpha)

    def test_asymmetric_weights_fail_verification(self, monkeypatch, capsys, fresh_coloring_cache):
        route = hessgraph._composition_weights

        def corrupted(h):
            weights_all, weights_proper = route(h)
            by_asc = weights_all[(1, 2)]
            by_asc[min(by_asc)] += 1
            return weights_all, weights_proper

        monkeypatch.setattr(hessgraph, "_composition_weights", corrupted)
        with pytest.raises(VerificationError, match=r"symmetric at shape \(2, 1\)"):
            llt(H("2,3,3"))
        assert cli.main(["llt", "--h", "2,3,3", "--basis", "e"]) == 1
        assert "computation failed" in capsys.readouterr().err


class TestPowerSumStorage:
    @pytest.mark.parametrize(
        "h", [h for n in (1, 2, 3, 4) for h in hessenberg_all(n)] + [H("2,3,4,5,5")], ids=repr
    )
    def test_stored_in_p_and_exact_in_m(self, h):
        # the m expansion the CLI prints is the coloring tally, entry for entry
        weights_all, weights_proper = hessgraph._composition_weights(h)
        for f, weights in ((llt(h), weights_all), (csf(h), weights_proper)):
            assert f.basis == "p"
            tally = hessgraph._weights_to_symfunc(weights, h.n)
            assert tally.basis == "m"
            assert f.in_basis("m").coeffs == tally.coeffs

    def test_identity_suite_converts_only_the_tallies(self, monkeypatch, fresh_coloring_cache):
        # one m -> p per coloring tally, one e -> p for the orientation model
        real = SymFunc.in_basis
        conversions = Counter()

        def counted(f, basis):
            if basis != f.basis:
                conversions[f.basis, basis] += 1
            return real(f, basis)

        monkeypatch.setattr(SymFunc, "in_basis", counted)
        assert all(c["passed"] for c in verify_identities(H("2,3,4,4")))
        assert conversions == {("m", "p"): 2, ("e", "p"): 1}


class TestOrientations:
    def test_ascent_generating_function(self):
        # every orientation adds q^asc to one e coefficient, so the
        # coefficients sum to (1+q)^|h|
        for h in (h for n in range(1, 6) for h in hessenberg_all(n)):
            f = orientation_e_expansion(h)
            assert f.basis == "e"
            total = sum((c.as_poly() for c in f.coeffs.values()), QPoly.zero())
            assert total == (QPoly.q() + QPoly.one()) ** h.size(), h

    def test_every_lambda_is_a_partition_of_n(self):
        for h in (h for n in range(1, 6) for h in hessenberg_all(n)):
            for lam in orientation_e_expansion(h).coeffs:
                assert sum(lam) == h.n and min(lam) > 0, h
                assert list(lam) == sorted(lam, reverse=True), h

    def test_budget_refused_before_enumerating(self):
        # the complete graph at n = 7 has |h| = 21 > ORIENTATION_BUDGET
        h = H("7,7,7,7,7,7,7")
        assert h.size() == 21
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=r"2\^20, got \|h\| = 21"):
            orientation_e_expansion(h)
        assert time.perf_counter() - started < 1.0

    def test_orientation_expansion_equals_shifted_llt(self):
        for n in (1, 2, 3, 4):
            for h in hessenberg_all(n):
                shifted = llt(h).subs_coeffs(lambda c: c.subs_q_plus_one())
                assert orientation_e_expansion(h).in_basis("e") == shifted.in_basis("e")


class TestIdentitySuite:
    def test_check_names(self):
        names = [c["name"] for c in verify_identities(H("2,2"))]
        assert names == [
            "csf palindromicity",
            "llt palindromicity",
            "carlson-mellit relation",
            "plethystic inversion, contracted",
            "plethystic inversion, expanded",
            "llt at q=1 is the regular representation",
            "orientation model of the shifted e expansion",
        ]

    def test_all_pass_small(self):
        for n in (1, 2, 3, 4):
            for h in hessenberg_all(n):
                for check in verify_identities(h):
                    assert check["passed"], (h, check["name"], check["detail"])

    def test_all_pass_at_n8(self, capsys):
        # n = 8, the coloring budget
        h = H("2,3,4,5,6,7,8,8")
        for check in verify_identities(h):
            assert check["passed"], (check["name"], check["detail"])
        assert cli.main(["llt", "--h", "2,3,4,5,6,7,8,8", "--shifted"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
