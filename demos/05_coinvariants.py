"""The coinvariant algebra and its Gaussian-binomial closed forms.

Quotienting the polynomial ring by the ideal of positive-degree symmetric
polynomials leaves a graded module of total dimension n! whose graded
dimension is the q-factorial.  Its graded character admits closed forms as
sums of induced characters over subsets weighted by q-powers; the subset
weights themselves sum to Gaussian binomial coefficients.  The complete
graph ties the same numbers back to colorings.
"""

from hessllt import (
    coinvariant_closed_form_check,
    coinvariant_graded_character,
    complete_graph_agreement,
    q_binomial_sum_check,
)
from hessllt.characters import frobenius_inverse, graded_dimension
from hessllt.permco import q_factorial
from hessllt.qrat import format_poly

n = 3
chi = coinvariant_graded_character(n)
print(f"coinvariant algebra for n = {n}:")
for mu, value in frobenius_inverse(chi).items():
    print(f"  class {mu}: {value}")
print("graded dimension equals the q-factorial:",
      graded_dimension(chi).as_poly() == q_factorial(n))
print("q-factorial:", format_poly(q_factorial(n)), "\n")

print("closed-form checks at n = 4:")
for c in coinvariant_closed_form_check(4):
    print(f"  {c['name']}: {'pass' if c['passed'] else 'FAIL ' + c['detail']}")

print("\nGaussian binomial subset sums, n up to 8:")
ok = all(q_binomial_sum_check(n, i) for n in range(2, 9) for i in range(1, n))
print("  all subset sums match the product formula:", ok)

checks = complete_graph_agreement(4)
print("\ncomplete-graph orientation counts against the subset formula (n = 4):")
for c in checks[:-1]:  # one check per partition, then the totals
    lam = c["name"].removeprefix("complete-graph partition ")
    print(f"  lambda = {lam}: {c['detail'].split(' vs ')[0]}")
print("  all partitions agree:", all(c["passed"] for c in checks))
