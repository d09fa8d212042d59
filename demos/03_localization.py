"""Integration over the moment graph by localization.

Summing a class over the vertices with alternating signs, weighted by the
product of labels on the missing edges, and dividing by the Vandermonde
product integrates the class to an ordinary polynomial.  The result is a
drop of degree |h| = number of edges, it always lands in the polynomial ring
(no denominators survive), and it commutes with the dot action.  A class is
a coordinate vector over (vertex, monomial) pairs, the layout of a column of
a degree piece's basis matrix; the whole matrix is one batch class, pushed
forward at once to a polynomial whose coefficients are integer vectors with
one entry per basis class.
"""

from hessllt import (
    EquivariantClass,
    GkmModel,
    HessenbergFunction,
    degree_piece,
    localization_pushforward,
)
from hessllt.gkm import localization_equivariance_check

def show(poly):
    if not poly:
        return "0"
    terms = []
    for exps, c in sorted(poly.items(), reverse=True):
        vars_part = "*".join(
            f"t_{i + 1}" + (f"^{e}" if e > 1 else "")
            for i, e in enumerate(exps)
            if e
        )
        terms.append(f"{c}*{vars_part}" if vars_part else str(c))
    return " + ".join(terms).replace("+ -", "- ")


h = HessenbergFunction.parse("2,2")
mx = GkmModel(h, "X")

one = EquivariantClass.one(mx)
x1 = EquivariantClass.x_class(mx, 1)

print(f"h = {h!r} (one edge, so integration drops degree by 1)\n")
print("integral of 1        :", show(localization_pushforward(one)))
print("integral of x_1      :", show(localization_pushforward(x1)))
print("integral of x_1*x_1  :", show(localization_pushforward(x1 * x1)))

h3 = HessenbergFunction.parse("2,3,3")
m3 = GkmModel(h3, "X")
print(f"\nh = {h3!r}: every basis class integrates without denominators:")
count = 0
for d in range(h3.size() + 1):
    space = degree_piece(m3, d)
    for col in space.matrix.T:
        f = EquivariantClass(m3, d, col)
        localization_pushforward(f)  # raises if a denominator survived
        count += 1
print(f"  {count} classes integrated, all polynomial")

d = h3.size()
space = degree_piece(m3, d)
batch = EquivariantClass(m3, d, space.matrix)
pushed = localization_pushforward(batch)  # one call for the whole piece
print(f"  integrals of the {space.dim} degree-{d} classes in one call:", list(pushed[(0, 0, 0)]))

f = EquivariantClass.x_class(m3, 1) * EquivariantClass.x_class(m3, 2)
ok = all(
    localization_equivariance_check(f, sigma)
    for sigma in ((2, 1, 3), (1, 3, 2), (2, 3, 1))
)
print("  integration commutes with the dot action:", ok)
