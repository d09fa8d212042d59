"""Two moment-graph models over the same graph and their twin quotients.

Both models put a polynomial at every permutation and impose one divisibility
congruence per graph edge; they differ in the edge labels.  The X flavor
carries the dot action (permute vertices and variables), the Y flavor the
dagger action (permute vertices only), so a class's flavor fixes how a
permutation acts on it.  Quotienting by the ideal generated by the constant
classes t_i or the tautological classes x_i yields graded symmetric-group
characters, and the central identity here is that the Y quotient by t equals
the X quotient by x -- the twin law.
"""

from hessllt import (
    EquivariantClass,
    GkmModel,
    HessenbergFunction,
    betti_numbers,
    csf,
    degree_piece,
    frobenius_inverse,
    llt,
    quotient_graded_character,
    xi_transport,
)

h = HessenbergFunction.parse("2,3,3")
mx = GkmModel(h, "X")
my = mx.twin()

print(f"h = {h!r}: {len(mx.vertices)} vertices, {len(mx.edges)} congruence edges")
print("degree piece dimensions:", [degree_piece(mx, d).dim for d in range(4)])
print("graded quotient dimensions (Betti numbers):", betti_numbers(h), "\n")

dot_t = quotient_graded_character(mx, "t_vars")
dot_x = quotient_graded_character(mx, "x_classes")
dag_t = quotient_graded_character(my, "t_vars")

print("A character is stored as its Frobenius image; frobenius_inverse reads")
print("back its value on each class.\n")
print("X quotient by (t_i), dot action:")
for mu, value in frobenius_inverse(dot_t).items():
    print(f"  class {mu}: {value}")
print("  equals the omega-twisted chromatic function:", dot_t == csf(h).omega())

print("X quotient by (x_i), dot action:")
for mu, value in frobenius_inverse(dot_x).items():
    print(f"  class {mu}: {value}")
print("  equals the LLT polynomial:", dot_x == llt(h))

print("Y quotient by (t_i), dagger action:")
print("  twin law (equals the X quotient by x):", dag_t == dot_x, "\n")

print("The change of variables behind the twin law sends t_i to x_i:")
t1 = EquivariantClass.t_class(my, 1)
print("  xi(t_1) == x_1:", xi_transport(t1) == EquivariantClass.x_class(mx, 1))
sigma = (2, 3, 1)
f = t1 * EquivariantClass.t_class(my, 2)
print(
    "  xi intertwines dagger with dot:",
    xi_transport(f.act(sigma)) == xi_transport(f).act(sigma),
)
