"""Permutohedron faces as symmetric-group modules.

The faces of the (n-1)-dimensional permutohedron are ordered set partitions
of {1..n}; the group permutes them, and the resulting face modules assemble
into a q-series F whose substitution H(q) = F(q-1) is a genuine graded
character.  Its graded dimension is the Eulerian polynomial, and a sign
twist turns the closed form into the character of the twin quotient of the
full graph -- tying polytope combinatorics to the LLT expansion.
"""

from hessllt import (
    PermutohedronFace,
    f_vector,
    face_and_h_series,
    face_module_character,
    face_module_twin_check,
)
from hessllt.characters import graded_dimension
from hessllt.permco import eulerian_polynomial
from hessllt.qrat import format_poly

n = 4
print(f"permutohedron on {{1..{n}}}: f-vector {f_vector(n)}")

face = PermutohedronFace.from_ordered_set_partition(n, [{2, 4}, {1}, {3}])
print(f"example face {face.to_ordered_set_partition()} has dimension {face.dimension}")
print(f"fixed by swapping 1 and 2? {face.is_fixed_by((2, 1, 3, 4))} (the swap breaks the first block)")
print(f"fixed by swapping 2 and 4? {face.is_fixed_by((1, 4, 3, 2))} (each block is preserved)\n")

print("face module characters (value at the identity = face count):")
for i in range(n):
    chi = face_module_character(n, i)
    print(f"  dimension-{i} faces: {graded_dimension(chi)}")

F, H = face_and_h_series(n)
print("\ngraded dimension of F:", graded_dimension(F))
print("graded dimension of H = F(q-1):", graded_dimension(H))
print("Eulerian polynomial:          ", format_poly(eulerian_polynomial(n)))

print("\ntwin law via face modules:")
for c in face_module_twin_check(n):
    print(f"  {c['name']}: {'pass' if c['passed'] else 'FAIL ' + c['detail']}")
