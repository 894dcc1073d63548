"""When do connections exist?  Three exact answers.

1. On the square-zero point, never: the degree-bounded solver returns the
   empty space.  Every solver returns an `AffineSolutionSpace` whose unknowns
   say what they are: (generator, position, exponent), the coefficient of
   x^exponent on the target generator at that position in the image of the
   generator, with the chart in front when two charts are glued.
2. On the projective line glued from two affine charts, never in
   characteristic zero, and exactly once (trivially) in characteristic two.
3. In the square-zero tangent structure on algebras, only the zero module's
   bundle carries one: the verdict is one normal form per generator of the
   module, with no degree bound.
"""

from kcx import (
    GF,
    QQ,
    dual_connection_solve,
    free_module,
    glued_connection_check,
    kahler_module,
    make_algebra,
    solve_connection_space,
)

# 1. the square-zero point
fat = make_algebra(QQ, ("x",), ["x^2"])
space = solve_connection_space(kahler_module(fat), 3)
print("square-zero point, degree 3:", "empty" if space.is_empty else f"dim {space.dimension}")

# ... while the plane admits a 24-dimensional family at degree 1
plane = make_algebra(QQ, ("x1", "x2"))
family = solve_connection_space(kahler_module(plane), 1)
print("plane, degree 1: family of dimension", family.dimension)
print("  its first unknown (generator, position, exponent):", family.unknowns[0])

# 2. the projective line, both characteristics
for char in (0, 2):
    field = GF(char) if char else QQ
    A1 = make_algebra(field, ("x",))
    A2 = make_algebra(field, ("y",))
    result = glued_connection_check(
        A1, "x", A2, "y",
        {"x": "y_inv", "x_inv": "y"}, {"y": "x_inv", "y_inv": "x"},
        degree=6,
    )
    s = result.space
    outcome = "empty" if s.is_empty else ("unique" if s.is_unique else f"dim {s.dimension}")
    charts = [key[0] for key in s.unknowns]
    print(f"projective line, characteristic {char}: {outcome}"
          f" ({charts.count(1)} + {charts.count(2)} unknowns on charts 1 and 2)")

# 3. the square-zero tangent structure on algebras
line = make_algebra(QQ, ("x",))
print("square-zero bundle, rank-1 module:",
      "empty" if dual_connection_solve(free_module(line, 1)).is_empty else "solvable")
print("square-zero bundle, zero module:",
      "empty" if dual_connection_solve(free_module(line, 0)).is_empty else "solvable")
