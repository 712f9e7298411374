"""Vector fields on the plane or torus and their differential calculus.

The Lie bracket computes each component as one integer sum of products,
normalized once (``expr.derivation_sum``), rather than as a chain of ring
operations; ``wedge`` and ``dot`` stay compositions of ring operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import DomainError, Expr, derivation_sum, parse_expr


@dataclass(frozen=True)
class VectorField:
    """A pair of exact expressions (cx, cy) sharing one domain."""

    cx: Expr
    cy: Expr

    def __post_init__(self):
        if self.cx.domain != self.cy.domain:
            raise DomainError("components live on different domains")

    @property
    def domain(self) -> str:
        return self.cx.domain

    @property
    def is_zero(self) -> bool:
        return self.cx.is_zero and self.cy.is_zero

    @staticmethod
    def zero(domain: str) -> "VectorField":
        return VectorField(Expr.zero(domain), Expr.zero(domain))

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.cx + other.cx, self.cy + other.cy)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.cx - other.cx, self.cy - other.cy)

    def __neg__(self) -> "VectorField":
        return VectorField(-self.cx, -self.cy)

    def scale(self, g) -> "VectorField":
        """Multiply both components by a scalar Expr or rational."""
        return VectorField(self.cx * g, self.cy * g)

    def eval_float(self, x: float, y: float) -> tuple[float, float]:
        return (self.cx.eval_float(x, y), self.cy.eval_float(x, y))

    def __str__(self) -> str:
        return f"({self.cx}, {self.cy})"


def parse_field(text: str, domain: str = "plane") -> VectorField:
    """Parse "(expr, expr)" into a VectorField.

    The comma separating the components must sit at parenthesis depth one.
    """
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"field must look like '(ex, ey)', got {text!r}")
    inner = s[1:-1]
    depth = 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return VectorField(
                parse_expr(inner[:i], domain), parse_expr(inner[i + 1 :], domain)
            )
    raise ValueError(f"no top-level comma in field {text!r}")


@dataclass(frozen=True)
class JacobianMatrix:
    """Exact entries d_j F^i of a vector field."""

    dxx: Expr  # d(cx)/dx
    dxy: Expr  # d(cx)/dy
    dyx: Expr  # d(cy)/dx
    dyy: Expr  # d(cy)/dy


def jacobian(field: VectorField) -> JacobianMatrix:
    return JacobianMatrix(
        dxx=field.cx.derive("x"),
        dxy=field.cx.derive("y"),
        dyx=field.cy.derive("x"),
        dyy=field.cy.derive("y"),
    )


def lie_bracket(y_field: VectorField, x_field: VectorField) -> VectorField:
    """Lie bracket [Y, X] with the convention

        [Y, X]^i = sum_j (Y^j d_j X^i - X^j d_j Y^i),

    so the radial field E = (x, y) satisfies [E, X] = (k-1) X for X
    homogeneous of degree k.

    Each component is one integer sum of the four products, normalized
    once (``expr.derivation_sum``).  It is ``==`` to the same formula
    written with ``derive``, ``*``, ``+`` and ``-``, but its terms are in
    another order; no caller in the package reads that order.
    """
    if y_field.domain != x_field.domain:
        raise DomainError("domain mismatch in lie_bracket")
    yx, yy = y_field.cx, y_field.cy
    xx, xy = x_field.cx, x_field.cy

    def component(x_i: Expr, y_i: Expr) -> Expr:
        return derivation_sum(
            ((1, yx, x_i, "x"), (1, yy, x_i, "y"), (-1, xx, y_i, "x"), (-1, xy, y_i, "y"))
        )

    return VectorField(component(xx, yx), component(xy, yy))


def wedge(x_field: VectorField, y_field: VectorField) -> Expr:
    """Determinant X^1 Y^2 - X^2 Y^1; vanishes exactly where the two
    fields are linearly dependent."""
    if x_field.domain != y_field.domain:
        raise DomainError("domain mismatch in wedge")
    return x_field.cx * y_field.cy - x_field.cy * y_field.cx


def dot(x_field: VectorField, y_field: VectorField) -> Expr:
    """Euclidean pairing <X, Y> in the flat coordinates."""
    if x_field.domain != y_field.domain:
        raise DomainError("domain mismatch in dot")
    return x_field.cx * y_field.cx + x_field.cy * y_field.cy


def euler_field() -> VectorField:
    """The radial plane field E = (x, y)."""
    return parse_field("(x, y)")
