"""The catalog of explicit coordinate changes between the surface models.

Every entry records: free variables to sample, constraint equations each
solvable for a designated variable (of degree <= 2, and in no denominator),
the map components, and the target equations that must vanish on the image.
A coordinate fixed by the others, such as t = rho^2, is a linear constraint
(t - rho^2, t).  Entries whose printed source needed a correction carry the
story in `note`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import sympy as sp
from sympy import Rational as R

from .modeval import together_degree

x, y, z, s, t, u, v, S, X, Y, Yp, u1, x1, x2, rho = sp.symbols(
    "x y z s t u v S X Y Yp u1 x1 x2 rho"
)


@dataclass(frozen=True)
class RationalMap:
    """One verifiable coordinate change.

    `outputs` lists only the coordinates the map changes: the image starts as
    a copy of the sampled point, so a coordinate the map keeps needs no entry.
    """

    name: str
    free: tuple
    solve_steps: tuple  # ((equation, symbol), ...), solved in order
    outputs: tuple  # ((symbol, expr), ...)
    target_eqs: tuple
    note: str = ""

    @cached_property
    def degree_bound(self):
        """Largest total degree of the cleared target equations.

        The degree is read off the walk that compiles each equation for
        sampling (modeval.together_degree), counted before any cancellation.
        This is the degree of the target alone, not of the target pulled back
        through the map and the solved constraints, so the Schwartz-Zippel
        figure built from it (sz.MapReport.miss_probability_bound) is an
        estimate, not a proven bound.
        """
        return max((together_degree(eq) for eq in self.target_eqs), default=0)


# ---------------------------------------------------------------------------
# surface equations
# ---------------------------------------------------------------------------

def f_cubic(T):
    """Right factor of the double sextic: T^3 - 2T^2 + (1-S)T/2."""
    return T**3 - 2 * T**2 + R(1, 2) * (1 - S) * T


def g_cubic(T):
    return T**3 + 4 * T**2 + 2 * (1 + S) * T


def family19_eq(XX, YY, ss):
    return YY**2 - (
        XX**3 + R(1, 4) * (ss**2 - 1) ** 2 * XX**2 + ss**2 * (ss**2 - 1) ** 3 / (64 * t) * XX
    )


def family19alt_eq(XX, YY, ss):
    return YY**2 - (XX**3 + 4 * ss**2 * XX**2 - ss**3 * (ss - 1) ** 2 / t * XX)


def weier1_eq(XX, YY, ss):
    return YY**2 - XX * (XX**2 + XX * 2 * (32 * ss**4 - 64 * ss**3 + 32 * ss**2 - t) + t**2)


def inose_eq(XX, YY, uu):
    return YY**2 - (
        XX**3
        - R(16, 3) * t**3 * (16 * t + 9) * XX
        + 512 * t**5 * uu
        + 8 * t**4 / uu
        + R(8, 27) * (1024 * t**2 - 2592 * t) * t**4
    )


def si_form_eq(XX, YY, uu):
    return (
        R(512, 27) * t * uu**5 * (32 * t * uu * (32 * t + 54 * uu - 81) + 27)
        - R(256, 3) * t * (16 * t + 9) * uu**4 * XX
        + XX**3
        - YY**2
    )


THREE_STAR = (s + 1) ** 2 / (256 * t) + (s - 1) * x**2 * z * (s * (2 * x + z - 1) + z - 1)

INOSE_QUARTIC = (
    s**4 * (u / t + 64 * u**3 + 16 * u**2)
    + s**3 * (192 * u**3 - 3 * u / t)
    + s**2 * (3 * u / t + 192 * u**3 - 32 * u**2)
    + s * (64 * u**3 - u / t)
    + 16 * u**2
)

SI_QUARTIC = (
    s**4 * (64 * t * u**3 + 16 * t * u**2 + u)
    + s**3 * (192 * t * u**3 - 3 * u)
    + s**2 * (192 * t * u**3 - 32 * t * u**2 + 3 * u)
    + s * (64 * t * u**3 - u)
    + 16 * t * u**2
)

X8_EQ = y**2 - R(-1, 8) / t**3 * (t * u**2 + (1 - t) * v**2) * (
    -2 * (t - 1) * t * ((u + 4) * u + 6) * v**2
    - 8 * (t - 1) * t * (u + 2) * v
    + t * (t * (u + 4) * u * (u + 2) ** 2 + 4)
    + (t - 1) ** 2 * v**4
)

X7_EQ = y**2 - f_cubic(x1) * g_cubic(x2)

X6_EQ = Y**2 - (X**3 - 2 * g_cubic(x2) * X**2 + R(1, 2) * (1 - S) * g_cubic(x2) ** 2 * X)

X5_EQ = f_cubic(x1) - u**2 * g_cubic(x2)

PSI5_A = (
    2 * u**2
    * (x1 * (3 * (S - 1) * (x2 + 4) + 16 * x1) - 12 * (S + 1) * u**2 * (2 * S + x2 * (x2 + 4) + 2))
    / (3 * x1**2)
)
PSI5_B = -(
    2 * u**2 * (
        16 * (S + 1) ** 2 * u**4 * (2 * S + x2 * (x2 + 4) + 2)
        - 4 * u**2 * x1 * (
            x2 * (S * (S + 4 * x1 + 8) + 4 * x1 - 9)
            + 4 * (S + 1) * (2 * S - (x1 - 4) * x1 - 2)
            + 2 * (S - 1) * x2**2
        )
        + (S - 1) * x1**2 * (S + 2 * x1 - 1)
    )
) / x1**3

X4_EQ = (
    Y**2 + X**3 + X * (R(16, 3) * (-25 + 9 * S**2) * u**4)
    - 8 * (-1 + S) ** 2 * (1 + S) * u**4
    + R(256, 27) * (49 - 81 * S**2) * u**6
    + 512 * (-1 + S) * (1 + S) ** 2 * u**8
)

X3_EQ = y**2 - (
    x**3 + (R(16, 3) * (-25 + 9 * S**2) * u**4) * x
    + 8 * (-1 + S) ** 2 * (1 + S) * u**4
    + R(256, 27) * (-49 + 81 * S**2) * u**6
    - 512 * (-1 + S) * (1 + S) ** 2 * u**8
)

X2_EQ = y**2 - (
    x**3 + (-R(16, 3) * t**3 * (9 + 16 * t)) * x
    + 8 * t**4 * (32 * u**2 * ((S + 1) * t * (32 * t + 108 * u**2 - 81) - 54 * u**2) + 27)
    / (27 * (S + 1) * u**2)
)

S_CONSTRAINT = (S**2 - (t - 1) / t, S)

QT_X = (128 * t * u * (u * (32 * t * (3 * (u - 2) * u + 1) - 3) - 3) + 3) / (768 * u**2)
QT_Y = (1 - 64 * t * u**2) * (64 * t * u * (2 * u * (32 * t * (u - 2) * (u - 1) - 1) - 3) + 1) / (
    4096 * u**3
)


def _entries():
    maps = []
    v_t = x * y * z * (1 - (x + y + z)) - 1 / (256 * t)
    maps.append(RationalMap(
        "surface_to_slice",
        free=(x, y, t),
        solve_steps=((v_t, z),),
        outputs=((s, x + y),),
        target_eqs=(x * (s - x) * z * (1 - (s + z)) - 1 / (256 * t),),
        note="the working slice: s = x + y eliminates one coordinate",
    ))
    maps.append(RationalMap(
        "surface_to_three_star",
        free=(x, y, t),
        solve_steps=((v_t, z),),
        outputs=((s, (x + y) / (x - y)),),
        target_eqs=(THREE_STAR,),
        note="elliptic parameter s = (x+y)/(x-y), same fiber coordinates",
    ))
    maps.append(RationalMap(
        "surface_to_weier",
        free=(x, s, t),
        solve_steps=((x * (s - x) * z * (1 - (s + z)) - t / 256, z),),
        outputs=((X, t - s * t / x), (Y, 8 * s * t * (s - x) * (s + 2 * z - 1) / x)),
        target_eqs=(weier1_eq(X, Y, s),),
        note="source carries the surface at the inverse parameter (constant term t/256)",
    ))
    maps.append(RationalMap(
        "three_star_to_family19",
        free=(x, s, t),
        solve_steps=((THREE_STAR, z),),
        outputs=(
            (X, 2 * (s - 1) ** 2 * s * x * (2 * s * x + s * z - s + z - 1)),
            (Y, (s - 1) ** 3 * s * x * (4 * s * x - s - 1) * (2 * s * x + s * z - s + z - 1)),
        ),
        target_eqs=(family19_eq(X, Y, s),),
    ))
    sigma = (s - 1) / (s + 1)
    maps.append(RationalMap(
        "family19_to_family19alt",
        free=(X, s, t),
        solve_steps=((family19_eq(X, Y, sigma), Y),),
        outputs=((x1, X * (s + 1) ** 4), (x2, Y * (s + 1) ** 6)),
        target_eqs=(family19alt_eq(x1, x2, s),),
    ))
    maps.append(RationalMap(
        "family19_to_inose_quartic",
        free=(s, u, t),
        solve_steps=((family19_eq(u * (s + 1) ** 3 * s, Yp * s * (1 + s) ** 3 / 8, s), Yp),),
        outputs=(),
        target_eqs=(INOSE_QUARTIC - Yp**2,),
    ))
    maps.append(RationalMap(
        "quartic_to_inose",
        free=(s, u, t),
        solve_steps=((INOSE_QUARTIC - Yp**2, Yp),),
        outputs=(
            (X, t * (s * (192 * (s + 1) * t * u**2 - 32 * s * t * u + 3 * s - 3)
                     + 96 * t * u - 24 * t * Yp) / (12 * s**2 * u)),
            (Y, t * (4 * t * u * (64 * (s**2 - 1) * t * u - 192 * s * (s + 1) ** 2 * t * u**2
                                  + 3 * s * (s - 1) ** 2)
                     + t * Yp * (s * (64 * t * u**2 - 1) + 64 * t * u)) / (8 * s**3 * u**2)),
        ),
        target_eqs=(inose_eq(X, Y, u),),
        note="Yp enters both components with weight t, matching the sqrt(t)-twisted variant",
    ))
    maps.append(RationalMap(
        "family19_to_si_quartic",
        free=(s, u, rho),
        solve_steps=((t - rho**2, t),
                     (family19_eq(u * (s + 1) ** 3 * s, Yp * s * (1 + s) ** 3 / (8 * rho), s), Yp)),
        outputs=(),
        target_eqs=(SI_QUARTIC - Yp**2,),
        note="rho stands for sqrt(t)",
    ))
    maps.append(RationalMap(
        "si_quartic_to_si_form",
        free=(s, u, rho),
        solve_steps=((t - rho**2, t), (SI_QUARTIC - Yp**2, Yp)),
        outputs=(
            (X, u * (s * (192 * (s + 1) * t * u**2 - 32 * s * t * u + 3 * s - 3)
                     + 96 * t * u - 24 * rho * Yp) / (3 * s**2)),
            (Y, u * (4 * rho * u * (-64 * (s**2 - 1) * t * u + 192 * s * (s + 1) ** 2 * t * u**2
                                    - 3 * s * (s - 1) ** 2)
                     + Yp * (-64 * s * t * u**2 + s - 64 * t * u)) / s**3),
        ),
        target_eqs=(si_form_eq(X, Y, u),),
    ))
    A_si = (16 * t + 9) / 9
    B_si = R(2, 27) * rho**2 * (81 - 32 * t)
    r_si = -1 / (2 * rho)
    maps.append(RationalMap(
        "si_normal_to_si_form",
        free=(u, x, rho),
        solve_steps=((t - rho**4, t),
                     (y**2 - (x**3 - 3 * A_si * u**4 * x + u**5 * (u**2 - 2 * B_si * u + 1)), y)),
        outputs=((X, x * r_si**2), (Y, y * r_si**3), (u1, u / (8 * rho**2))),
        target_eqs=(si_form_eq(X, Y, u1),),
        note="rho stands for t^(1/4)",
    ))
    # psi chain ------------------------------------------------------------
    maps.append(RationalMap(
        "psi8",
        free=(u, v, t),
        solve_steps=(S_CONSTRAINT, (X8_EQ, y)),
        outputs=((x1, -R(1, 2) * (u - S * v)), (x2, u + S * v)),
        target_eqs=(X7_EQ,),
    ))
    maps.append(RationalMap(
        "psi7",
        free=(x1, x2, t),
        solve_steps=(S_CONSTRAINT, (X7_EQ, y)),
        outputs=((X, x1 * g_cubic(x2)), (Y, y * g_cubic(x2))),
        target_eqs=(X6_EQ,),
    ))
    maps.append(RationalMap(
        "psi6",
        free=(X, x2, t),
        solve_steps=(S_CONSTRAINT, (X6_EQ, Y)),
        outputs=((x1, X / g_cubic(x2)), (u, Y / g_cubic(x2) ** 2)),
        target_eqs=(X5_EQ,),
    ))
    maps.append(RationalMap(
        "psi5",
        free=(x1, x2, t),
        solve_steps=(S_CONSTRAINT, (X5_EQ, u)),
        outputs=((X, PSI5_A), (Y, PSI5_B)),
        target_eqs=(X4_EQ,),
    ))
    maps.append(RationalMap(
        "psi4",
        free=(X, u, t),
        solve_steps=(S_CONSTRAINT, (X4_EQ, Y)),
        outputs=((x, -X), (y, Y)),
        target_eqs=(X3_EQ,),
    ))
    maps.append(RationalMap(
        "psi3",
        free=(x, u, t),
        solve_steps=(S_CONSTRAINT, (X3_EQ, y)),
        outputs=((x, t**2 * x / u**2), (y, t**3 * y / u**3)),
        target_eqs=(X2_EQ,),
    ))
    maps.append(RationalMap(
        "psi2",
        free=(x, u, t),
        solve_steps=(S_CONSTRAINT, (X2_EQ, y)),
        outputs=((u1, u**2 * (1 + S)),),
        target_eqs=(inose_eq(x, y, u1),),
    ))
    maps.append(RationalMap(
        "qt_section",
        free=(u, t),
        solve_steps=(),
        outputs=((X, QT_X), (Y, QT_Y)),
        target_eqs=(inose_eq(X, Y, u),),
    ))
    maps.append(RationalMap(
        "qt_section_t1",
        free=(u,),
        solve_steps=((t - 1, t),),
        outputs=((X, QT_X), (Y, QT_Y)),
        target_eqs=(inose_eq(X, Y, u),),
    ))
    maps.append(RationalMap(
        "identity_sanity",
        free=(x, s, t),
        solve_steps=((x * (s - x) * z * (1 - (s + z)) - 1 / (256 * t), z),),
        outputs=(),
        target_eqs=(x * (s - x) * z * (1 - (s + z)) - 1 / (256 * t),),
    ))
    return {m.name: m for m in maps}


CATALOG = _entries()

PSI_CHAIN = ("psi8", "psi7", "psi6", "psi5", "psi4", "psi3", "psi2")
