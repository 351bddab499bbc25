"""Closed-form calculus for the Kronecker algebra, with no linear algebra.

Objects are the indecomposables over the path algebra of the two-arrow
quiver: preprojectives P_i, preinjectives Q_i, regular modules at rational
points of the projective line, Pruefer modules, and the purely symbolic
Lukas and generic modules.  This module reads and writes them and their
sums, and gives dimension vectors ((d1, d2) with P_i = (i-1, i) and
Q_i = (i, i-1), so P1 = (0, 1) is the simple projective), the Euler form,
the Auslander-Reiten translate, Hom, Ext^1 and the tilting test in closed
form.  It imports neither fractions nor exactlin, so the CLI's token verbs
load it alone; kronecker, which holds the explicit representations that
check these forms, imports every name defined here.
"""

from __future__ import annotations

import math
import re
from typing import Optional, Union

from .frozen import frozen

# ---------------------------------------------------------------------------
# points of the projective line
# ---------------------------------------------------------------------------

Point = tuple  # reduced homogeneous pair (a, b) of ints


def normalize_point(a: int, b: int) -> Point:
    """Reduce a homogeneous coordinate pair: coprime, first nonzero entry > 0."""
    if a == 0 and b == 0:
        raise ValueError("(0:0) is not a point of the projective line")
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return (a, b)


def render_point(p: Point) -> str:
    return f"{p[0]}:{p[1]}"


# ---------------------------------------------------------------------------
# object types
# ---------------------------------------------------------------------------


@frozen
class DimVector:
    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 0 or self.d2 < 0:
            raise ValueError("dimension vector must be nonnegative")

    def __add__(self, other: "DimVector") -> "DimVector":
        return DimVector(self.d1 + other.d1, self.d2 + other.d2)

    def scaled(self, k: int) -> "DimVector":
        return DimVector(k * self.d1, k * self.d2)


@frozen
class Preprojective:
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("preprojective index starts at 1")


@frozen
class Preinjective:
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("preinjective index starts at 1")


@frozen
class Regular:
    point: Point
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("regular length starts at 1")
        object.__setattr__(self, "point", normalize_point(*self.point))


@frozen
class Pruefer:
    point: Point

    def __post_init__(self):
        object.__setattr__(self, "point", normalize_point(*self.point))


@frozen
class Lukas:
    pass


@frozen
class Generic:
    pass


@frozen
class LocalizedRing:
    """Symbolic summand: the universal localization of the algebra at the
    simple regular modules of a finite set of points."""

    points: frozenset

    def __post_init__(self):
        object.__setattr__(
            self, "points", frozenset(normalize_point(*p) for p in self.points))


KroneckerObject = Union[Preprojective, Preinjective, Regular, Pruefer,
                        Lukas, Generic, LocalizedRing]

_FINITE_TYPES = (Preprojective, Preinjective, Regular)


def is_finite_dimensional(x: KroneckerObject) -> bool:
    return isinstance(x, _FINITE_TYPES)


def _sort_key(x: KroneckerObject):
    if isinstance(x, Preprojective):
        return (0, x.index, ())
    if isinstance(x, Preinjective):
        return (1, x.index, ())
    if isinstance(x, Regular):
        return (2, x.length, x.point)
    if isinstance(x, Pruefer):
        return (3, 0, x.point)
    if isinstance(x, LocalizedRing):
        return (4, 0, tuple(sorted(x.points)))
    if isinstance(x, Lukas):
        return (5, 0, ())
    return (6, 0, ())


def render_object(x: KroneckerObject) -> str:
    if isinstance(x, Preprojective):
        return f"P{x.index}"
    if isinstance(x, Preinjective):
        return f"Q{x.index}"
    if isinstance(x, Regular):
        return f"R({render_point(x.point)},{x.length})"
    if isinstance(x, Pruefer):
        return f"Pruefer({render_point(x.point)})"
    if isinstance(x, Lukas):
        return "Lukas"
    if isinstance(x, Generic):
        return "Generic"
    if isinstance(x, LocalizedRing):
        pts = ",".join(render_point(p) for p in sorted(x.points))
        return f"R_U{{{pts}}}"
    raise TypeError(f"unknown object {x!r}")


_POINT_RE = r"(\()?(-?[0-9]+)\s*:\s*(-?[0-9]+)(?(1)\))"


def parse_point(text: str) -> Point:
    m = re.fullmatch(_POINT_RE, text.strip())
    if not m:
        raise ValueError(f"cannot parse point {text!r}")
    return normalize_point(int(m.group(2)), int(m.group(3)))


def parse_object(token: str) -> KroneckerObject:
    """Parse one object token of the textual grammar: P3, Q2, R(1:0,2),
    Pruefer(1:0), Lukas, Generic."""
    t = token.strip()
    if t == "Lukas":
        return Lukas()
    if t == "Generic":
        return Generic()
    m = re.fullmatch(r"P([0-9]+)", t)
    if m:
        return Preprojective(int(m.group(1)))
    m = re.fullmatch(r"Q([0-9]+)", t)
    if m:
        return Preinjective(int(m.group(1)))
    m = re.fullmatch(r"R\(([^(),]*),\s*([0-9]+)\s*\)", t)
    if m:
        return Regular(parse_point(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"Pruefer\(([^()]*)\)", t)
    if m:
        return Pruefer(parse_point(m.group(1)))
    raise ValueError(f"cannot parse object {token!r}")


# An object sum is a normalized tuple of (object, multiplicity) pairs.
ObjectSum = tuple


def object_sum(pairs) -> ObjectSum:
    acc: dict = {}
    for obj, mult in pairs:
        if mult < 0:
            raise ValueError("multiplicities must be positive")
        if mult:
            acc[obj] = acc.get(obj, 0) + mult
    return tuple(sorted(acc.items(), key=lambda kv: _sort_key(kv[0])))


def parse_object_sum(text: str) -> ObjectSum:
    """A sum of object tokens joined by +.  A multiplicity is ^ followed by
    ASCII digits, with no sign, space or underscore, and is positive."""
    text = text.strip()
    if text == "0":
        return ()
    pairs = []
    for part in text.split("+"):
        part = part.strip()
        token, caret, digits = part.partition("^")
        mult = 1
        if caret:
            try:
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError
                mult = int(digits)
            except ValueError:
                raise ValueError(
                    f"cannot parse multiplicity in {part!r}") from None
            if not mult:
                raise ValueError("multiplicities must be positive")
        pairs.append((parse_object(token), mult))
    return object_sum(pairs)


def render_object_sum(s: ObjectSum) -> str:
    if not s:
        return "0"
    bits = []
    for obj, mult in s:
        tok = render_object(obj)
        bits.append(tok if mult == 1 else f"{tok}^{mult}")
    return " + ".join(bits)


# ---------------------------------------------------------------------------
# dimension vectors, Euler form, AR translation
# ---------------------------------------------------------------------------


def dim_vector(x: KroneckerObject) -> DimVector:
    """Dimension vector of a finite-dimensional indecomposable."""
    if isinstance(x, Preprojective):
        return DimVector(x.index - 1, x.index)
    if isinstance(x, Preinjective):
        return DimVector(x.index, x.index - 1)
    if isinstance(x, Regular):
        return DimVector(x.length, x.length)
    raise ValueError(f"{render_object(x)} is not finite-dimensional")


def euler_form(d: DimVector, e: DimVector) -> int:
    """The bilinear form with <dim X, dim Y> = dim Hom(X,Y) - dim Ext^1(X,Y).

    The sign convention is forced by the orientation fixed in this module
    and is cross-checked against explicit representations in the tests.
    """
    return d.d1 * e.d1 + d.d2 * e.d2 - 2 * d.d1 * e.d2


def ar_translate(x: KroneckerObject) -> Optional[KroneckerObject]:
    """Auslander-Reiten translate; None on the indecomposable projectives."""
    if isinstance(x, Preprojective):
        return Preprojective(x.index - 2) if x.index >= 3 else None
    if isinstance(x, Preinjective):
        return Preinjective(x.index + 2)
    # regular, Pruefer, Lukas and generic objects are fixed: every tube of
    # the Kronecker algebra is homogeneous.
    return x


# ---------------------------------------------------------------------------
# Hom and Ext in closed form
# ---------------------------------------------------------------------------


def _ext_from_hom(hom: int, d: DimVector, e: DimVector) -> int:
    """dim Ext^1 = dim Hom - <d, e> for hereditary algebras."""
    val = hom - euler_form(d, e)
    if val < 0:
        raise ArithmeticError(
            "negative Ext dimension: orientation bookkeeping is inconsistent")
    return val


def hom_dim_objects(x: KroneckerObject, y: KroneckerObject) -> int:
    """dim Hom(x, y) between finite-dimensional indecomposables, in closed
    form (Ringel, LNM 1099; Assem-Simson-Skowronski vol. 1, ch. VIII):
    Hom(P_i, P_j) = max(0, j-i+1), Hom(P_i, Q_j) = i+j-2,
    Hom(P_i, R(x,l)) = Hom(R(x,l), Q_j) = l, Hom(Q_i, Q_j) = max(0, i-j+1),
    Hom(R(x,l), R(y,m)) = min(l, m) if x = y, and zero otherwise, since
    nothing maps from preinjectives to the rest or from regulars to
    preprojectives.  The cost does not depend on the index sizes; the
    intertwiner route hom_dim(explicit_rep(x), explicit_rep(y)) is the
    independent check in the tests."""
    for obj in (x, y):
        if not is_finite_dimensional(obj):
            raise ValueError(f"{render_object(obj)} is not finite-dimensional")
    if isinstance(x, Preprojective):
        if isinstance(y, Preprojective):
            return max(0, y.index - x.index + 1)
        if isinstance(y, Preinjective):
            return x.index + y.index - 2
        return y.length
    if isinstance(x, Regular):
        if isinstance(y, Regular):
            return min(x.length, y.length) if x.point == y.point else 0
        return x.length if isinstance(y, Preinjective) else 0
    if isinstance(y, Preinjective):
        return max(0, x.index - y.index + 1)
    return 0


def ext_dim_objects(x: KroneckerObject, y: KroneckerObject) -> int:
    """dim Ext^1(x, y) between finite-dimensional indecomposables: the
    closed-form Hom minus the Euler form."""
    return _ext_from_hom(hom_dim_objects(x, y), dim_vector(x), dim_vector(y))


# Symbolic Ext rules for the infinite-dimensional constants.  Only the
# cases actually used by the large-silting bookkeeping are defined.


def symbolic_ext_dim(x: KroneckerObject, y: KroneckerObject) -> int:
    if isinstance(x, Pruefer) and isinstance(y, Pruefer):
        return 0  # Pruefer modules are Ext-orthogonal
    if isinstance(x, (Generic, LocalizedRing)) and isinstance(y, Pruefer):
        return 0  # divisible targets of the generic / localized ring
    raise ValueError(
        f"Ext between {render_object(x)} and {render_object(y)} is not part "
        "of the symbolic calculus")


# ---------------------------------------------------------------------------
# tilting test
# ---------------------------------------------------------------------------


def is_tilting_module(s: ObjectSum) -> bool:
    """Tilting test for a sum of finite-dimensional modules.

    Over a hereditary algebra with two simples a module is tilting exactly
    when it is rigid and has two non-isomorphic indecomposable summands
    (Bongartz; Assem-Simson-Skowronski vol. 1, VI.4), so the test is the
    summand count and the vanishing of Ext^1 between all summands, both in
    closed form.  Symbolic summands are refused.
    """
    for obj, _ in s:
        if not is_finite_dimensional(obj):
            raise ValueError(
                f"{render_object(obj)} is symbolic; use the symbolic "
                "classification instead")
    summands = [obj for obj, _ in s]
    return len(summands) == 2 and all(
        ext_dim_objects(a, b) == 0 for a in summands for b in summands)
