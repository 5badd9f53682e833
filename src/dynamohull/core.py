"""Domain types and closed-form membership predicates.

The state of interest is a triple z = (B, u, E) of real 3-vectors.  The
constraint set couples them through the ideal-Ohm relation E = B x u at
fixed amplitudes |B| = r, |u| = s.  One-dimensional oscillations between
constraint-set states are only compatible with the underlying conservation
laws along directions of the wave cone {B . E = 0} (plus {u . E = 0} in the
stationary incompressible case).  Mixing constraint-set states along cone
directions fills out a strictly larger set, described in closed form by

    |B| <= r,  |u| <= s,  B . E = 0,
    |E - B x u|^2 <= (r^2 - |B|^2) (s^2 - |u|^2),

with u . E = 0 added for the stationary incompressible cone.  This module
implements the predicates for all of these sets, together with the two
separating functions that certify non-membership:

    g1(z) = B . E                     (affine along cone directions)
    g2(z) = max over a in [0,1] of
            a (|B|^2 - r^2) + (1-a)(|u|^2 - s^2)
            + 2 sqrt(a(1-a)) |B x u - E|    (convex)

A point lies in the mixed set exactly when g1 = 0 and g2 <= 0 (and
g3(z) = u . E = 0 for the stationary incompressible variant).
"""

from __future__ import annotations

import enum
import json
import math
from collections import namedtuple
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Vec3:
    """Immutable real 3-vector; rejects non-finite components at construction.

    Validation happens once, here; arithmetic between already-validated
    vectors goes through an unchecked internal constructor, so the hot
    predicates pay for the non-finiteness check only at the API boundary.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"non-finite Vec3 component {name} = {v}")
            _obj_set(self, name, v)

    def __repr__(self):
        return f"Vec3({self.x!r}, {self.y!r}, {self.z!r})"

    def __iter__(self):
        yield self.x
        yield self.y
        yield self.z

    def __add__(self, other: "Vec3") -> "Vec3":
        return _vec(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return _vec(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return _vec(-self.x, -self.y, -self.z)

    def __mul__(self, a: float) -> "Vec3":
        return _vec(self.x * a, self.y * a, self.z * a)

    __rmul__ = __mul__

    def __truediv__(self, a: float) -> "Vec3":
        return _vec(self.x / a, self.y / a, self.z / a)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return _vec(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm2(self) -> float:
        return self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        x, y, z = self.x, self.y, self.z
        return math.sqrt(x * x + y * y + z * z)

    def normalized(self) -> "Vec3":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return _vec(self.x / n, self.y / n, self.z / n)

    def as_list(self) -> list[float]:
        return [self.x, self.y, self.z]


_obj_new = object.__new__
_obj_set = object.__setattr__
# The slots' own setters, which skip the frozen dataclass's __setattr__.
_set_x, _set_y, _set_z = Vec3.x.__set__, Vec3.y.__set__, Vec3.z.__set__


def _vec(x: float, y: float, z: float) -> Vec3:
    """Unchecked Vec3 for arithmetic on already-validated values."""
    v = _obj_new(Vec3)
    _set_x(v, x)
    _set_y(v, y)
    _set_z(v, z)
    return v


@dataclass(frozen=True, slots=True)
class Triple:
    """A state z = (B, u, E): magnetic field, velocity and electric field values."""

    B: Vec3
    u: Vec3
    E: Vec3

    def __post_init__(self):
        for name, v in (("B", self.B), ("u", self.u), ("E", self.E)):
            if not isinstance(v, Vec3):
                raise TypeError(f"Triple field {name} must be a Vec3, got {type(v).__name__}")

    def __add__(self, other: "Triple") -> "Triple":
        return _triple(self.B + other.B, self.u + other.u, self.E + other.E)

    def __sub__(self, other: "Triple") -> "Triple":
        return _triple(self.B - other.B, self.u - other.u, self.E - other.E)

    def __mul__(self, a: float) -> "Triple":
        return _triple(self.B * a, self.u * a, self.E * a)

    __rmul__ = __mul__

    def norm(self, r: float = 1.0, s: float = 1.0) -> float:
        """Euclidean norm of the 9-component state (B/r, u/s, E/(rs))."""
        return _norm_rs(*_parts(self), r, s)

    def to_json_dict(self) -> dict:
        return {"B": self.B.as_list(), "u": self.u.as_list(), "E": self.E.as_list()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "Triple":
        try:
            return cls(Vec3(*d["B"]), Vec3(*d["u"]), Vec3(*d["E"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed triple JSON: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "Triple":
        return cls.from_json_dict(json.loads(text))


_set_B, _set_u, _set_E = Triple.B.__set__, Triple.u.__set__, Triple.E.__set__


def _triple(B: Vec3, u: Vec3, E: Vec3) -> Triple:
    """Unchecked Triple for arithmetic on already-validated values."""
    z = _obj_new(Triple)
    _set_B(z, B)
    _set_u(z, u)
    _set_E(z, E)
    return z


# With r s and r / s in this range, r and s lie in [1e-75, 1e75] and every
# product of the radii the kernels form (up to r^2 s^2) is a finite, normal double.
RADIUS_PRODUCT_RANGE = (1e-75, 1e75)


@dataclass(frozen=True, slots=True)
class HullParams:
    """Amplitude radii |B| = r, |u| = s; r s and r / s in RADIUS_PRODUCT_RANGE."""

    r: float
    s: float

    def __post_init__(self):
        for name, label in (("r", "magnetic"), ("s", "velocity")):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{label} radius {name} must be a positive finite real, got {v}")
            _obj_set(self, name, v)
        lo, hi = RADIUS_PRODUCT_RANGE
        if not (lo <= self.r * self.s <= hi and lo <= self.r / self.s <= hi):
            raise ValueError(f"radii r = {self.r}, s = {self.s} out of range: r*s and r/s "
                             f"must lie in [{lo}, {hi}]")

    def to_json_dict(self) -> dict:
        return {"r": self.r, "s": self.s}

    @classmethod
    def from_json_dict(cls, d: dict) -> "HullParams":
        try:
            return cls(d["r"], d["s"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed params JSON: {exc}") from exc


@dataclass(frozen=True, slots=True)
class Tolerances:
    """Numerical slacks used by the predicates and the decomposition solver.

    eps_mem is the dimensionless slack of membership and verification, made
    on the normalised triple (B/r, u/s, E/(rs)) at every radius pair;
    eps_root is the exact-Ohm threshold: decompose treats a point with
    |E - B x u| / (rs) <= eps_root as E = B x u; eps_residual is the slack
    for plane-wave and PDE residuals.
    """

    eps_mem: float = 1e-9
    eps_root: float = 1e-12
    eps_residual: float = 1e-10

    def __post_init__(self):
        for name in ("eps_mem", "eps_root", "eps_residual"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be a positive finite real, got {v}")
            _obj_set(self, name, v)
        if not self.eps_root < self.eps_mem:
            raise ValueError(f"eps_root ({self.eps_root}) must be smaller than "
                             f"eps_mem ({self.eps_mem})")


DEFAULT_TOLERANCES = Tolerances()


class ConeKind(enum.Enum):
    """Which system variant the oscillation-direction cone belongs to.

    The first three variants share the cone {B . E = 0}; the stationary
    incompressible one shrinks it to {B . E = 0, u . E = 0}.
    """

    NONSTATIONARY = "nonstationary"
    NONSTATIONARY_INCOMPRESSIBLE = "nonstationary-incompressible"
    STATIONARY = "stationary"
    STATIONARY_INCOMPRESSIBLE = "stationary-incompressible"

    @property
    def label(self) -> str:
        return self.value

    @property
    def restricts_u(self) -> bool:
        """True when the cone carries the extra u . E = 0 condition."""
        return self is ConeKind.STATIONARY_INCOMPRESSIBLE

    @property
    def incompressible(self) -> bool:
        return self in (ConeKind.NONSTATIONARY_INCOMPRESSIBLE,
                        ConeKind.STATIONARY_INCOMPRESSIBLE)

    @property
    def stationary(self) -> bool:
        return self in (ConeKind.STATIONARY, ConeKind.STATIONARY_INCOMPRESSIBLE)

    @classmethod
    def from_label(cls, label: str) -> "ConeKind":
        for kind in cls:
            if kind.value == label:
                return kind
        raise ValueError(f"unknown cone kind {label!r}; expected one of "
                         + ", ".join(k.value for k in cls))


def eval_g1(z: Triple) -> float:
    """B . E, affine along every direction of the shared cone."""
    return z.B.dot(z.E)


def eval_g2(z: Triple, p: HullParams) -> float:
    """Convex amplitude-excess function, evaluated in closed form.

    The inner maximum of a*(|B|^2-r^2) + (1-a)*(|u|^2-s^2)
    + 2 sqrt(a(1-a)) c over a in [0,1] equals, with a = |B|^2 - r^2,
    b = |u|^2 - s^2 and c = |B x u - E|,

        (a + b) / 2 + sqrt(((a - b) / 2)^2 + c^2),

    via the substitution a = (1+t)/2 which turns the objective into
    (a+b)/2 + t (a-b)/2 + sqrt(1-t^2) c on t in [-1, 1].
    """
    a = z.B.norm2() - p.r * p.r
    b = z.u.norm2() - p.s * p.s
    c = (z.B.cross(z.u) - z.E).norm()
    half_diff = 0.5 * (a - b)
    return 0.5 * (a + b) + math.hypot(half_diff, c)


def eval_g3(z: Triple) -> float:
    """u . E, affine along stationary-incompressible cone directions."""
    return z.u.dot(z.E)


def in_constraint_set(z: Triple, p: HullParams, tol: Tolerances | None = None) -> bool:
    """True when E = B x u with |B| = r and |u| = s, up to relative slack."""
    eps = (tol or DEFAULT_TOLERANCES).eps_mem
    if abs(z.B.norm() - p.r) > eps * p.r:
        return False
    if abs(z.u.norm() - p.s) > eps * p.s:
        return False
    return (z.E - z.B.cross(z.u)).norm() <= eps * p.r * p.s


def _dot(a, b):
    """a . b of two component triples (floats or numpy columns), in Vec3.dot's order."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    """a x b of two component triples (floats or numpy columns), in Vec3.cross's order."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


# The functions a kernel below takes from its operand type.  Each kernel is
# written once, on component triples, and runs on Python floats with _FLOATS
# and on numpy columns with oracle._COLUMNS (oracle builds every column, and
# this module imports no numpy), in the same operations and order, so a
# block row rounds exactly as one point.  where(c, a, b) is a where c holds,
# else b; positive(x) is max(0.0, x) with Python's max semantics (NaN -> 0.0);
# quotient(n, d) is n / d, or 0.0 where d == 0.  A float kernel raises where a
# column kernel gives inf or NaN, so its callers guard the arithmetic first.
_Math = namedtuple("_Math", "sqrt where positive quotient")
_FLOATS = _Math(math.sqrt, lambda c, a, b: a if c else b, lambda x: x if x > 0.0 else 0.0,
                lambda n, d: n / d if d else 0.0)


def _parts(z: Triple):
    """The (B, u, E) component triples of one state, as the block engine holds a block's."""
    B, u, E = z.B, z.u, z.E
    return (B.x, B.y, B.z), (u.x, u.y, u.z), (E.x, E.y, E.z)


def _from_parts(B, u, E) -> Triple:
    """The Triple of a (B, u, E) state of float component triples; _parts inverted."""
    return _triple(_vec(*B), _vec(*u), _vec(*E))


def _norm_rs(B, u, E, r: float, s: float, m: _Math = _FLOATS):
    """The norm of the 9-component state (B/r, u/s, E/(rs)) of a (B, u, E) state of
    component triples, floats or columns; Triple.norm(r, s) is its float view."""
    return m.sqrt(_dot(B, B) / (r * r) + _dot(u, u) / (s * s) + _dot(E, E) / (r * r * s * s))


def _frame(v, m: _Math = _FLOATS):
    """An orthonormal frame (n, p1, p2) of a component triple v, floats or columns:
    n = v / |v|, or the z axis where |v| = 0; p1 is n x the coordinate axis of
    n's smallest component, normalised, and p2 = n x p1.  On floats v needs
    |v| > 0; on columns it runs under np.errstate(all="ignore")."""
    vn = m.sqrt(_dot(v, v))
    zero = vn == 0.0
    n = tuple(m.where(zero, a, x / vn) for x, a in zip(v, (0.0, 0.0, 1.0)))
    an = tuple(abs(x) for x in n)
    on_x = (an[0] <= an[1]) & (an[0] <= an[2])
    ax = m.where(on_x, 1.0, 0.0)
    ay = m.where(on_x, 0.0, m.where(an[1] <= an[2], 1.0, 0.0))
    p1 = _cross(n, (ax, ay, 1.0 - ax - ay))
    inv_p = 1.0 / m.sqrt(_dot(p1, p1))
    p1 = tuple(x * inv_p for x in p1)
    return n, p1, _cross(n, p1)


def _perpendicular(a, b, m: _Math = _FLOATS):
    """A unit vector perpendicular to a and b, component triples, floats or columns.

    In the frame (n, p1, p2) of a, the part of b perpendicular to n is
    c1 p1 + c2 p2; turned by a right angle about n it gives
    (c1 p2 - c2 p1) / rho, with rho = sqrt(c1^2 + c2^2), perpendicular to
    both at every angle between them, with no threshold.  Where rho = 0 (b
    parallel to a, or zero) it is p1.  A zero a is replaced by the z axis,
    whose frame _frame gives it on columns.
    """
    zero = _dot(a, a) == 0.0
    _, p1, p2 = _frame(tuple(m.where(zero, z, x) for x, z in zip(a, (0.0, 0.0, 1.0))), m)
    c1, c2 = _dot(b, p1), _dot(b, p2)
    rho = m.sqrt(c1 * c1 + c2 * c2)
    return tuple(m.where(rho == 0.0, x, m.quotient(c1 * y - c2 * x, rho)) for x, y in zip(p1, p2))


def _unit_scaled(v: Vec3) -> tuple:
    """The components of v times the power of two that brings its largest to
    [0.5, 1): exact, so the frame of v is unchanged, but v . v can neither
    overflow nor underflow in _frame."""
    e = math.frexp(max(abs(x) for x in v))[1]
    return tuple(math.ldexp(x, -e) for x in v)


def unit_perpendicular(v: Vec3) -> Vec3:
    """A unit vector perpendicular to v: p1 of v's frame (the y axis if v = 0)."""
    return _vec(*_perpendicular(_unit_scaled(v), (0.0, 0.0, 0.0)))


def unit_perpendicular_to_all(vs: tuple[Vec3, Vec3]) -> Vec3:
    """A unit vector perpendicular to both vectors of vs = (a, b); where they are
    parallel, or one is zero, it is perpendicular to the other."""
    return _vec(*_perpendicular(*map(_unit_scaled, vs)))


def _cone_residual(a, b, unit, m: _Math = _FLOATS):
    """|a . b| / (unit + |a||b|) of component triples, the residual of a cone condition
    a . b = 0; unit = r^2 s for B . E (r s^2 for u . E) normalises it as (B/r, u/s, E/(rs)).
    0.0 where the denominator vanishes, as it does in in_wave_cone for B = 0."""
    return m.quotient(abs(_dot(a, b)), unit + m.sqrt(_dot(a, a)) * m.sqrt(_dot(b, b)))


def _excess_cap(nb2, nu2, p: HullParams, m: _Math = _FLOATS):
    """(r^2 - |B|^2)(s^2 - |u|^2), each factor clipped at 0, from |B|^2 and |u|^2:
    the square of the sharp bound on |E - B x u|."""
    return m.positive(p.r * p.r - nb2) * m.positive(p.s * p.s - nu2)


def in_wave_cone(z: Triple, kind: ConeKind, tol: Tolerances | None = None) -> bool:
    """True when z is an admissible one-dimensional oscillation direction:
    |B . E| <= eps_mem |B| (|E| + |B x u|) and likewise u . E, unchanged under
    (B, u, E) -> (aB, bu, abE); |B x u| absorbs rounding in a cancelled E."""
    eps = (tol or DEFAULT_TOLERANCES).eps_mem
    B, u, E = _parts(z)
    mix = z.B.cross(z.u).norm()
    return _cone_residual(B, E, z.B.norm() * mix) <= eps and (
        not kind.restricts_u or _cone_residual(u, E, z.u.norm() * mix) <= eps)


def _separation_flags(B, u, E, p: HullParams, kind: ConeKind, eps: float, m: _Math):
    """The membership kernel: the flags (g1, g3, g2), each true where that function
    separates the point (B, u, E) of component triples, floats or numpy columns,
    and the terms (|B|^2, |u|^2, E - B x u, |E - B x u|^2) they are made of, which
    the decomposition takes over rather than forming them again.

    Every comparison is made on the normalised triple (b, v, e) =
    (B/r, u/s, E/(rs)), where the relaxed set is the same for all radii:
    |b . e| <= eps (1 + |b||e|) and likewise v . e; |b|, |v| <= 1 + eps;
    |e - b x v|^2 <= (1 - |b|^2)(1 - |v|^2) + eps.  The radii are folded into
    unrolled arithmetic: this kernel sits inside the million-point campaigns.
    The flags combine with |, as bools and as masks.
    """
    sqrt = m.sqrt
    r, s = p.r, p.s
    rr, ss = r * r, s * s
    bx, by, bz = B
    ux, uy, uz = u
    ex, ey, ez = E
    nb2 = bx * bx + by * by + bz * bz
    nu2 = ux * ux + uy * uy + uz * uz
    nb = sqrt(nb2)
    nu = sqrt(nu2)
    ne = sqrt(ex * ex + ey * ey + ez * ez)
    g1 = abs(bx * ex + by * ey + bz * ez) > eps * (rr * s + nb * ne)
    g3 = kind.restricts_u and abs(ux * ex + uy * ey + uz * ez) > eps * (r * ss + nu * ne)
    wx = ex - (by * uz - bz * uy)
    wy = ey - (bz * ux - bx * uz)
    wz = ez - (bx * uy - by * ux)
    w2 = wx * wx + wy * wy + wz * wz
    g2 = ((nb > r * (1.0 + eps)) | (nu > s * (1.0 + eps))
          | (w2 > _excess_cap(nb2, nu2, p, m) + eps * (rr * ss)))
    return (g1, g3, g2), (nb2, nu2, (wx, wy, wz), w2)


def _separating_function(z: Triple, p: HullParams, kind: ConeKind, eps: float) -> str | None:
    """Which of "g1", "g3", "g2" separates z, or None: the first flag, in that
    order, of the membership kernel, whose one body runs here on the floats of
    one point and in the block engine on the numpy columns of a block."""
    (g1, g3, g2), _ = _separation_flags(*_parts(z), p, kind, eps, _FLOATS)
    return "g1" if g1 else "g3" if g3 else "g2" if g2 else None


def in_hull(z: Triple, p: HullParams, kind: ConeKind = ConeKind.NONSTATIONARY,
            tol: Tolerances | None = None) -> bool:
    """Closed-form membership in the relaxed set: no function separates z.

    |B| <= r, |u| <= s, B . E = 0 (and u . E = 0 for the stationary
    incompressible kind) and |E - B x u|^2 <= (r^2 - |B|^2)(s^2 - |u|^2),
    each checked on the normalised triple (B/r, u/s, E/(rs)) with slack eps_mem.
    """
    return _separating_function(z, p, kind, (tol or DEFAULT_TOLERANCES).eps_mem) is None


def hull_excess_bound(B: Vec3, u: Vec3, p: HullParams) -> float:
    """sqrt((r^2 - |B|^2)(s^2 - |u|^2)), the sharp bound on |E - B x u|."""
    return math.sqrt(_excess_cap(B.norm2(), u.norm2(), p))


@dataclass(frozen=True)
class SeparationWitness:
    """Which separating function certifies non-membership, if any.

    function is "g1", "g2" or "g3"; None means no separation (the point is
    in the relaxed set).  value is the attained function value.
    """

    function: str | None
    value: float

    @property
    def separates(self) -> bool:
        return self.function is not None

    def to_json_dict(self) -> dict:
        return {"function": self.function, "value": self.value}


def separation_witness(z: Triple, p: HullParams, kind: ConeKind = ConeKind.NONSTATIONARY,
                       tol: Tolerances | None = None) -> SeparationWitness:
    """Certify membership or return the separating function and its value.

    The relaxed set is exactly {g1 = 0} ∩ {g2 <= 0} (∩ {g3 = 0} for the
    stationary incompressible cone), so one of the three functions always
    witnesses a point outside it.  The verdict is in_hull's; the value is
    the function evaluated in the caller's units.
    """
    function = _separating_function(z, p, kind, (tol or DEFAULT_TOLERANCES).eps_mem)
    if function is None:
        return SeparationWitness(None, 0.0)
    value = eval_g1(z) if function == "g1" else eval_g3(z) if function == "g3" else eval_g2(z, p)
    return SeparationWitness(function, value)
