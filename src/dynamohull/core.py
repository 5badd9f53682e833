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

Vec3 and Triple are immutable tuples of components: a Triple is the
(B, u, E) state of three float component triples, which every kernel here
takes as it is.  The same kernel bodies run on the numpy columns of a block
in oracle.  Every other record of the package (HullParams, Tolerances,
SeparationWitness here) is likewise a namedtuple subclass.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import namedtuple


def _dot(a, b):
    """a . b of two component triples (floats or numpy columns)."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    """a x b of two component triples (floats or numpy columns)."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _float(v, name: str) -> float:
    """float(v), or ValueError where v is a number too large for a float, like
    the ValueError of a non-finite one (float() raises OverflowError there)."""
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


class Vec3(namedtuple("Vec3", "x y z")):
    """Immutable real 3-vector: the tuple (x, y, z) of its float components.

    A Vec3 is a component triple, so the kernels take it as it is, and it
    compares equal to (and hashes as) the plain tuple of its components.
    The constructor rejects non-finite components and numbers too large for
    a float, each with ValueError; arithmetic between already-validated
    vectors goes through the unchecked _vec, so the hot predicates pay for
    the check only at the API boundary.  Its dot, cross
    and norms are views of the kernels' _dot and _cross.
    """

    __slots__ = ()
    # Keeps numpy from reading a Vec3 as an array: np.float64(2.0) * v is a Vec3.
    __array_ufunc__ = None

    def __new__(cls, x: float, y: float, z: float):
        v = _tuple_new(cls, (_float(x, "Vec3 component x"), _float(y, "Vec3 component y"),
                             _float(z, "Vec3 component z")))
        for name, c in zip(cls._fields, v):
            if not math.isfinite(c):
                raise ValueError(f"non-finite Vec3 component {name} = {c}")
        return v

    def __repr__(self):
        return f"Vec3({self.x!r}, {self.y!r}, {self.z!r})"

    def __add__(self, other: "Vec3") -> "Vec3":
        return _vec((self[0] + other[0], self[1] + other[1], self[2] + other[2]))

    def __sub__(self, other: "Vec3") -> "Vec3":
        return _vec((self[0] - other[0], self[1] - other[1], self[2] - other[2]))

    def __neg__(self) -> "Vec3":
        return _vec((-self[0], -self[1], -self[2]))

    def __mul__(self, a: float) -> "Vec3":
        return _vec((self[0] * a, self[1] * a, self[2] * a))

    __rmul__ = __mul__

    def __truediv__(self, a: float) -> "Vec3":
        return _vec((self[0] / a, self[1] / a, self[2] / a))

    dot = _dot

    def cross(self, other: "Vec3") -> "Vec3":
        return _vec(_cross(self, other))

    def norm2(self) -> float:
        return _dot(self, self)

    def norm(self) -> float:
        return math.sqrt(_dot(self, self))


_tuple_new = tuple.__new__
# Unchecked Vec3 of a component triple, for arithmetic on already-validated values.
_vec = functools.partial(_tuple_new, Vec3)


class Triple(namedtuple("Triple", "B u E")):
    """A state z = (B, u, E): magnetic field, velocity and electric field values.

    The tuple of its three Vec3 fields: the (B, u, E) state of component
    triples that the kernels take as it is.
    """

    __slots__ = ()
    # As on Vec3: np.float64(2.0) * z is a Triple.
    __array_ufunc__ = None

    def __new__(cls, B: Vec3, u: Vec3, E: Vec3):
        for name, v in zip(cls._fields, (B, u, E)):
            if not isinstance(v, Vec3):
                raise TypeError(f"Triple field {name} must be a Vec3, got {type(v).__name__}")
        return _tuple_new(cls, (B, u, E))

    # Each field's components are read once, by index (no slower than
    # unpacking here), and _from_parts builds the result: no Vec3 operator runs.
    def __add__(self, other: "Triple") -> "Triple":
        B, u, E = self
        oB, ou, oE = other
        return _from_parts((B[0] + oB[0], B[1] + oB[1], B[2] + oB[2]),
                           (u[0] + ou[0], u[1] + ou[1], u[2] + ou[2]),
                           (E[0] + oE[0], E[1] + oE[1], E[2] + oE[2]))

    def __sub__(self, other: "Triple") -> "Triple":
        B, u, E = self
        oB, ou, oE = other
        return _from_parts((B[0] - oB[0], B[1] - oB[1], B[2] - oB[2]),
                           (u[0] - ou[0], u[1] - ou[1], u[2] - ou[2]),
                           (E[0] - oE[0], E[1] - oE[1], E[2] - oE[2]))

    def __mul__(self, a: float) -> "Triple":
        B, u, E = self
        return _from_parts((B[0] * a, B[1] * a, B[2] * a), (u[0] * a, u[1] * a, u[2] * a),
                           (E[0] * a, E[1] * a, E[2] * a))

    __rmul__ = __mul__

    def norm(self, r: float = 1.0, s: float = 1.0) -> float:
        """Euclidean norm of the 9-component state (B/r, u/s, E/(rs))."""
        B, u, E = self
        return _norm_rs(_dot(B, B), _dot(u, u), _dot(E, E), r, s)

    def to_json_dict(self) -> dict:
        return {"B": list(self.B), "u": list(self.u), "E": list(self.E)}

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "Triple":
        try:
            return cls(Vec3(*d["B"]), Vec3(*d["u"]), Vec3(*d["E"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed triple JSON: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "Triple":
        import json

        return cls.from_json_dict(json.loads(text))


# With r s and r / s in this range, r and s lie in [1e-75, 1e75] and every
# product of the radii the kernels form (up to r^2 s^2) is a finite, normal double.
RADIUS_PRODUCT_RANGE = (1e-75, 1e75)


# The _make, and so the _replace, of a validated record: through its constructor.
_checked_make = classmethod(lambda cls, fields: cls(*fields))


def _positive_real(v, name: str) -> float:
    """float(v), or ValueError unless it is positive and finite."""
    v = _float(v, name)
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"{name} must be a positive finite real, got {v}")
    return v


class HullParams(namedtuple("HullParams", "r s")):
    """Amplitude radii |B| = r, |u| = s; r s and r / s in RADIUS_PRODUCT_RANGE.

    The tuple (r, s) of floats.  Like every validated record here, its
    _make, and so its _replace, checks through the constructor.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, r: float, s: float):
        p = _tuple_new(cls, map(_positive_real, (r, s), ("magnetic radius r", "velocity radius s")))
        lo, hi = RADIUS_PRODUCT_RANGE
        if not (lo <= p[0] * p[1] <= hi and lo <= p[0] / p[1] <= hi):
            raise ValueError(f"radii r = {p[0]}, s = {p[1]} out of range: r*s and r/s "
                             f"must lie in [{lo}, {hi}]")
        return p

    def to_json_dict(self) -> dict:
        return {"r": self.r, "s": self.s}

    @classmethod
    def from_json_dict(cls, d: dict) -> "HullParams":
        try:
            return cls(d["r"], d["s"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed params JSON: {exc}") from exc


class Tolerances(namedtuple("Tolerances", "eps_mem")):
    """The numerical slack of the predicates and the checks: a validated record.

    eps_mem is the dimensionless slack of membership and verification, made
    on the normalised triple (B/r, u/s, E/(rs)) at every radius pair.  The
    decomposition itself takes no tolerance, and the plane-wave conditions
    take the constant planewave.RESIDUAL_SLACK.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, eps_mem: float = 1e-9):
        return _tuple_new(cls, (_positive_real(eps_mem, "eps_mem"),))


DEFAULT_TOLERANCES = Tolerances()


class ConeKind(enum.Enum):
    """Which system variant the oscillation-direction cone belongs to.

    The first three variants share the cone {B . E = 0}; the stationary
    incompressible one shrinks it to {B . E = 0, u . E = 0}.  Each member
    carries its flags as plain attributes: label (its value), restricts_u,
    incompressible and stationary.
    """

    NONSTATIONARY = "nonstationary"
    NONSTATIONARY_INCOMPRESSIBLE = "nonstationary-incompressible"
    STATIONARY = "stationary"
    STATIONARY_INCOMPRESSIBLE = "stationary-incompressible"

    def __init__(self, label: str):
        self.label = label
        # The cone carries the extra u . E = 0 condition.
        self.restricts_u = label == "stationary-incompressible"
        self.incompressible = label.endswith("-incompressible")
        self.stationary = label.startswith("stationary")

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
    (bx, by, bz), (ux, uy, uz), (ex, ey, ez) = z
    wx, wy, wz = _excess(bx, by, bz, ux, uy, uz, ex, ey, ez)
    return _g2_value(bx * bx + by * by + bz * bz, ux * ux + uy * uy + uz * uz,
                     wx * wx + wy * wy + wz * wz, p)


def _g2_value(nb2, nu2, w2, p: HullParams) -> float:
    """eval_g2's closed form from |B|^2, |u|^2 and |E - B x u|^2."""
    r, s = p
    a = nb2 - r * r
    b = nu2 - s * s
    return 0.5 * (a + b) + math.hypot(0.5 * (a - b), math.sqrt(w2))


def eval_g3(z: Triple) -> float:
    """u . E, affine along stationary-incompressible cone directions."""
    return z.u.dot(z.E)


def in_constraint_set(z: Triple, p: HullParams, tol: Tolerances | None = None) -> bool:
    """True when E = B x u, |B| = r and |u| = s: each _constraint_residuals <= eps_mem."""
    eps = (tol or DEFAULT_TOLERANCES).eps_mem
    B, u, E = z
    return all(x <= eps for x in _constraint_residuals(*B, *u, *E, p.r, p.s))


# The functions a kernel below takes from its operand type.  Each kernel is
# written once, on component triples, and runs on Python floats with _FLOATS
# and on numpy columns with oracle._COLUMNS (oracle builds every column, and
# this module imports no numpy), in the same operations and order, so a
# block row rounds exactly as one point.  The membership, decomposition and
# verification kernels, in_wave_cone, the plane-wave layer in planewave, and
# the helpers below that they call, unpack each triple they read into locals
# once and bind the functions of _Math they call more than once to locals:
# CPython specialises neither indexing into a tuple subclass (Vec3, Triple)
# nor reading a namedtuple field.  Dot and cross products are written out on
# those locals; a formula with a name (a residual, a norm, a bound) stays one
# helper, which takes the components and lengths its caller already has (one
# exception, E - B x u in the membership kernel, says why there).  A predicate
# hands the terms it formed to what follows it, so each is formed once per
# point: the membership kernel's feed the witness (_witness, _g2_value), the
# split, the sample rows and the campaign's u . E maximum, and in_wave_cone's
# (_wave_cone_terms) feed planewave.wave_vector_for.
# where(c, a, b) is a where c holds, else b; positive(x) is max(0.0, x) with
# Python's max semantics (NaN -> 0.0); quotient(n, d) is n / d, or 0.0 where d == 0;
# patch(c, v, fn, *args) is the component triple v with fn(*args) in its
# place where c holds, fn run on those rows only (on columns it writes into
# v's columns, which the caller owns; args are component triples).  A float
# kernel raises where a column kernel gives inf or NaN, so its callers guard
# the arithmetic first.
_Math = namedtuple("_Math", "sqrt where positive quotient patch")
_FLOATS = _Math(math.sqrt, lambda c, a, b: a if c else b, lambda x: x if x > 0.0 else 0.0,
                lambda n, d: n / d if d else 0.0, lambda c, v, fn, *args: fn(*args) if c else v)


def _from_parts(B, u, E) -> Triple:
    """The Triple of a (B, u, E) state of float component triples, unchecked,
    built by tuple.__new__ itself: _vec adds a call per record."""
    return _tuple_new(Triple, (_tuple_new(Vec3, B), _tuple_new(Vec3, u), _tuple_new(Vec3, E)))


def _norm_rs(nb2, nu2, ne2, r: float, s: float, m: _Math = _FLOATS):
    """The norm of the 9-component state (B/r, u/s, E/(rs)) from |B|^2, |u|^2 and
    |E|^2, floats or columns, as sqrt(|B|^2 / (r r) + |u|^2 / (s s)
    + |E|^2 / (r r s s)), each product left to right; Triple.norm(r, s) is
    its float view."""
    rr = r * r
    return m.sqrt(nb2 / rr + nu2 / (s * s) + ne2 / (rr * s * s))


def _excess(bx, by, bz, ux, uy, uz, ex, ey, ez):
    """E - B x u from the components of B, u and E, floats or columns: the
    kernels pass the components they have already unpacked."""
    return (ex - (by * uz - bz * uy), ey - (bz * ux - bx * uz), ez - (bx * uy - by * ux))


def _constraint_residuals(bx, by, bz, ux, uy, uz, ex, ey, ez, r: float, s: float,
                          m: _Math = _FLOATS):
    """(||B| - r| / r, ||u| - s| / s, |E - B x u| / (rs)) of a (B, u, E) state
    from its components, floats or columns: its distance from the constraint set."""
    sqrt = m.sqrt
    wx, wy, wz = _excess(bx, by, bz, ux, uy, uz, ex, ey, ez)
    return (abs(sqrt(bx * bx + by * by + bz * bz) - r) / r,
            abs(sqrt(ux * ux + uy * uy + uz * uz) - s) / s,
            sqrt(wx * wx + wy * wy + wz * wz) / (r * s))


def _unit(v, m: _Math = _FLOATS):
    """v / |v| of a component triple v, floats or columns, or the z axis where
    |v| = 0.  On floats v needs |v| > 0; on columns it runs under
    np.errstate(all="ignore")."""
    vn = m.sqrt(_dot(v, v))
    return m.patch(vn == 0.0, (v[0] / vn, v[1] / vn, v[2] / vn), lambda: (0.0, 0.0, 1.0))


def _frame(v, m: _Math = _FLOATS):
    """An orthonormal frame (n, p1, p2) of a component triple v, floats or columns:
    n = _unit(v); p1 is n x the coordinate axis of n's smallest component,
    normalised, and p2 = n x p1.  On floats v needs |v| > 0; on columns it
    runs under np.errstate(all="ignore")."""
    n = _unit(v, m)
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


def unit_perpendicular_to_all(vs: tuple[Vec3, Vec3]) -> Vec3:
    """A unit vector perpendicular to both vectors of vs = (a, b); where they are
    parallel, or one is zero, it is perpendicular to the other."""
    return _vec(_perpendicular(*map(_unit_scaled, vs)))


def _cone_residual(ab, a_len, b_len, unit, m: _Math = _FLOATS):
    """|a . b| / (unit + |a||b|) from a . b and the lengths |a|, |b|, floats or
    columns: the residual of a cone condition a . b = 0; unit = r^2 s for B . E
    (r s^2 for u . E) normalises it as (B/r, u/s, E/(rs)).  0.0 where the
    denominator vanishes, as it does in in_wave_cone for B = 0."""
    return m.quotient(abs(ab), unit + a_len * b_len)


def _amplitude_gaps(nb2, nu2, p: HullParams, m: _Math = _FLOATS):
    """(r^2 - |B|^2, s^2 - |u|^2), each clipped at 0, from |B|^2 and |u|^2: the
    squared amplitude budgets left to a perturbation of B and of u.  Their
    product is the square of the sharp bound on |E - B x u|."""
    r, s = p
    positive = m.positive
    return positive(r * r - nb2), positive(s * s - nu2)


def in_wave_cone(z: Triple, kind: ConeKind, tol: Tolerances | None = None) -> bool:
    """True when z is an admissible one-dimensional oscillation direction:
    |B . E| <= eps_mem |B| (|E| + |B x u|) and likewise u . E, unchanged under
    (B, u, E) -> (aB, bu, abE) while no product of components over- or
    underflows; |B x u| absorbs rounding in a cancelled E."""
    return _wave_cone_terms(z, kind, tol) is not None


def _wave_cone_terms(z, kind: ConeKind, tol: Tolerances | None):
    """in_wave_cone's body on a (B, u, E) state of float component triples: None
    where z is not in the cone, else the terms it formed, the components of
    B x u, |B|^2, |E| and |B x u|, which planewave.wave_vector_for takes over."""
    eps = (tol or DEFAULT_TOLERANCES).eps_mem
    sqrt = math.sqrt
    (bx, by, bz), (ux, uy, uz), (ex, ey, ez) = z
    nx, ny, nz = by * uz - bz * uy, bz * ux - bx * uz, bx * uy - by * ux
    mix = sqrt(nx * nx + ny * ny + nz * nz)
    nb2 = bx * bx + by * by + bz * bz
    nb, ne = sqrt(nb2), sqrt(ex * ex + ey * ey + ez * ez)
    if not _cone_residual(bx * ex + by * ey + bz * ez, nb, ne, nb * mix) <= eps:
        return None
    if kind.restricts_u:
        nu = sqrt(ux * ux + uy * uy + uz * uz)
        if not _cone_residual(ux * ex + uy * ey + uz * ez, nu, ne, nu * mix) <= eps:
            return None
    return nx, ny, nz, nb2, ne, mix


def _separation_flags(B, u, E, p: HullParams, kind: ConeKind, eps: float, m: _Math):
    """The membership kernel on a point (B, u, E) of component triples, floats or
    numpy columns: g1, g3, g2, values, terms.

    g1, g3 and g2 are the flags, each true where that function separates the
    point; they combine with |, as bools and as masks.  values is
    (B . E, u . E, |B|^2, |u|^2, |E - B x u|^2), from which _witness takes the
    separating function's value (u . E is None off the stationary
    incompressible cone).  terms is (|B|, |u|, |E|, r^2 - |B|^2, s^2 - |u|^2,
    E - B x u), the gaps clipped at 0: the split takes over |B|, the gaps and
    the excess, and the campaign folds |u| and |E| into its u . E maximum,
    rather than forming them again.

    Every comparison is made on the normalised triple (b, v, e) =
    (B/r, u/s, E/(rs)), where the relaxed set is the same for all radii:
    |b . e| <= eps (1 + |b||e|) and likewise v . e; |b|, |v| <= 1 + eps;
    |e - b x v|^2 <= (1 - |b|^2)(1 - |v|^2) + eps.  The radii are folded into
    unrolled arithmetic: this kernel sits inside the million-point campaigns.
    """
    sqrt = m.sqrt
    r, s = p
    rr, ss = r * r, s * s
    bx, by, bz = B
    ux, uy, uz = u
    ex, ey, ez = E
    nb2 = bx * bx + by * by + bz * bz
    nu2 = ux * ux + uy * uy + uz * uz
    nb = sqrt(nb2)
    nu = sqrt(nu2)
    ne = sqrt(ex * ex + ey * ey + ez * ez)
    be = bx * ex + by * ey + bz * ez
    g1 = abs(be) > eps * (rr * s + nb * ne)
    if kind.restricts_u:
        ue = ux * ex + uy * ey + uz * ez
        g3 = abs(ue) > eps * (r * ss + nu * ne)
    else:
        ue, g3 = None, False
    # _excess's arithmetic, written out: the call would add about 6% to
    # in_hull, which is this kernel on one point.
    wx = ex - (by * uz - bz * uy)
    wy = ey - (bz * ux - bx * uz)
    wz = ez - (bx * uy - by * ux)
    w2 = wx * wx + wy * wy + wz * wz
    gb, gu = _amplitude_gaps(nb2, nu2, p, m)
    g2 = ((nb > r * (1.0 + eps)) | (nu > s * (1.0 + eps))
          | (w2 > gb * gu + eps * (rr * ss)))
    return g1, g3, g2, (be, ue, nb2, nu2, w2), (nb, nu, ne, gb, gu, (wx, wy, wz))


def in_hull(z: Triple, p: HullParams, kind: ConeKind = ConeKind.NONSTATIONARY,
            tol: Tolerances | None = None) -> bool:
    """Closed-form membership in the relaxed set: no function separates z.

    |B| <= r, |u| <= s, B . E = 0 (and u . E = 0 for the stationary
    incompressible kind) and |E - B x u|^2 <= (r^2 - |B|^2)(s^2 - |u|^2),
    each checked on the normalised triple (B/r, u/s, E/(rs)) with slack eps_mem.
    """
    g1, g3, g2, _, _ = _separation_flags(*z, p, kind, (tol or DEFAULT_TOLERANCES).eps_mem,
                                         _FLOATS)
    return not (g1 or g3 or g2)


class SeparationWitness(namedtuple("SeparationWitness", "function value")):
    """Which separating function certifies non-membership, if any.

    function is "g1", "g2" or "g3"; None means no separation (the point is
    in the relaxed set).  value is the attained function value.
    """

    __slots__ = ()

    @property
    def separates(self) -> bool:
        return self.function is not None

    def to_json_dict(self) -> dict:
        return {"function": self.function, "value": self.value}


# The witness of every member: records are immutable, so one serves all.
_NO_SEPARATION = SeparationWitness(None, 0.0)


def separation_witness(z: Triple, p: HullParams, kind: ConeKind = ConeKind.NONSTATIONARY,
                       tol: Tolerances | None = None) -> SeparationWitness:
    """Certify membership or return the separating function and its value.

    The relaxed set is exactly {g1 = 0} ∩ {g2 <= 0} (∩ {g3 = 0} for the
    stationary incompressible cone), so one of the three functions always
    witnesses a point outside it.  The verdict is in_hull's; the value is
    the function evaluated in the caller's units.
    """
    g1, g3, g2, values, _ = _separation_flags(*z, p, kind,
                                              (tol or DEFAULT_TOLERANCES).eps_mem, _FLOATS)
    return _witness(g1, g3, g2, values, p)


def _witness(g1, g3, g2, values, p: HullParams) -> SeparationWitness:
    """The witness of the membership kernel's float flags and values at radii p:
    the first separating function of g1, g3, g2 with its value, eval_g1's,
    eval_g3's or eval_g2's bit for bit."""
    if g1:
        return _tuple_new(SeparationWitness, ("g1", values[0]))
    if g3:
        return _tuple_new(SeparationWitness, ("g3", values[1]))
    if g2:
        return _tuple_new(SeparationWitness, ("g2", _g2_value(*values[2:], p)))
    return _NO_SEPARATION
