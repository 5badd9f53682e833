"""Members on and near the amplitude faces, at exact Ohm and with the excess
along B: one split for every point of the set.

decompose raises NotInHullError, with a witness, exactly where in_hull is
False, and splits every other point; verify_decomposition judges the split.
Membership of the near-face points is decided in exact rationals.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from dynamohull import (
    ConeKind,
    HullParams,
    NotInHullError,
    Triple,
    Vec3,
    decompose,
    in_hull,
    verify_decomposition,
)
from _helpers import special_points
from test_scales import RANGE_CORNERS, corner_params

KINDS = (ConeKind.NONSTATIONARY, ConeKind.STATIONARY_INCOMPRESSIBLE)
RADII = ((1.0, 1.0), (1e-3, 1e3), *((p.r, p.s) for p in (
    corner_params(log_r, log_s, 1.0 - 1e-6) for log_r, log_s in RANGE_CORNERS)))
FACES = ("B", "u", "corner")


def outcome(z, p, kind):
    """decompose's split of z and its failing checks, or None where it raises;
    it raises NotInHullError with a witness exactly where in_hull is False."""
    try:
        d = decompose(z, p, kind)
    except NotInHullError as exc:
        assert exc.witness is not None and exc.witness.separates
        assert not in_hull(z, p, kind)
        return None
    assert in_hull(z, p, kind)
    assert 0.0 <= d.lam <= 0.5
    return d, verify_decomposition(d, z, p, kind).failures


def exact_member(z, p) -> bool:
    """|B| <= r, |u| <= s and |E - B x u|^2 <= (r^2 - |B|^2)(s^2 - |u|^2) in exact
    rationals of the doubles of z and p: the amplitude and excess conditions of
    the set, which rounding alone decides near a face."""
    (bx, by, bz), (ux, uy, uz), E = ([Fraction(x) for x in v] for v in z)
    r, s = Fraction(p.r), Fraction(p.s)
    rr, ss = r * r - (bx * bx + by * by + bz * bz), s * s - (ux * ux + uy * uy + uz * uz)
    x = (E[0] - (by * uz - bz * uy), E[1] - (bz * ux - bx * uz), E[2] - (bx * uy - by * ux))
    return rr >= 0 and ss >= 0 and x[0] * x[0] + x[1] * x[1] + x[2] * x[2] <= rr * ss


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def near_face_point(rng, kind, face, g, p) -> Triple:
    """|b| = 1 - g on the face (both at the corner), the other amplitude uniform
    in the ball of radius 0.999, and an excess across the cone's normal space
    of a uniform fraction of its sharp bound (the whole bound one time in ten),
    in normalised coordinates, scaled to the radii of p."""
    inside = (1.0 - g, 0.999 * rng.random() ** (1.0 / 3.0))
    b = _unit(rng) * inside[face == "u"]
    v = _unit(rng) * inside[face == "B"]
    if kind.restricts_u:
        d = np.cross(b, v) * (1.0 if rng.random() < 0.5 else -1.0)
    else:
        d = _unit(rng)
        d -= b * (d @ b) / (b @ b)
    delta = 1.0 if rng.random() < 0.1 else rng.random()
    bound = math.sqrt(max(0.0, 1.0 - b @ b) * max(0.0, 1.0 - v @ v))
    e = np.cross(b, v) + d * (delta * bound / np.linalg.norm(d))
    return Triple(Vec3(*(b * p.r)), Vec3(*(v * p.s)), Vec3(*(e * (p.r * p.s))))


# Points per (kind, radii, face, k) cell of the near-face grid.
PER_CELL = 5


@pytest.fixture(scope="module")
def near_face_outcomes():
    """{(kind, face, k): [(member, outcome)]} over the near-face grid, g = 10^-k."""
    grid = {}
    for kind in KINDS:
        for ri, (r, s) in enumerate(RADII):
            p = HullParams(r, s)
            for fi, face in enumerate(FACES):
                for k in range(1, 17):
                    rng = np.random.default_rng([kind.restricts_u, ri, fi, k])
                    cell = grid.setdefault((kind, face, k), [])
                    for _ in range(PER_CELL):
                        z = near_face_point(rng, kind, face, 10.0 ** -k, p)
                        cell.append((exact_member(z, p), outcome(z, p, kind)))
    return grid


def test_members_near_the_faces_decompose_and_verify(near_face_outcomes):
    # Every member at g >= 1e-15 decomposes and verifies, on either face and
    # at the corner; decompose raises only where in_hull is False (outcome
    # checks that).  The points in_hull admits only through its eps_mem
    # slack verify too.
    checked = 0
    for (kind, face, k), cell in near_face_outcomes.items():
        if k == 16:
            continue
        for member, result in cell:
            assert result is not None or not member, (kind, face, k)
            if result is not None:
                assert result[1] == (), (kind, face, k, member, result[1])
                checked += member
    assert checked >= 0.9 * len(KINDS) * len(RADII) * len(FACES) * 15 * PER_CELL


def test_members_one_ulp_inside_a_face_are_split(near_face_outcomes):
    # At g = 1e-16, 1 - g is the last double below 1, and r^2 - |B|^2 keeps
    # only its leading bits.  No member raises; the splits that fail, fail
    # reconstruction alone, by the part of the excess the rounded gaps cannot
    # carry.  The count is pinned, so that a change to it shows.
    failed = {}
    members = 0
    for (kind, face, k), cell in near_face_outcomes.items():
        if k != 16:
            continue
        for member, result in cell:
            if member:
                members += 1
                assert result is not None, (kind, face)
                if result[1]:
                    failed[result[1]] = failed.get(result[1], 0) + 1
    assert (members, failed) == (258, {("reconstruction",): 8})


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("face", FACES)
def test_exact_ohm_points_on_the_faces_verify(kind, face):
    # E = B x u with |B| = r, |u| = s or both, and inside, with and without
    # a relative noise of 1e-15 in E: every point verifies.
    rng = np.random.default_rng([kind.restricts_u, FACES.index(face)])
    for r, s in RADII:
        p = HullParams(r, s)
        for _ in range(8):
            b = _unit(rng) * (1.0 if face != "u" else rng.uniform(0.0, 1.0))
            v = _unit(rng) * (1.0 if face != "B" else rng.uniform(0.0, 1.0))
            B, u = Vec3(*(b * r)), Vec3(*(v * s))
            for noise in (0.0, 1e-15):
                E = B.cross(u) + Vec3(*_unit(rng)) * (noise * r * s)
                if kind.restricts_u:
                    E = E - u * (E.dot(u) / u.norm2())
                d, failures = outcome(Triple(B, u, E), p, kind)
                assert failures == (), (r, s, noise, failures)


@pytest.mark.parametrize("kind", KINDS)
def test_an_excess_along_B_is_split_without_a_nan(kind):
    # With the excess along B the plane normal e1 x (E - B x u) vanishes: on
    # the axes exactly, and the split takes the direction perpendicular to B
    # and u; elsewhere to rounding, and it takes the rounding's direction,
    # with the rounding's part along B taken off.  Every weight, endpoint and
    # residual is a number.  The small points, which in_hull admits through
    # the floor of its g1 test, fail reconstruction alone: their excess has
    # no part across B, and in every direction of B the endpoints keep their
    # amplitudes.
    rng = np.random.default_rng(81 + kind.restricts_u)
    split = 0
    for r, s in RADII[:4]:
        p = HullParams(r, s)
        for size in (1e-5, 0.3):
            for i, axis in enumerate((*np.eye(3), *(_unit(rng) for _ in range(6)))):
                B = Vec3(*(axis * (size * r)))
                u = Vec3(*(np.cross(axis, _unit(rng)) * (0.5 * s)))
                z = Triple(B, u, B.cross(u) + Vec3(*(axis * (1e-5 * r * s))))
                result = outcome(z, p, kind)
                if result is None:
                    assert size == 0.3
                    continue
                d, failures = result
                assert all(math.isfinite(x) for zi in (d.z1, d.z2) for v in zi for x in v)
                rep = verify_decomposition(d, z, p, kind)
                assert not any(math.isnan(x) for x in rep.residuals.values())
                assert failures == ("reconstruction",)
                split += 1
    assert split == 4 * 9


@pytest.mark.parametrize("kind", tuple(ConeKind))
def test_decompose_raises_only_outside_the_set(kind):
    # Over the special points at several radii, the only point decompose
    # raises on is the one in_hull rejects, and it carries its witness.
    for r, s in ((1.0, 1.0), (2.0, 0.5), (1e-3, 1e3), (1e6, 1e-6)):
        p = HullParams(r, s)
        raised = [name for name, z in special_points(p).items() if outcome(z, p, kind) is None]
        assert raised == ["outside"]
