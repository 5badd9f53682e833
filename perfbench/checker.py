"""Independent checks of dynamohull outputs, written in numpy.

Nothing here calls the program: each check restates the mathematics of the
relaxed set, of two-state decompositions and of centred-difference
truncation error. Field triples are rows of 9 floats (B, u, E). Every
membership and decomposition check works in the normalised coordinates
(B/r, u/s, E/(rs)), where the relaxed set is the same at every radius pair,
so one dimensionless tolerance serves all scales.

Run ``python3 perfbench/checker.py`` for the self-test: it builds valid
outputs of its own, checks that they pass, and checks that deliberately
corrupted copies are rejected.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# Dimensionless slack on normalised coordinates; equals the program's
# default membership slack eps_mem at r = s = 1.
TOL = 1e-9
# Grid residuals must equal the analytic truncation error to this share.
RESIDUAL_REL_TOL = 1e-12


def normalise(Z, r: float, s: float):
    """Split (N, 9) rows into b = B/r, v = u/s, e = E/(rs)."""
    Z = np.asarray(Z, dtype=np.float64).reshape(-1, 9)
    return Z[:, 0:3] / r, Z[:, 3:6] / s, Z[:, 6:9] / (r * s)


def _dot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _norm(a):
    return np.sqrt(_dot(a, a))


def relaxed_set_violation(Z, r: float, s: float, restricts_u: bool) -> np.ndarray:
    """Per row, how far a triple lies outside the relaxed set; <= TOL is inside.

    The closed form is |b| <= 1, |v| <= 1, b.e = 0 (and v.e = 0 for the
    stationary incompressible cone), |e - b x v|^2 <= (1-|b|^2)(1-|v|^2).
    """
    b, v, e = normalise(Z, r, s)
    nb, nv, ne = _norm(b), _norm(v), _norm(e)
    worst = np.maximum(np.maximum(nb - 1.0, nv - 1.0), 0.0)
    worst = np.maximum(worst, np.abs(_dot(b, e)) / (1.0 + nb * ne))
    if restricts_u:
        worst = np.maximum(worst, np.abs(_dot(v, e)) / (1.0 + nv * ne))
    w = e - np.cross(b, v)
    cap = np.maximum(0.0, 1.0 - nb * nb) * np.maximum(0.0, 1.0 - nv * nv)
    return np.maximum(worst, _dot(w, w) - cap)


def constraint_set_violation(Z, r: float, s: float) -> np.ndarray:
    """Per row, distance from |b| = 1, |v| = 1, e = b x v."""
    b, v, e = normalise(Z, r, s)
    worst = np.maximum(np.abs(_norm(b) - 1.0), np.abs(_norm(v) - 1.0))
    return np.maximum(worst, _norm(e - np.cross(b, v)))


def cone_violation(D, r: float, s: float, restricts_u: bool) -> np.ndarray:
    """Per row of differences z1 - z2: B.E = 0 (and u.E = 0), scale-free."""
    db, dv, de = normalise(D, r, s)
    nb, nv, ne = _norm(db), _norm(dv), _norm(de)
    worst = np.abs(_dot(db, de)) / (1.0 + nb * ne)
    if restricts_u:
        worst = np.maximum(worst, np.abs(_dot(dv, de)) / (1.0 + nv * ne))
    return worst


def decomposition_violation(lam, Z1, Z2, Z, r: float, s: float,
                            restricts_u: bool) -> np.ndarray:
    """Per row, the worst failure of lam*z1 + (1-lam)*z2 as a witness for z.

    Checks: both endpoints on the constraint set, z1 - z2 in the cone for
    the kind, lam in [0, 1], reconstruction of z, and the product identity
    lam (1-lam) |b1-b2| |v1-v2| = sqrt((1-|b|^2)(1-|v|^2)).
    """
    lam = np.asarray(lam, dtype=np.float64).reshape(-1)
    Z1 = np.asarray(Z1, dtype=np.float64).reshape(-1, 9)
    Z2 = np.asarray(Z2, dtype=np.float64).reshape(-1, 9)
    worst = np.maximum(constraint_set_violation(Z1, r, s),
                       constraint_set_violation(Z2, r, s))
    worst = np.maximum(worst, cone_violation(Z1 - Z2, r, s, restricts_u))
    worst = np.maximum(worst, np.maximum(0.0, np.maximum(-lam, lam - 1.0)))

    n1, n2, nz = (np.hstack(normalise(X, r, s)) for X in (Z1, Z2, Z))
    mix = lam[:, None] * n1 + (1.0 - lam)[:, None] * n2
    worst = np.maximum(worst, _norm(mix - nz) / (1.0 + _norm(nz)))

    b, v, _ = normalise(Z, r, s)
    gap = np.sqrt(np.maximum(0.0, 1.0 - _dot(b, b)) * np.maximum(0.0, 1.0 - _dot(v, v)))
    prod = lam * (1.0 - lam) * _norm(n1[:, 0:3] - n2[:, 0:3]) * _norm(n1[:, 3:6] - n2[:, 3:6])
    return np.maximum(worst, np.abs(prod - gap) / (1.0 + gap))


def truncation_error(direction: dict, xi: dict, n: int, stationary: bool,
                     incompressible: bool) -> dict:
    """Max-norm centred-difference residuals of sin(x.xi_x + t xi_t) * direction.

    On a sine the centred difference along axis i is cos(phase) sin(xi_i h)/h,
    and the grid contains phase 0, so each residual is the modulus of the
    coefficient of cos(phase): div B -> |sum_i B_i sin(xi_i h)/h|, Faraday ->
    max_k |(d x E)_k + sin(xi_t h)/h B_k|, div u -> |sum_i u_i sin(xi_i h)/h|.
    """
    h = 2.0 * math.pi / n
    B, u, E = (np.asarray(direction[k], dtype=np.float64) for k in ("B", "u", "E"))
    d = np.sin(np.asarray(xi["xi_x"], dtype=np.float64) * h) / h
    curl = np.cross(d, E)
    if not stationary and xi["xi_t"] != 0.0:
        curl = curl + (math.sin(xi["xi_t"] * h) / h) * B
    out = {"div_B": abs(float(B @ d)), "faraday": float(np.abs(curl).max())}
    if incompressible:
        out["div_u"] = abs(float(u @ d))
    return out


def residual_mismatch(reported: dict, expected: dict) -> float:
    """Largest relative gap between reported and analytic residuals; a
    missing or extra key counts as a total mismatch."""
    if set(reported) != set(expected):
        return math.inf
    return max(abs(reported[k] - expected[k]) / expected[k] for k in expected)


def staircase_ratio_applies(lam: float, n_osc: int, periods: int, samples: int) -> bool:
    """Whether the 1/n_osc error law is resolvable on the phase samples.

    The leading averaging error is min(lam, 1-lam) / (2 periods n_osc + 1)
    (times |z1 - z2|); sampling the phase at `samples` points adds noise of
    about sqrt(band edges)/samples. The halving law is only checked where
    the leading error exceeds that noise tenfold at the finest n_osc.
    """
    lead = min(lam, 1.0 - lam) / (2 * periods * n_osc + 1)
    noise = math.sqrt(2 * periods * n_osc + 2) / samples
    return lead >= 10.0 * noise


# ------------------------------------------------------------------ self-test

def _exact_ohm_witness(rng, r: float, s: float):
    """A valid decomposition built here: B +- db e, u +- du e with e
    perpendicular to B and u, weight 1/2; the target is their midpoint."""
    b = rng.normal(size=3)
    b *= 0.6 / np.linalg.norm(b)
    v = rng.normal(size=3)
    v *= 0.3 / np.linalg.norm(v)
    e = np.cross(b, v)
    e /= np.linalg.norm(e)
    db, dv = math.sqrt(1 - b @ b), math.sqrt(1 - v @ v)
    b1, v1, b2, v2 = b + db * e, v + dv * e, b - db * e, v - dv * e
    z1 = np.concatenate([b1 * r, v1 * s, np.cross(b1, v1) * r * s])
    z2 = np.concatenate([b2 * r, v2 * s, np.cross(b2, v2) * r * s])
    return 0.5, z1, z2, 0.5 * (z1 + z2)


def self_test() -> list[str]:
    """Return the list of corruptions the checker failed to reject (empty
    when the checker works), raising if it rejects a valid output."""
    rng = np.random.default_rng(12345)
    missed = []
    for r, s in ((1.0, 1.0), (1e-6, 1e3), (1e6, 1e-2)):
        lam, z1, z2, z = _exact_ohm_witness(rng, r, s)
        if decomposition_violation(lam, z1, z2, z, r, s, True)[0] > TOL:
            raise AssertionError(f"checker rejects a valid decomposition at r={r}, s={s}")
        if relaxed_set_violation(z, r, s, True)[0] > TOL:
            raise AssertionError(f"checker rejects a valid relaxed point at r={r}, s={s}")
        flipped = z1.copy()
        flipped[6:9] *= -1.0
        outside = z.copy()
        # Excess of 1.01x the sharp bound, perpendicular to B and u.
        bn, vn, _ = normalise(z, r, s)
        bound = math.sqrt((1 - bn[0] @ bn[0]) * (1 - vn[0] @ vn[0]))
        ex = np.cross(bn[0], vn[0])
        outside[6:9] += 1.01 * bound * ex / np.linalg.norm(ex) * r * s
        cases = {
            "flipped endpoint E": decomposition_violation(lam, flipped, z2, z, r, s, True),
            "weight off by 1e-3": decomposition_violation(lam + 1e-3, z1, z2, z, r, s, True),
            "endpoint B scaled by 1.001": decomposition_violation(
                lam, np.concatenate([z1[0:3] * 1.001, z1[3:9]]), z2, z, r, s, True),
            "excess 1.01x the bound": relaxed_set_violation(outside, r, s, False),
            "u.E != 0 on the restricted cone": relaxed_set_violation(
                np.concatenate([z[0:6], z[6:9] + 1e-3 * r * s * vn[0]]), r, s, True),
        }
        for name, viol in cases.items():
            if not viol[0] > TOL:
                missed.append(f"{name} at r={r}, s={s}")

    direction = {"B": [6.0, -3.0, -1.0], "u": [1.0, 2.0, -1.0], "E": [1.0, 2.0, 0.0]}
    xi = {"xi_x": [1.0, 1.0, 3.0], "xi_t": 1.0}
    exact = truncation_error(direction, xi, 16, stationary=False, incompressible=False)
    if abs(exact["div_B"] - 0.5708461644837) > 1e-12 or abs(exact["faraday"] - 1.1416923289674) > 1e-12:
        raise AssertionError(f"analytic truncation error drifted: {exact}")
    if residual_mismatch(exact, exact) != 0.0:
        raise AssertionError("residual comparison rejects identical values")
    off = dict(exact, faraday=exact["faraday"] * 1.01)
    if not residual_mismatch(off, exact) > RESIDUAL_REL_TOL:
        missed.append("faraday residual off by 1%")
    if not residual_mismatch({"div_B": exact["div_B"]}, exact) > RESIDUAL_REL_TOL:
        missed.append("missing residual key")
    return missed


if __name__ == "__main__":
    missed = self_test()
    for name in missed:
        print(f"not rejected: {name}")
    print("checker self-test:", "FAIL" if missed else "PASS")
    sys.exit(1 if missed else 0)
