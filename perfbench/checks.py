"""Answer checks for the benchmark.

Every check takes the answer a timed query returned, plus the expected
values the generator knows in closed form, and returns None when the answer
is right or a one-line reason when it is wrong.  Checks never call the timed
function again; where an identity needs another quantity (an envelope at a
witness, say) they compute it with a different call, after the timed region.
"""

from __future__ import annotations

import json
from fractions import Fraction

from perfbench.cones import dot

KLT, LC_NOT_KLT, NOT_LC = "klt", "lc_not_klt", "not_lc"


def intersection_matrix(vertices, edges):
    k = len(vertices)
    m = [[0] * k for _ in range(k)]
    for i, (self_int, _) in enumerate(vertices):
        m[i][i] = self_int
    for i, j, mult in edges:
        m[i][j] += mult
        m[j][i] += mult
    return m


def _quadratic(m, x, y):
    return sum(x[i] * sum(m[i][j] * y[j] for j in range(len(y))) for i in range(len(x)))


def kind_from_signs(coeffs) -> str:
    if all(a > 0 for a in coeffs):
        return KLT
    if all(a >= 0 for a in coeffs):
        return LC_NOT_KLT
    return NOT_LC


def check_surface(vertices, edges, volume, kind, log_discrepancies,
                  expected_volume=None, expected_kind=None):
    """Identities every resolution graph satisfies, plus closed forms.

    Adjunction: the log discrepancies A satisfy (A - 1) . E_j = 2g_j - 2 - s_j.
    The class follows the signs of A.  The volume -P^2 of the nef part P of A
    lies in [0, -A^2], because A^2 = P^2 + N^2 with N^2 <= 0, and it is zero
    exactly when the singularity is numerically log canonical.
    """
    m = intersection_matrix(vertices, edges)
    a = [Fraction(x) for x in log_discrepancies]
    if len(a) != len(vertices):
        return f"{len(a)} log discrepancies for {len(vertices)} vertices"
    for j, (self_int, genus) in enumerate(vertices):
        lhs = sum(m[j][i] * (a[i] - 1) for i in range(len(a)))
        if lhs != 2 * genus - 2 - self_int:
            return f"adjunction fails at vertex {j}: {lhs} != {2 * genus - 2 - self_int}"
    if kind != kind_from_signs(a):
        return f"class {kind} contradicts log discrepancies {a}"
    volume = Fraction(volume)
    if not 0 <= volume <= -_quadratic(m, a, a):
        return f"volume {volume} outside [0, -A^2 = {-_quadratic(m, a, a)}]"
    if (volume == 0) != (kind != NOT_LC):
        return f"volume {volume} contradicts class {kind}"
    if expected_volume is not None and volume != expected_volume:
        return f"volume {volume} != expected {expected_volume}"
    if expected_kind is not None and kind != expected_kind:
        return f"class {kind} != expected {expected_kind}"
    return None


def check_zariski(vertices, edges, nef, neg, local_volume, expected_volume):
    """A Zariski decomposition certifies itself: P is nef, N is effective,
    P . E_j = 0 on the support of N, and the local volume is -P^2."""
    m = intersection_matrix(vertices, edges)
    nef = [Fraction(x) for x in nef]
    neg = [Fraction(x) for x in neg]
    products = [sum(m[j][i] * nef[i] for i in range(len(nef))) for j in range(len(nef))]
    if any(p < 0 for p in products):
        return f"nef part {nef} has a negative intersection"
    if any(c < 0 for c in neg):
        return f"negative part {neg} is not effective"
    if any(c != 0 and p != 0 for c, p in zip(neg, products)):
        return "nef part is not orthogonal to the support of the negative part"
    if Fraction(local_volume) != -_quadratic(m, nef, nef):
        return f"local volume {local_volume} != -P^2"
    if Fraction(local_volume) != expected_volume:
        return f"local volume {local_volume} != expected {expected_volume}"
    return None


def check_equal(name, value, expected):
    if Fraction(value) != Fraction(expected):
        return f"{name} {value} != expected {expected}"
    return None


def check_power_law(e_a, e_a2, dim, e_m):
    """e(a^2) = 2^n e(a), and e(a) >= e(m) because a lies in m."""
    if Fraction(e_a).denominator != 1:
        return f"multiplicity {e_a} is not an integer"
    if e_a < e_m:
        return f"e(a) = {e_a} is below e(m) = {e_m}"
    if e_a2 != 2 ** dim * e_a:
        return f"e(a^2) = {e_a2} != 2^{dim} e(a) = {2 ** dim * e_a}"
    return None


def check_mixed_diagonal(mixed, e_a, e_m):
    """e(a, ..., a) = e(a), and e(a) >= e(m)."""
    if e_a < e_m:
        return f"e(a) = {e_a} is below e(m) = {e_m}"
    if mixed != e_a:
        return f"e(a, ..., a) = {mixed} != e(a) = {e_a}"
    return None


def check_defect(gens, is_unit, is_m_primary, expect_unit, order_at_v, order_bound):
    """The defect ideal of mD is the unit ideal exactly when mD is Cartier;
    otherwise it is m-primary, and along v its order is at least
    -m (env_D(v) + env_{-D}(v)), since sections of +-mD pair with v above
    -m env_{+-D}(v)."""
    if expect_unit:
        return None if is_unit else f"defect ideal of a Cartier divisor is {gens}, not the unit ideal"
    if is_unit:
        return "defect ideal of a non-Cartier divisor is the unit ideal"
    if not is_m_primary:
        return f"defect ideal {gens} is not m-primary"
    if order_at_v < order_bound:
        return f"order {order_at_v} of the defect ideal is below the envelope bound {order_bound}"
    return None


def check_set(name, value, expected):
    if set(map(tuple, value)) != set(map(tuple, expected)):
        return f"{name} {sorted(map(tuple, value))} != expected {sorted(map(tuple, expected))}"
    return None


def check_envelope(value, point, rays, coeffs, v, upper, exact=None):
    """The optimal form m is feasible (<m, ray_i> <= d_i) and attains the
    value; a decomposition v = sum lam_i ray_i bounds it above by
    sum lam_i d_i, with equality for a Cartier divisor or a simplicial cone."""
    value = Fraction(value)
    point = [Fraction(x) for x in point]
    for ray, d in zip(rays, coeffs):
        if dot(point, ray) > Fraction(d):
            return f"optimal form {point} violates <m, {ray}> <= {d}"
    if dot(point, v) != value:
        return f"value {value} != <m, v> = {dot(point, v)}"
    if value > upper:
        return f"value {value} exceeds the dual bound {upper}"
    if exact is not None and value != exact:
        return f"value {value} != expected {exact}"
    return None


def check_numcartier(flag, certificate, witness, gap, rays, coeffs, normals,
                     expected_flag, recomputed_gap):
    """A certificate satisfies <m, ray_i> = d_i; a witness is interior, with
    a negative gap equal to env_D(w) + env_{-D}(w)."""
    if flag != expected_flag:
        return f"numerically Cartier = {flag}, expected {expected_flag}"
    if flag:
        for ray, d in zip(rays, coeffs):
            if dot([Fraction(x) for x in certificate], ray) != Fraction(d):
                return f"certificate {certificate} misses <m, {ray}> = {d}"
        return None
    if not all(dot(f, witness) > 0 for f in normals):
        return f"witness {witness} is not interior"
    if not Fraction(gap) < 0:
        return f"gap {gap} at the witness is not negative"
    if Fraction(gap) != recomputed_gap:
        return f"gap {gap} != env_D + env_-D = {recomputed_gap} at the witness"
    return None


def izumi_closed_form(normals, v, w) -> Fraction:
    return max(Fraction(dot(f, w), dot(f, v)) for f in normals)


def check_cli(code, out, err, expected_code, payload_check=None):
    """Exit code as expected, never a traceback, and a correct payload."""
    if "Traceback" in err:
        return f"traceback on stderr: {err.strip().splitlines()[-1]}"
    if code != expected_code:
        return f"exit code {code} != expected {expected_code}: {err.strip()}"
    if payload_check is None:
        return f"unexpected stdout: {out[:80]!r}" if out.strip() else None
    try:
        payload = json.loads(out)
    except ValueError:
        return f"stdout is not JSON: {out[:80]!r}"
    return payload_check(payload)
