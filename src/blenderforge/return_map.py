"""First-return coefficient formulas, the cross-form model map, and its
cone-field verdicts in closed form.

The one-dimensional central part of a return map is affine, X -> A_km*X +
B_km, with coefficients assembled from the cycle multipliers and reduced
transition coefficients.  Powers lambda^k * gamma^m are always evaluated
through logarithms so that searches may roam k, m up to ~1e5 without
overflow; only the O(1) exponent difference survives near admissible pairs.

The full model is a cross form: the image (Xb, Yb, Zb) of (X, Y, Z) solves

    Xb = A_km*X + B_km + phi1(X, Yb, Z)
    Y  = y_rate*Yb + phi3(X, Yb, Z)
    Zb = z_rate*Z  + phi4(X, Yb, Z)

The remainders phi vanish asymptotically in the paper model; here they are
any C^1 functions whose partial derivatives are bounded by phi_bound.  The
center rates y_rate, z_rate stand for the asymptotically vanishing cross
terms; they are small values tied to |A_km| so the model map is
invertible at phi = 0 and the cone verdicts are meaningful.  `verify_cones` decides the
cone families for every such remainder at once, from bounds on the blocks of
the Jacobian, and reports the largest phi_bound at which they still hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .cycle_model import CycleSpec, CycleType
from .errors import DomainError, NoImageInCube, PoleError

RATE_SCALE = 0.05  # center-rate scale relative to min(1, |A_km|)
#: |cos + b*sin| below which the double-focus wave coefficients have a pole
POLE_TOL = 1e-14
#: bisection steps of the largest remainder bound at which the verdicts hold
RADIUS_STEPS = 60


# ---------------------------------------------------------------------------
# Coefficient formulas
# ---------------------------------------------------------------------------

def sign_period(spec: CycleSpec) -> int:
    """Period in m of the sign of gamma^m: 2 when gamma < 0, else 1.  Searches
    step m by it so that gamma^m keeps one sign."""
    return 2 if spec.gamma < 0 else 1


def power_sign(spec: CycleSpec, m: int) -> float:
    """Sign of gamma^m: -1 exactly for gamma < 0 and odd m."""
    return -1.0 if m % sign_period(spec) == 1 else 1.0


def power_term(spec: CycleSpec, k: int, m: int) -> float:
    """lambda^k * gamma^m through logs; sign handled for negative gamma."""
    if k < 1 or m < 1:
        raise DomainError("k and m must be >= 1")
    log_mag = k * math.log(spec.lam) + m * math.log(abs(spec.gamma))
    if log_mag > 700.0:
        raise DomainError("lambda^k * gamma^m overflows")
    return power_sign(spec, m) * math.exp(log_mag)


def df_denominator(spec: CycleSpec, angle: float) -> float:
    """cos(angle + eta3) + b*sin(angle + eta3)."""
    assert spec.eta3 is not None
    return math.cos(angle + spec.eta3) + spec.b_coef * math.sin(angle + spec.eta3)


def df_wave_coeffs(spec: CycleSpec, angle: float) -> tuple[float, float, float]:
    """(A(angle), B(angle), xi(angle)) of the double-focus reduced form."""
    if spec.cycle_type is not CycleType.DOUBLE_FOCUS:
        raise DomainError("wave coefficients are double_focus quantities")
    den = df_denominator(spec, angle)
    if abs(den) < POLE_TOL:
        raise PoleError(f"cos + b*sin vanishes at angle={angle!r}")
    u1, u2 = spec.u_pair
    assert spec.eta3 is not None
    num_xi = math.cos(angle + spec.eta3) * u1 + math.sin(angle + spec.eta3) * u2
    return spec.A_coef / den, spec.B_coef / den, num_xi / den


def quant_margin(spec: CycleSpec, m_angle: float) -> float:
    """min of the three cosine margins that keep the m-rotation admissible."""
    assert spec.eta3 is not None
    return min(
        abs(math.cos(m_angle)),
        abs(math.cos(m_angle + spec.eta3)),
        abs(df_denominator(spec, m_angle)),
    )


def cross_entry_bound(delta: float) -> float:
    """C(delta): |B_km| must stay below this for the return to land in the cube."""
    return delta / 2.0


def quant_bound(delta: float) -> float:
    """c(delta): lower bound for the double-focus denominator margins."""
    return math.sqrt(delta)


@dataclass(frozen=True)
class ReturnCoeffs:
    """Central affine coefficients of one return map, plus admissibility."""

    k: int
    m: int
    A_km: float
    B_km: float
    admissible: bool


def coeffs(spec: CycleSpec, k: int, m: int) -> ReturnCoeffs:
    """Evaluate (A_km, B_km) exactly and set the admissibility flag."""
    if k < 1 or m < 1:
        raise DomainError("k and m must be >= 1")
    power = power_term(spec, k, m)
    if spec.is_saddle_focus:
        a = power * spec.A_coef * math.sin(k * spec.omega1 + spec.eta1)
        b = power * spec.B_coef * math.sin(k * spec.omega1 + spec.eta2) \
            - spec.b_coef * spec.u_scalar
        admissible = abs(b) < cross_entry_bound(spec.delta)
        return ReturnCoeffs(k, m, a, b, admissible)

    assert spec.omega2 is not None
    m_angle = m * spec.omega2
    margin = quant_margin(spec, m_angle)
    if margin <= quant_bound(spec.delta):
        # denominators too close to a pole for this m-rotation
        try:
            wa, wb, xi = df_wave_coeffs(spec, m_angle)
        except PoleError:
            return ReturnCoeffs(k, m, math.nan, math.nan, False)
        a = power * wa * math.sin(k * spec.omega1 + spec.eta1)
        b = power * wb * math.sin(k * spec.omega1 + spec.eta2) - xi
        return ReturnCoeffs(k, m, a, b, False)
    wa, wb, xi = df_wave_coeffs(spec, m_angle)
    a = power * wa * math.sin(k * spec.omega1 + spec.eta1)
    b = power * wb * math.sin(k * spec.omega1 + spec.eta2) - xi
    return ReturnCoeffs(k, m, a, b, True)


# ---------------------------------------------------------------------------
# Cross-form model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossMapModel:
    """The cross-form map of one (k, m) return: its central coefficients, the
    Y and Z block sizes, the cube half-width and the bound on every partial
    derivative of the remainders."""

    coeffs: ReturnCoeffs
    y_dim: int
    z_dim: int
    delta: float
    phi_bound: float = 0.0

    def __post_init__(self) -> None:
        a_mag = abs(self.coeffs.A_km)
        if a_mag == 0.0 or not math.isfinite(a_mag):
            raise DomainError("model requires a nonzero finite A_km")
        if self.y_dim < 1 or self.z_dim < 1:
            raise DomainError("model requires an expanding and a contracting block")
        if self.phi_bound > self.phi_guard:
            raise DomainError("phi_bound too large for the center rates")

    @property
    def y_rate(self) -> float:
        """Center rate of the Y block, RATE_SCALE*min(1, 1/|A_km|)."""
        return RATE_SCALE * min(1.0, 1.0 / abs(self.coeffs.A_km))

    @property
    def z_rate(self) -> float:
        """Center rate of the Z block, RATE_SCALE*min(1, |A_km|)."""
        return RATE_SCALE * min(1.0, abs(self.coeffs.A_km))

    @property
    def phi_guard(self) -> float:
        """Largest admissible phi_bound, 0.25*min(y_rate/y_dim, |A_km|).

        It bounds only the X and Y terms: |dphi3/dYb| <= y_rate/4 keeps
        y_rate*I + dphi3/dYb invertible, and |dphi1/dX| <= |A_km|/4.  It
        does not bound the Z block, so the model map may be singular below
        the guard; `verify_cones`' phi_radius is the statement of the bounds
        at which the verdicts hold, and it bisects up to the guard."""
        return 0.25 * min(self.y_rate / self.y_dim, abs(self.coeffs.A_km))


def build_model(spec: CycleSpec, k: int, m: int, phi_bound: float = 0.0) -> CrossMapModel:
    """Assemble the model map of the (k, m) return."""
    return CrossMapModel(
        coeffs=coeffs(spec, k, m),
        y_dim=spec.y_dim,
        z_dim=spec.z_dim,
        delta=spec.delta,
        phi_bound=phi_bound,
    )


# ---------------------------------------------------------------------------
# Cone verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeReport:
    """Cone verdicts that hold for every remainder within phi_bound."""

    K: float
    forward_cu_ok: bool
    forward_uu_ok: bool
    backward_cs_ok: bool
    backward_ss_ok: bool
    min_expansion_uu: float
    max_contraction_ss: float
    center_expansion_claimed: bool
    center_expansion_ok: bool | None
    center_contraction_claimed: bool
    center_contraction_ok: bool | None
    min_margin: float
    phi_radius: float


def _aperture(*ratios: tuple[float, float]) -> float:
    """Largest num/den; a nonpositive denominator bounds nothing (inf)."""
    return max(num / den if den > 0.0 else math.inf for num, den in ratios)


def _cone_fields(model: CrossMapModel, K: float, p: float) -> tuple[list[float], dict[str, Any]]:
    """The cu, uu, cs and ss margins, and the report fields, that hold for
    every remainder with partials bounded by p; `verify_cones` derives them."""
    a = abs(model.coeffs.A_km)
    r, s = model.y_rate, model.z_rate
    n, q = model.y_dim, model.z_dim
    inv_hi = 1.0 / (r - n * p)
    inv_lo = 1.0 / (r + n * p)
    t = p * inv_hi
    xx, xz, zz = r * t, math.sqrt(q) * r * t, q * r * t
    xy, yz = math.sqrt(n) * t, math.sqrt(n * q) * t
    sz = s + zz

    kappa_cu = _aperture((xz + K * sz, a - xx - xy - K * (xz + yz)),
                         (yz + K * sz, inv_lo - xy - K * (xz + yz)))
    kappa_uu = _aperture((max((a + xx + xz) * K + xy, (xz + sz) * K + yz),
                          inv_lo - (xy + yz) * K))
    kappa_cs = _aperture((max(K * (a + xx + xz) + xy, K * (sz + xz) + yz),
                          inv_lo - K * (xy + yz)))
    kappa_ss = _aperture((xz + K * sz, a - xx - K * xz - xy - K * yz),
                         (yz + K * sz, inv_lo - K * yz - xy - K * xz))
    # J is invertible when the comparison matrix of its blocks is a
    # nonsingular M-matrix: positive leading principal minors
    d1, d3 = a - xx, s - zz
    det = d1 * inv_lo * d3 - d1 * yz * yz - inv_lo * xz * xz - d3 * xy * xy - 2.0 * xy * xz * yz
    if not (d1 > 0.0 and d1 * inv_lo > xy * xy and det > 0.0):
        kappa_cs = kappa_ss = math.inf
    margins = [K - kappa for kappa in (kappa_cu, kappa_uu, kappa_cs, kappa_ss)]
    # K = 0 degenerates the cones to the axis subspaces, which the diagonal
    # part preserves only weakly
    cu_ok, uu_ok, cs_ok, ss_ok = (mg > 0.0 if K > 0.0 else mg >= 0.0 for mg in margins)
    return margins, {
        "forward_cu_ok": cu_ok,
        "forward_uu_ok": uu_ok,
        "backward_cs_ok": cs_ok,
        "backward_ss_ok": ss_ok,
        "min_expansion_uu": (inv_lo - (xy + yz) * K) / math.sqrt(1.0 + 2.0 * K * K),
        "max_contraction_ss": math.hypot(xz, yz, sz),
        "center_expansion_claimed": a > 1.0,
        "center_expansion_ok": min(a - xx, inv_lo) - xy > 1.0 if a > 1.0 else None,
        "center_contraction_claimed": a < 1.0,
        "center_contraction_ok": (math.hypot(max(a + xx, sz) + xz, xy, yz) < 1.0
                                  if a < 1.0 else None),
        "min_margin": min(margins),
    }


def _holds(model: CrossMapModel, K: float, p: float) -> bool:
    fields = _cone_fields(model, K, p)[1]
    return all(fields[key] is not False for key in (
        "forward_cu_ok", "forward_uu_ok", "backward_cs_ok", "backward_ss_ok",
        "center_expansion_ok", "center_contraction_ok"))


def verify_cones(model: CrossMapModel, K: float) -> ConeReport:
    """Decide the four cone families and the center verdicts in closed form.

    Cones, with |.| the absolute value on X and the Euclidean norm on the Y
    and Z blocks: cu = {|z| <= K(|x| + |y|)}, uu = {max(|x|, |z|) <= K|y|},
    cs = {|y| <= K(|x| + |z|)} and ss = {max(|x|, |y|) <= K|z|}.  Forward,
    the Jacobian J must map cu and uu strictly into themselves; backward,
    J^-1 must do so for cs and ss.  A cone's margin is K minus the aperture
    of its image (for cu, sup |wz| / (|wx| + |wy|) over the image vectors w),
    so it is positive exactly when the image lies strictly inside.  With
    K = 0 the cones are the axis subspaces and a margin of 0 passes.

    Bounds.  Implicit differentiation of the cross relations gives, with
    M = y_rate*I + G3, G3 = dphi3/dYb and g1, g3, g4 the other gradient
    blocks of phi1, phi3, phi4,

        J_YY = M^-1,  J_YX = -M^-1 g3x,  J_YZ = -M^-1 G3z,
        J_XX = A + g1x - g1y M^-1 g3x,  J_XY = g1y M^-1,
        J_XZ = g1z - g1y M^-1 G3z,  J_ZY = G4y M^-1,
        J_ZX = g4x - G4y M^-1 g3x,  J_ZZ = z_rate*I + G4z - G4y M^-1 G3z,

    so J = D + E with D = diag(A, I/y_rate, z_rate*I) when phi = 0.  Every
    partial of phi is at most p = phi_bound, so an a-by-b gradient block has
    spectral norm at most sqrt(ab) p; with n = y_dim, q = z_dim, |G3| <= np,
    which the model's guard keeps below y_rate/4.  Hence |M^-1| <= 1/(r - np)
    and |M^-1 y| >= |y|/(r + np), with r = y_rate, s = z_rate.  Writing
    t = p/(r - np), the blocks obey |J_XX - A| <= rt, |J_XY|, |J_YX| <= sqrt(n) t,
    |J_XZ|, |J_ZX| <= sqrt(q) rt, |J_YZ|, |J_ZY| <= sqrt(nq) t and
    |J_ZZ| <= s + q rt.

    Apertures.  Bound each image coordinate by the triangle inequality.
    Forward (w = Jv): for cu, put |z| at its largest, K(|x| + |y|); the
    aperture is a ratio of two forms linear in (|x|, |y|), so it is at most
    the larger coefficient ratio.  For uu, with |x|, |z| <= K|y|, the
    aperture is at most max(|wx|, |wz|) over the lower bound of |wy|, per
    unit |y|.  Backward (v = Jw with v in the cone): for cs, the constraint
    |vy| <= K(|vx| + |vz|) bounds |wy| by a multiple of |wx| + |wz|; for ss,
    |vx|, |vy| <= K|vz| gives two linear inequalities in (|wx|, |wy|) per
    unit |wz|, and with rho = max(|wx|, |wy|) each yields rho <= c/(d - e)
    for the coefficients of its own and the other coordinate.  A
    nonpositive denominator bounds nothing and fails the cone.  The backward
    verdicts also need J invertible: if Jw = 0, the rows of J give
    P (|wx|, |wy|, |wz|) <= 0 for the comparison matrix P with diagonal
    (|A| - rt, 1/(r + np), s - q rt) and the negated block bounds off it,
    so w = 0 whenever P is a nonsingular M-matrix (positive leading
    principal minors); otherwise both backward cones fail.  Every bound
    holds over the whole closed cone and for every admissible remainder.

    Center and strong rates.  On the cu core (Z = 0) the X, Y rows of J form
    a block matrix whose least singular value is at least
    min(|A| - rt, 1/(r + np)) - sqrt(n) t; expansion (|A| > 1) is verified
    when this exceeds 1.  On the cs core (Y = 0), |Jv| is at most
    hypot(max(|A| + rt, s + q rt) + sqrt(q) rt, sqrt(n) t, sqrt(nq) t);
    contraction (|A| < 1) is verified when this is below 1.  Each is
    claimed only on the side |A| selects.  `min_expansion_uu` bounds |Jv|
    from below on unit uu vectors by |wy|, with |y| >= 1/sqrt(1 + 2K^2);
    `max_contraction_ss` bounds |Jv| from above on the ss core (X = Y = 0).
    `min_margin` is the least of the four cone margins.

    At p = 0 the verdicts hold for every A_km != 0 and K > 0, since
    z_rate < min(|A|, 1/y_rate) and y_rate * max(|A|, z_rate) < 1.  Every
    bound is monotone in p, so the verdicts hold on an interval of bounds;
    `phi_radius` is its right end up to the guard, found by bisection.

    The model domain must be nonempty: some X of the cube maps into the cube
    with phi_bound of slack, and the slab |Y| <= y_rate*delta - phi_bound
    that the cube's Yb pulls back to is nonempty; otherwise NoImageInCube.
    """
    if not (K >= 0.0 and math.isfinite(K)):
        raise DomainError(f"cone aperture K must be finite and >= 0, got {K!r}")
    a, b, d, p = model.coeffs.A_km, model.coeffs.B_km, model.delta, model.phi_bound
    lo, hi = sorted(((-d + p - b) / a, (d - p - b) / a))
    if max(lo, -d) >= min(hi, d):
        raise NoImageInCube(f"no X of the cube maps into the cube (B_km={b!r}, delta={d!r}, "
                            f"phi_bound={p!r})")
    if model.y_rate * d - p <= 0.0:
        raise NoImageInCube(f"the Y slab y_rate*delta - phi_bound is empty at phi_bound={p!r}")

    guard = model.phi_guard
    if _holds(model, K, guard):
        radius = guard
    else:
        radius, hi = 0.0, guard
        for _ in range(RADIUS_STEPS):
            mid = 0.5 * (radius + hi)
            if _holds(model, K, mid):
                radius = mid
            else:
                hi = mid
    return ConeReport(K=K, **_cone_fields(model, K, p)[1], phi_radius=radius)
