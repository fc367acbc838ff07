"""First-return coefficient formulas, the cross-form model map, and sampled
cone-field verification.

The one-dimensional central part of a return map is affine, X -> A_km*X +
B_km, with coefficients assembled from the cycle multipliers and reduced
transition coefficients.  Powers lambda^k * gamma^m are always evaluated
through logarithms so that searches may roam k, m up to ~1e5 without
overflow; only the O(1) exponent difference survives near admissible pairs.

The full model is a cross form: the image is obtained by solving

    Xb = mu_term + A_km*X + B_km + phi1(X, Yb, Z)
    Y  = y_rate*Yb + phi3(X, Yb, Z)
    Zb = z_rate*Z  + phi4(X, Yb, Z)

for (Xb, Yb, Zb).  The remainders phi vanish asymptotically in the paper
model; here they are either identically zero or a seeded smooth field with
value and first derivatives bounded by phi_bound.  The center rates y_rate,
z_rate stand for the asymptotically vanishing cross terms; they default to
small values tied to |A_km| so the model map is invertible and the cone
checks below are meaningful.  Setting them to zero recovers the fully
degenerate skew limit (not invertible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .cycle_model import CycleSpec, CycleType
from .errors import DomainError, InsufficientSamples, NoImageInCube, NonConvergence, PoleError
from .rng import philox_rng

RATE_SCALE = 0.05  # default center-rate scale relative to min(1, |A_km|)
MAX_ITER = 200
FIXED_POINT_TOL = 1e-12


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


def df_wave_coeffs(spec: CycleSpec, angle: float, pole_tol: float = 1e-14) -> tuple[float, float, float]:
    """(A(angle), B(angle), xi(angle)) of the double-focus reduced form."""
    if spec.cycle_type is not CycleType.DOUBLE_FOCUS:
        raise DomainError("wave coefficients are double_focus quantities")
    den = df_denominator(spec, angle)
    if abs(den) < pole_tol:
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

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "k": self.k, "m": self.m,
            "A_km": self.A_km, "B_km": self.B_km,
            "admissible": self.admissible,
        }


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
# Seeded smooth remainder fields
# ---------------------------------------------------------------------------

class PhiField:
    """Smooth field amp*sin(<f, v> + psi) with |value|, |grad|_inf <= bound.

    Frequencies are capped at 1 in absolute value, so the gradient bound
    equals the amplitude bound.
    """

    def __init__(self, dim: int, bound: float, rng: np.random.Generator):
        self.dim = dim
        self.bound = float(bound)
        if bound == 0.0:
            self.freq = np.zeros(dim)
            self.phase = 0.0
        else:
            self.freq = rng.uniform(-1.0, 1.0, size=dim)
            self.phase = float(rng.uniform(0.0, 2.0 * math.pi))

    def value(self, v: np.ndarray) -> float:
        if self.bound == 0.0:
            return 0.0
        return self.bound * math.sin(float(self.freq @ v) + self.phase)

    def grad(self, v: np.ndarray) -> np.ndarray:
        if self.bound == 0.0:
            return np.zeros(self.dim)
        return self.bound * math.cos(float(self.freq @ v) + self.phase) * self.freq


class PhiPack:
    """One field per model equation component (phi1 scalar, phi3/phi4 vectors)."""

    def __init__(self, y_dim: int, z_dim: int, bound: float, seed: int):
        rng = philox_rng(seed)
        dim = 1 + y_dim + z_dim
        self.phi1 = PhiField(dim, bound, rng)
        self.phi3 = [PhiField(dim, bound, rng) for _ in range(y_dim)]
        self.phi4 = [PhiField(dim, bound, rng) for _ in range(z_dim)]
        self.bound = float(bound)


# ---------------------------------------------------------------------------
# Cross-form model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointInCube:
    x: float
    y: tuple[float, ...]
    z: tuple[float, ...]

    def as_array(self) -> np.ndarray:
        return np.concatenate(([self.x], self.y, self.z))


@dataclass
class CrossMapModel:
    """Concrete, invertible closure of the cross-form return map."""

    coeffs: ReturnCoeffs
    y_dim: int
    z_dim: int
    delta: float
    phi_bound: float = 0.0
    mu: float = 0.0
    mu_coef: float = 0.0  # multiplies mu in the X equation
    y_rate: float = field(default=0.0)
    z_rate: float = field(default=0.0)
    phi_seed: int = 0
    _phi: PhiPack = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a_mag = abs(self.coeffs.A_km)
        if a_mag == 0.0 or not math.isfinite(a_mag):
            raise DomainError("model requires a nonzero finite A_km")
        if self.y_rate == 0.0:
            self.y_rate = RATE_SCALE * min(1.0, 1.0 / a_mag)
        if self.z_rate == 0.0:
            self.z_rate = RATE_SCALE * min(1.0, a_mag)
        if self.phi_bound > 0.25 * min(self.y_rate / max(1, self.y_dim), a_mag):
            raise DomainError("phi_bound too large for the center rates")
        self._phi = PhiPack(self.y_dim, self.z_dim, self.phi_bound, self.phi_seed)

    # -- helpers -----------------------------------------------------------

    @property
    def mu_term(self) -> float:
        return self.mu_coef * self.mu

    def in_cube(self, point: PointInCube, slack: float = 1e-9) -> bool:
        lim = self.delta + slack
        return (
            abs(point.x) <= lim
            and all(abs(v) <= lim for v in point.y)
            and all(abs(v) <= lim for v in point.z)
        )

    def _args(self, x: float, yb: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.concatenate(([x], yb, z))

    # -- forward / backward -------------------------------------------------

    def apply_cross_forward(self, point: PointInCube) -> PointInCube:
        """Solve the cross relations for the image (Xb, Yb, Zb).

        The Yb block is obtained by damped fixed-point iteration of
        Yb = (Y - phi3(X, Yb, Z)) / y_rate; with phi == 0 it is exact in one
        step.  Raises NoImageInCube if the solved image leaves the cube.
        """
        if not self.in_cube(point):
            raise NoImageInCube("input point outside the cube")
        x = point.x
        y = np.asarray(point.y, dtype=float)
        z = np.asarray(point.z, dtype=float)
        yb = y / self.y_rate
        for _ in range(MAX_ITER):
            args = self._args(x, yb, z)
            phi3 = np.array([f.value(args) for f in self._phi.phi3])
            yb_next = (y - phi3) / self.y_rate
            if np.max(np.abs(yb_next - yb), initial=0.0) < FIXED_POINT_TOL:
                yb = yb_next
                break
            yb = yb_next
        else:
            raise NonConvergence("Yb iteration did not converge")
        args = self._args(x, yb, z)
        xb = self.mu_term + self.coeffs.A_km * x + self.coeffs.B_km + self._phi.phi1.value(args)
        zb = self.z_rate * z + np.array([f.value(args) for f in self._phi.phi4])
        image = PointInCube(xb, tuple(yb), tuple(zb))
        if not self.in_cube(image):
            worst = max(abs(xb), max(map(abs, yb), default=0.0), max(map(abs, zb), default=0.0))
            raise NoImageInCube(f"image leaves the cube (sup coordinate {worst!r})")
        return image

    def apply_cross_backward(self, point: PointInCube) -> PointInCube:
        """Inverse of apply_cross_forward, by fixed-point iteration in (X, Z)."""
        if not self.in_cube(point):
            raise NoImageInCube("input point outside the cube")
        xb = point.x
        yb = np.asarray(point.y, dtype=float)
        zb = np.asarray(point.z, dtype=float)
        a = self.coeffs.A_km
        x = (xb - self.coeffs.B_km - self.mu_term) / a
        z = np.clip(zb / self.z_rate, -self.delta, self.delta)
        for _ in range(MAX_ITER):
            args = self._args(x, yb, z)
            phi1 = self._phi.phi1.value(args)
            phi4 = np.array([f.value(args) for f in self._phi.phi4])
            x_next = (xb - self.coeffs.B_km - self.mu_term - phi1) / a
            z_next = (zb - phi4) / self.z_rate
            if max(abs(x_next - x), np.max(np.abs(z_next - z), initial=0.0)) < FIXED_POINT_TOL:
                x, z = x_next, z_next
                break
            x, z = x_next, z_next
        else:
            raise NonConvergence("(X, Z) iteration did not converge")
        args = self._args(x, yb, z)
        phi3 = np.array([f.value(args) for f in self._phi.phi3])
        y = self.y_rate * yb + phi3
        pre = PointInCube(x, tuple(y), tuple(z))
        if not self.in_cube(pre):
            raise NoImageInCube(f"preimage leaves the cube: x={x!r}")
        return pre

    # -- Jacobian ------------------------------------------------------------

    def jacobian(self, point: PointInCube) -> np.ndarray:
        """Analytic Jacobian of the solved forward map at `point`.

        Blocks are ordered (X, Y, Z) for both rows and columns.  The Yb
        derivative comes from implicit differentiation of the middle
        relation; with phi == 0 the matrix is diag(A_km, I/y_rate, z_rate*I).
        """
        image = self.apply_cross_forward(point)
        x = point.x
        z = np.asarray(point.z, dtype=float)
        yb = np.asarray(image.y, dtype=float)
        args = self._args(x, yb, z)
        n_y, n_z = self.y_dim, self.z_dim

        # gradient blocks of each phi component wrt (X, Yb, Z)
        def grads(fields: list[PhiField]) -> np.ndarray:
            if not fields:
                return np.zeros((0, 1 + n_y + n_z))
            return np.vstack([f.grad(args) for f in fields])

        g3 = grads(self._phi.phi3)           # (n_y, 1+n_y+n_z)
        g4 = grads(self._phi.phi4)           # (n_z, ...)
        g1 = self._phi.phi1.grad(args)       # (1+n_y+n_z,)

        sl_x = slice(0, 1)
        sl_y = slice(1, 1 + n_y)
        sl_z = slice(1 + n_y, 1 + n_y + n_z)

        # d Yb / d(X, Y, Z): (y_rate*I + dphi3/dYb) dYb = [-dphi3/dX, I, -dphi3/dZ]
        m_yb = self.y_rate * np.eye(n_y) + g3[:, sl_y]
        rhs = np.zeros((n_y, 1 + n_y + n_z))
        rhs[:, sl_x] = -g3[:, sl_x]
        rhs[:, sl_y] = np.eye(n_y)
        rhs[:, sl_z] = -g3[:, sl_z]
        d_yb = np.linalg.solve(m_yb, rhs) if n_y else np.zeros((0, 1 + n_y + n_z))

        jac = np.zeros((1 + n_y + n_z, 1 + n_y + n_z))
        # Xb row
        jac[0, 0] = self.coeffs.A_km + g1[sl_x][0]
        jac[0, 1 + n_y:] = g1[sl_z]
        jac[0, :] += g1[sl_y] @ d_yb
        # Yb rows
        jac[1:1 + n_y, :] = d_yb
        # Zb rows
        if n_z:
            jac[1 + n_y:, 1 + n_y:] = self.z_rate * np.eye(n_z)
            jac[1 + n_y:, 0] += g4[:, 0]
            jac[1 + n_y:, 1 + n_y:] += g4[:, sl_z]
            jac[1 + n_y:, :] += g4[:, sl_y] @ d_yb
        return jac


def build_model(
    spec: CycleSpec,
    k: int,
    m: int,
    mu: float = 0.0,
    phi_bound: float = 0.0,
    phi_seed: int = 0,
) -> CrossMapModel:
    """Assemble the model map of the (k, m) return at splitting value mu."""
    rc = coeffs(spec, k, m)
    if spec.is_saddle_focus:
        # mu enters as b * gamma^m * mu; evaluated in logs to survive large m
        log_mag = m * math.log(abs(spec.gamma)) + math.log(abs(spec.b_coef))
        if mu == 0.0:
            mu_coef = 0.0
        elif log_mag > 700.0:
            raise DomainError("gamma^m overflows in the mu term; reduce m or mu")
        else:
            mu_coef = power_sign(spec, m) * math.copysign(math.exp(log_mag), spec.b_coef)
    else:
        assert spec.eta3 is not None and spec.omega2 is not None
        # 2 / cos(m*omega2 + eta3) * lambda^k, the rank-1 slope of the mu term
        den = math.cos(m * spec.omega2 + spec.eta3)
        if abs(den) < 1e-14:
            raise PoleError("mu-term denominator vanishes")
        mu_coef = 2.0 / den * math.exp(k * math.log(spec.lam))
    return CrossMapModel(
        coeffs=rc,
        y_dim=spec.y_dim,
        z_dim=spec.z_dim,
        delta=spec.delta,
        phi_bound=phi_bound,
        mu=mu,
        mu_coef=mu_coef,
        phi_seed=phi_seed,
    )


# ---------------------------------------------------------------------------
# Cone verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeReport:
    """Sampled invariance/expansion results for the four cone families."""

    K: float
    samples: int
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

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "K": self.K,
            "samples": self.samples,
            "forward_cu_ok": self.forward_cu_ok,
            "forward_uu_ok": self.forward_uu_ok,
            "backward_cs_ok": self.backward_cs_ok,
            "backward_ss_ok": self.backward_ss_ok,
            "min_expansion_uu": self.min_expansion_uu,
            "max_contraction_ss": self.max_contraction_ss,
            "center_expansion_claimed": self.center_expansion_claimed,
            "center_expansion_ok": self.center_expansion_ok,
            "center_contraction_claimed": self.center_contraction_claimed,
            "center_contraction_ok": self.center_contraction_ok,
            "min_margin": self.min_margin,
        }


def _block_norms(vec: np.ndarray, n_y: int, n_z: int) -> tuple[float, float, float]:
    x = abs(float(vec[0]))
    y = float(np.linalg.norm(vec[1:1 + n_y])) if n_y else 0.0
    z = float(np.linalg.norm(vec[1 + n_y:])) if n_z else 0.0
    return x, y, z


def _cone_membership(vec: np.ndarray, cone: str, K: float, n_y: int, n_z: int) -> float:
    """Positive margin iff the vector lies strictly inside the cone."""
    x, y, z = _block_norms(vec, n_y, n_z)
    if cone == "cu":
        return K * (x + y) - z
    if cone == "uu":
        return K * y - max(x, z)
    if cone == "cs":
        return K * (x + z) - y
    if cone == "ss":
        return K * z - max(x, y)
    raise ValueError(cone)


def _sample_cone_vector(cone: str, K: float, n_y: int, n_z: int,
                        rng: np.random.Generator, core: bool = False) -> np.ndarray:
    """Random unit vector inside the cone (core direction plus K/2 spread).

    With core=True the transverse spread is zeroed: quantitative
    contraction/expansion claims are about the invariant core of the cone,
    since any transverse component is dominated by the strong expansion
    regardless of the central multiplier.
    """
    dim = 1 + n_y + n_z
    v = np.zeros(dim)
    spread = 0.0 if core else 0.5 * K
    if cone in ("cu", "cs"):
        # core spans X (plus Y for cu / Z for cs)
        v[0] = rng.uniform(-1.0, 1.0)
        if cone == "cu" and n_y:
            v[1:1 + n_y] = rng.uniform(-1.0, 1.0, n_y)
        if cone == "cs" and n_z:
            v[1 + n_y:] = rng.uniform(-1.0, 1.0, n_z)
        core = float(np.abs(v[0]) + np.linalg.norm(v[1:]))
        if core < 1e-9:
            v[0] = 1.0
            core = 1.0
        if cone == "cu" and n_z:
            v[1 + n_y:] = rng.uniform(-1.0, 1.0, n_z)
            v[1 + n_y:] *= spread * core / max(np.linalg.norm(v[1 + n_y:]), 1e-300)
        if cone == "cs" and n_y:
            v[1:1 + n_y] = rng.uniform(-1.0, 1.0, n_y)
            v[1:1 + n_y] *= spread * core / max(np.linalg.norm(v[1:1 + n_y]), 1e-300)
    else:
        if cone == "uu":
            if n_y == 0:
                raise DomainError("uu cone needs an expanding block")
            v[1:1 + n_y] = rng.uniform(-1.0, 1.0, n_y)
            core = float(np.linalg.norm(v[1:1 + n_y]))
            if core < 1e-9:
                v[1] = 1.0
                core = 1.0
            v[0] = rng.uniform(-1.0, 1.0) * spread * core
            if n_z:
                v[1 + n_y:] = rng.uniform(-1.0, 1.0, n_z)
                v[1 + n_y:] *= spread * core / max(np.linalg.norm(v[1 + n_y:]), 1e-300)
        else:  # ss
            if n_z == 0:
                raise DomainError("ss cone needs a contracting block")
            v[1 + n_y:] = rng.uniform(-1.0, 1.0, n_z)
            core = float(np.linalg.norm(v[1 + n_y:]))
            if core < 1e-9:
                v[1 + n_y] = 1.0
                core = 1.0
            v[0] = rng.uniform(-1.0, 1.0) * spread * core
            if n_y:
                v[1:1 + n_y] = rng.uniform(-1.0, 1.0, n_y)
                v[1:1 + n_y] *= spread * core / max(np.linalg.norm(v[1:1 + n_y]), 1e-300)
    return v / np.linalg.norm(v)


def _sample_domain_point(model: CrossMapModel, rng: np.random.Generator) -> PointInCube | None:
    """Point of the cube whose image also lies in the cube, or None."""
    a, b = model.coeffs.A_km, model.coeffs.B_km + model.mu_term
    d = model.delta
    # X must land in [-d, d] under x -> a x + b, up to the phi slack
    slack = model.phi_bound
    lo = (-d + slack - b) / a
    hi = (d - slack - b) / a
    if lo > hi:
        lo, hi = hi, lo
    lo, hi = max(lo, -d), min(hi, d)
    if lo >= hi:
        return None
    x = float(rng.uniform(lo, hi))
    # Y must sit inside the thin slab mapped from |Yb| <= delta
    y_half = max(model.y_rate * d - model.phi_bound, 0.0)
    if y_half <= 0.0:
        return None
    y = tuple(rng.uniform(-y_half, y_half, model.y_dim))
    z = tuple(rng.uniform(-d, d, model.z_dim))
    return PointInCube(x, y, z)


def verify_cones(
    model: CrossMapModel,
    K: float,
    n_samples: int,
    seed: int,
    vectors_per_point: int = 4,
) -> ConeReport:
    """Sample points with images in the cube and test the four cone families.

    Forward: cu and uu cones must map strictly into themselves under the
    Jacobian, uu vectors must expand; backward: cs and ss must be invariant
    under the inverse Jacobian, ss vectors must contract under the forward
    map.  Center expansion (|A_km| > 1) or contraction (|A_km| < 1) is
    claimed and checked only on the side the coefficient selects.
    """
    rng = philox_rng(seed)
    n_y, n_z = model.y_dim, model.z_dim
    points: list[PointInCube] = []
    attempts = 0
    while len(points) < n_samples and attempts < 200 * n_samples:
        attempts += 1
        p = _sample_domain_point(model, rng)
        if p is None:
            continue
        try:
            model.apply_cross_forward(p)
        except (NoImageInCube, NonConvergence):
            continue
        points.append(p)
    if len(points) < n_samples:
        raise InsufficientSamples(
            f"found {len(points)} admissible points of {n_samples} requested"
        )

    a_mag = abs(model.coeffs.A_km)
    expansion_claimed = a_mag > 1.0
    contraction_claimed = a_mag < 1.0

    fwd_cu = fwd_uu = bwd_cs = bwd_ss = True
    center_exp_ok = True if expansion_claimed else None
    center_con_ok = True if contraction_claimed else None
    min_exp_uu = math.inf
    max_con_ss = 0.0
    min_margin = math.inf

    for p in points:
        jac = model.jacobian(p)
        jac_inv = np.linalg.inv(jac)
        for _ in range(vectors_per_point):
            for cone, mat, forward in (
                ("cu", jac, True),
                ("uu", jac, True),
                ("cs", jac_inv, False),
                ("ss", jac_inv, False),
            ):
                v = _sample_cone_vector(cone, K, n_y, n_z, rng)
                w = mat @ v
                margin = _cone_membership(w, cone, K, n_y, n_z) / max(
                    float(np.linalg.norm(w)), 1e-300
                )
                min_margin = min(min_margin, margin)
                # K = 0 degenerates the cones to the axis subspaces, which a
                # skew product preserves only weakly
                ok = margin > 0.0 if K > 0.0 else margin >= -1e-12
                if cone == "cu":
                    fwd_cu &= ok
                    if expansion_claimed:
                        core = _sample_cone_vector("cu", K, n_y, n_z, rng, core=True)
                        center_exp_ok = bool(
                            center_exp_ok and float(np.linalg.norm(jac @ core)) > 1.0
                        )
                elif cone == "uu":
                    fwd_uu &= ok
                    min_exp_uu = min(min_exp_uu, float(np.linalg.norm(w)))
                elif cone == "cs":
                    bwd_cs &= ok
                    if contraction_claimed:
                        core = _sample_cone_vector("cs", K, n_y, n_z, rng, core=True)
                        center_con_ok = bool(
                            center_con_ok and float(np.linalg.norm(jac @ core)) < 1.0
                        )
                else:
                    bwd_ss &= ok
                    # forward contraction measured on the core of the cone
                    core = _sample_cone_vector("ss", K, n_y, n_z, rng, core=True)
                    max_con_ss = max(max_con_ss, float(np.linalg.norm(jac @ core)))

    return ConeReport(
        K=K,
        samples=len(points),
        forward_cu_ok=fwd_cu,
        forward_uu_ok=fwd_uu,
        backward_cs_ok=bwd_cs,
        backward_ss_ok=bwd_ss,
        min_expansion_uu=min_exp_uu,
        max_contraction_ss=max_con_ss,
        center_expansion_claimed=expansion_claimed,
        center_expansion_ok=center_exp_ok,
        center_contraction_claimed=contraction_claimed,
        center_contraction_ok=center_con_ok,
        min_margin=min_margin,
    )
