"""Residue conditions, torus targets, and the case-by-case pair searches.

Each search produces integer pairs (k, m) whose return-map coefficients
(A_km, B_km) have B_km accumulating near zero while |A_km| stays inside a
band on one side of 1.  `CASES` holds one `CaseInfo` per searched case
tag: the parameter block its declared arithmetic fixes, and what its
theorem yields.  Two kernels serve the ten searched tags:

- k lattice (SF-1, DF-1, SF-3, DF-2.1, DF-3.1, DF-3.2): k runs over the
  residue class of a witness, or over the window or a relation's step
  keeping each k whose band value or torus point qualifies; m is rounded
  into its own class toward the t* each k aims at;
- line-profile lattice (SF-2, DF-2.2, DF-3.3.1, DF-3.3.2): declared integer
  relations put the target on a line; each expanding root s0 of the line's
  B-profile carries a lattice of (k, m) whose torus points approach it.

The kernels share one funnel: candidates, the window mask, a coarse gap,
one exact `return_map.coeffs` evaluation per survivor, then assembly.  The
reported A/B values are those of the exact stage, so they round-trip
bit-exactly.

The band and circle tests of the k lattice (SF-3, DF-2.1, DF-3.1) depend on
k only through its phase k*omega1 on the circle, so they are first decided
there, and today's float64 test then runs on the ks kept.  `_phases` gives
each k's phase as a 64-bit fixed-point turn, one wrapping uint64 multiply
by W = round(2**64 * omega1 / TWO_PI).  The band test changes only at the
cut points where num*sin(theta + eta1) = +-L*den*sin(theta + eta2), L = lo
or hi, or sin(theta + eta2) = 0: at most 10 on the circle, each a simple
zero of a sinusoid.  `_band_table` decides each cell between two cuts by
one scalar evaluation at its midpoint and marks the 4096 phase bins that
meet a passing cell or lie within a margin of a cut; the margin covers the
rounding of the float test, of the cuts and of the fixed point, so every
k that the float test keeps lies in a marked bin.  The output is the float
test's, bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .cycle_model import CaseTag, CycleSpec, CycleType, Moduli, TWO_PI
from .diophantine import frac
from .errors import DomainError, NotApplicable, PoleError, WindowExhausted
from .return_map import (
    ReturnCoeffs,
    coeffs,
    df_denominator,
    df_wave_coeffs,
    quant_bound,
    quant_margin,
    sign_period,
)

log = logging.getLogger(__name__)

ZERO_TOL = 1e-12
UNIT_TOL = 1e-9
#: k (or m) range that `check_A2` scans for an irrational angle
WITNESS_WINDOW = 256
#: |alpha| band of a cs and of a cu request in the band cases
CS_BAND = (0.3, 0.7)
CU_BAND = (1.5, 3.0)
#: the line-profile root scans run over |s| <= SCAN_HALFWIDTH
SCAN_HALFWIDTH = 40.0


# ---------------------------------------------------------------------------
# Band-limit values
# ---------------------------------------------------------------------------

def alpha_sf(spec: CycleSpec, angle: float) -> float:
    """Limit of |A_km| along B_km -> 0 at a fixed k-angle (saddle focus)."""
    s2 = math.sin(angle + spec.eta2)
    if abs(s2) < ZERO_TOL:
        return math.inf
    return (
        spec.b_coef * spec.u_scalar * spec.A_coef * math.sin(angle + spec.eta1)
        / (spec.B_coef * s2)
    )


def alpha_df(spec: CycleSpec, s_angle: float, w_angle: float) -> float:
    """Limit of |A_km| along B_km -> 0 at fixed rotation angles (double focus)."""
    wa, wb, xi = df_wave_coeffs(spec, w_angle)
    s2 = math.sin(s_angle + spec.eta2)
    if abs(s2) < ZERO_TOL or abs(wb) < ZERO_TOL:
        return math.inf
    return xi * wa * math.sin(s_angle + spec.eta1) / (wb * s2)


# ---------------------------------------------------------------------------
# Conditions on residues
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidueWitness:
    """A residue (pair) satisfying the sign/nonvanishing/band inequalities."""

    r: int
    alpha: float
    inequalities: dict[str, bool]
    r2: int | None = None

    @property
    def band_margin(self) -> float:
        return abs(abs(self.alpha) - 1.0)


def _check_angle_pair(q: int, p: int) -> None:
    # q in {1, 2} puts the angle at 0 or pi, outside the open range; p is
    # only used mod q, so p -> p + q leaves every residue angle unchanged
    if q < 3 or p < 1 or math.gcd(p, q) != 1:
        raise DomainError(f"angle p/q={p}/{q} needs coprime p, q with q >= 3")


def check_A1(spec: CycleSpec, q: int, p: int) -> list[ResidueWitness]:
    """Enumerate residues r of k mod q passing the three coefficient
    inequalities; nonempty whenever q >= 9.

    Results are ordered by decreasing distance of |alpha_r| from 1, i.e.
    most robust band first.
    """
    if not spec.is_saddle_focus:
        raise NotApplicable("check_A1 applies to saddle_focus cycles")
    _check_angle_pair(q, p)
    omega = TWO_PI * p / q
    bu = spec.b_coef * spec.u_scalar
    out: list[ResidueWitness] = []
    for r in range(q):
        angle = r * omega
        s1 = math.sin(angle + spec.eta1)
        s2 = math.sin(angle + spec.eta2)
        ineq = {
            "bu_sin2_positive": bu * s2 > 0.0,
            "sin1_nonzero": abs(s1) > ZERO_TOL,
        }
        alpha = alpha_sf(spec, angle)
        ineq["alpha_not_unit"] = math.isfinite(alpha) and abs(abs(alpha) - 1.0) > UNIT_TOL
        if all(ineq.values()):
            out.append(ResidueWitness(r=r, alpha=alpha, inequalities=ineq))
    out.sort(key=lambda w: (-w.band_margin, w.r))
    return out


def check_A2(
    spec: CycleSpec,
    q1: int | None = None,
    p1: int | None = None,
    q2: int | None = None,
    p2: int | None = None,
) -> list[ResidueWitness]:
    """Enumerate residue pairs (r1, r2) passing the double-focus inequalities.

    With both angles rational the scan runs over the q1*q2 residue grid and
    is guaranteed nonempty for q1 >= 9, q2 >= 8.  For an irrational angle
    pass None for its (q, p) and the scan runs over k (or m) in
    1..WITNESS_WINDOW instead; the witness field then holds the integer itself.
    """
    if spec.is_saddle_focus:
        raise NotApplicable("check_A2 applies to double_focus cycles")
    assert spec.omega2 is not None and spec.eta3 is not None

    if q1 is not None:
        _check_angle_pair(q1, p1 or 0)
        k_angles = [(r, r * TWO_PI * p1 / q1) for r in range(q1)]  # type: ignore[operator]
    else:
        k_angles = [(k, k * spec.omega1) for k in range(1, WITNESS_WINDOW + 1)]
    if q2 is not None:
        _check_angle_pair(q2, p2 or 0)
        m_angles = [(r, r * TWO_PI * p2 / q2) for r in range(q2)]  # type: ignore[operator]
    else:
        m_angles = [(m, m * spec.omega2) for m in range(1, WITNESS_WINDOW + 1)]

    out: list[ResidueWitness] = []
    for r2, w_angle, xi_num, _ in _m_residues(spec, m_angles):
        for r1, s_angle in k_angles:
            s1 = math.sin(s_angle + spec.eta1)
            s2 = math.sin(s_angle + spec.eta2)
            ineq = {
                "quant": True,
                "xi_sin2_positive": xi_num * s2 > 0.0,
                "sin1_nonzero": abs(s1) > ZERO_TOL,
            }
            alpha = alpha_df(spec, s_angle, w_angle)
            ineq["alpha_not_unit"] = math.isfinite(alpha) and abs(abs(alpha) - 1.0) > UNIT_TOL
            if all(ineq.values()):
                out.append(ResidueWitness(r=r1, alpha=alpha, inequalities=ineq, r2=r2))
    out.sort(key=lambda w: (-w.band_margin, w.r, w.r2 or 0))
    return out


# ---------------------------------------------------------------------------
# Torus coefficient flow g, h and proper targets
# ---------------------------------------------------------------------------

def eval_gh(spec: CycleSpec, t: float, s: float, w: float) -> tuple[float, float]:
    """Coefficient flow on R x S1 x S1:

        g = gamma^t * A(2*pi*w) * sin(2*pi*s + eta1)
        h = gamma^t * B(2*pi*w) * sin(2*pi*s + eta2) - xi(2*pi*w)
    """
    if spec.is_saddle_focus:
        raise NotApplicable("eval_gh applies to double_focus cycles")
    wa, wb, xi = df_wave_coeffs(spec, TWO_PI * w)
    gt = math.exp(t * math.log(spec.gamma))
    g = gt * wa * math.sin(TWO_PI * s + spec.eta1)
    h = gt * wb * math.sin(TWO_PI * s + spec.eta2) - xi
    return g, h


@dataclass(frozen=True)
class TorusTarget:
    """A proper horizontal line, tilted line, or plane on R x S1 x S1."""

    kind: str  # horizontal_line | tilted_line | plane
    params: dict[str, float]
    admissible: bool = False
    margins: dict[str, float] = field(default_factory=dict)

    @classmethod
    def horizontal_line(cls, s_star: float, w_star: float) -> "TorusTarget":
        return cls("horizontal_line", {"s_star": frac(s_star), "w_star": frac(w_star)})

    @classmethod
    def tilted_line(
        cls,
        a1: float,
        b: float,
        a2: float | None = None,
        w_star: float | None = None,
    ) -> "TorusTarget":
        if (a2 is None) == (w_star is None):
            raise DomainError("tilted_line takes exactly one of a2, w_star")
        params = {"a1": a1, "b": b}
        if a2 is not None:
            params["a2"] = a2
        else:
            params["w_star"] = frac(w_star)  # type: ignore[arg-type]
        return cls("tilted_line", params)

    @classmethod
    def plane(
        cls,
        a: float | None = None,
        b: float | None = None,
        w_star: float | None = None,
    ) -> "TorusTarget":
        if w_star is None and (a is None or b is None):
            raise DomainError("plane takes (a, b) or w_star")
        if w_star is not None:
            return cls("plane", {"w_star": frac(w_star)})
        return cls("plane", {"a": a, "b": b})  # type: ignore[dict-item]


def _wave_margins(spec: CycleSpec, w_star: float) -> dict[str, float]:
    wa, wb, xi = df_wave_coeffs(spec, TWO_PI * w_star)
    prod = wa * wb * xi
    return {
        "wave_product_nonzero": abs(prod),
        "pole_distance": abs(df_denominator(spec, TWO_PI * w_star)),
    }


def target_admissible(spec: CycleSpec, target: TorusTarget) -> TorusTarget:
    """Evaluate the admissibility inequalities, each margin above ZERO_TOL;
    returns the target with its verdict and numeric margins filled in."""
    if spec.is_saddle_focus:
        raise NotApplicable("torus targets apply to double_focus cycles")
    p = target.params
    margins: dict[str, float] = {}
    if target.kind == "horizontal_line":
        s_star, w_star = p["s_star"], p["w_star"]
        wa, wb, xi = df_wave_coeffs(spec, TWO_PI * w_star)
        s2 = math.sin(TWO_PI * s_star + spec.eta2)
        margins["positivity"] = xi * wb * s2
        glim = alpha_df(spec, TWO_PI * s_star, TWO_PI * w_star)
        margins["glim_nonzero"] = abs(glim) if math.isfinite(glim) else 0.0
        margins["glim_not_unit"] = (
            abs(abs(glim) - 1.0) if math.isfinite(glim) else 0.0
        )
        margins["glim_finite"] = abs(s2)
        margins["pole_distance"] = abs(df_denominator(spec, TWO_PI * w_star))
    elif target.kind == "tilted_line":
        margins["direction_nonzero"] = p["a1"] ** 2 + p["b"] ** 2
        if "a2" in p:
            margins["a2_nonzero"] = abs(p["a2"])
        else:
            margins.update(_wave_margins(spec, p["w_star"]))
    elif target.kind == "plane":
        if "w_star" in p:
            margins.update(_wave_margins(spec, p["w_star"]))
        else:
            margins["direction_nonzero"] = p["a"] ** 2 + p["b"] ** 2
    else:
        raise DomainError(f"unknown target kind {target.kind!r}")
    ok = all(v > ZERO_TOL for v in margins.values())
    return replace(target, admissible=ok, margins=margins)


# ---------------------------------------------------------------------------
# Pair sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchWindow:
    k_max: int = 100_000
    m_max: int = 100_000


@dataclass(frozen=True)
class PairSequence:
    """Pairs returned by a case search, with their coefficient values and the
    torus points they realize."""

    pairs: tuple[tuple[int, int], ...]
    target_values: tuple[tuple[float, float, float], ...]
    A_values: tuple[float, ...]
    B_values: tuple[float, ...]
    case: CaseTag
    target: TorusTarget | None = None
    residue: dict[str, int] = field(default_factory=dict)
    alpha_ref: float | None = None
    eps: float = math.nan
    distances: tuple[float, ...] = ()
    best_distance: float = math.nan


def _torus_point(spec: CycleSpec, theta: float, k: int, m: int) -> tuple[float, float, float]:
    t = m - k * theta
    s = frac(k * spec.omega1 / TWO_PI)
    w = frac(m * spec.omega2 / TWO_PI) if spec.omega2 is not None else 0.0
    return (t, s, w)


@dataclass(frozen=True)
class _Search:
    """The arguments of one `search_pairs` call."""

    spec: CycleSpec
    moduli: Moduli
    case: CaseTag
    eps: float
    window: SearchWindow
    kind: str | None
    min_pairs: int
    residue_rank: int
    witnesses: Sequence[ResidueWitness] | None = None

    @property
    def what(self) -> str:
        return self.case.value

    @property
    def limit(self) -> int | None:
        """eps = inf keeps the first max(min_pairs, 1) distinct pairs."""
        return max(self.min_pairs, 1) if math.isinf(self.eps) else None

    def band_limits(self) -> tuple[str, float, float]:
        """The requested side (cs unless asked) and its |alpha| band."""
        kind = self.kind or "cs"
        return (kind, *(CS_BAND if kind == "cs" else CU_BAND))

    def residues(self) -> Sequence[ResidueWitness]:
        """The caller's residue witnesses, else the case's `residue_witnesses`."""
        if self.witnesses is None:
            return residue_witnesses(self.spec, self.moduli, self.case) or []
        return self.witnesses


#: a kept candidate: k, m, its distance to the target and its coefficients
_Kept = tuple[int, int, float, ReturnCoeffs]


def _assemble(
    s: _Search,
    kept: Sequence[_Kept],
    best_distance: float,
    target: TorusTarget | None,
    residue: dict[str, int] | None,
    alpha_ref: float | None,
) -> PairSequence:
    """The pair sequence of the kept candidates, one per (k, m) in (k, m)
    order; a repeated pair keeps its last distance."""
    kept = sorted({t[:2]: t for t in kept}.values(), key=lambda t: t[:2])
    if len(kept) < max(s.min_pairs, 1):
        raise WindowExhausted(
            f"{s.what}: found {len(kept)} pairs (best distance {best_distance:.3e})",
            best_distance=best_distance,
            found=len(kept),
        )
    log.info("%s: kept %d pairs, best distance %.3e", s.what, len(kept), best_distance)
    return PairSequence(
        pairs=tuple((k, m) for k, m, _, _ in kept),
        target_values=tuple(_torus_point(s.spec, s.moduli.theta, k, m) for k, m, _, _ in kept),
        A_values=tuple(rc.A_km for _, _, _, rc in kept),
        B_values=tuple(rc.B_km for _, _, _, rc in kept),
        case=s.case,
        target=None if target is None else target_admissible(s.spec, target),
        residue=dict(residue or {}),
        alpha_ref=alpha_ref,
        eps=s.eps,
        distances=tuple(d for _, _, d, _ in kept),
        best_distance=best_distance,
    )


def _pick_witness(
    wits: Sequence[ResidueWitness], kind: str | None, what: str, rank: int = 0
) -> ResidueWitness:
    if kind is None:
        matching = list(wits)
    else:
        want_cs = kind == "cs"
        matching = [w for w in wits if (abs(w.alpha) < 1.0) == want_cs]
    if not matching:
        raise WindowExhausted(f"{what}: no admissible residues for kind={kind}", found=0)
    if rank >= len(matching):
        raise WindowExhausted(
            f"{what}: residue rank {rank} exceeds the {len(matching)} admissible residues",
            found=0,
        )
    return matching[rank]


def _relation(s: _Search, keys: tuple[str, ...], lead: str) -> list[Fraction]:
    """The declared relation over `keys` solved for `lead`: the rational
    coefficient of each other key, in key order."""
    rel = s.moduli.relation_for(keys)
    if rel is None:
        raise DomainError(f"{s.what} needs a declared {{{', '.join(keys)}}} relation")
    c = rel.coeffs
    if c.get(lead, 0) == 0:
        raise DomainError(f"{s.what} relation must involve {lead}")
    return [Fraction(-c.get(key, 0), c[lead]) for key in keys if key != lead]


def _theta_relation(s: _Search) -> list[Fraction]:
    """theta = (p1/q1) * omega1/2pi + p2/q2, from the declared relation or a
    rational theta."""
    keys = ("theta", "omega1", "one")
    if s.moduli.relation_for(keys) is None and s.moduli.is_rational("theta"):
        return [Fraction(0), s.moduli.rational("theta")]
    return _relation(s, keys, "theta")


def _tilted_relation(s: _Search) -> tuple[int, int, int, int]:
    """(p1, q1, p2, q2) of the theta relation of a double-focus line target,
    which a rational theta (p1 = 0) degenerates."""
    pq1, pq2 = _theta_relation(s)
    if pq1 == 0:
        raise WindowExhausted(
            f"{s.what}: theta rational makes the tilted target degenerate", found=0
        )
    return pq1.numerator, pq1.denominator, pq2.numerator, pq2.denominator


def _m_residues(
    spec: CycleSpec, m_angles: Iterable[tuple[int, float]]
) -> list[tuple[int, float, float, float]]:
    """The m-rotations whose denominators clear quant_bound(delta) and whose
    xi numerator is nonzero, as (index, angle, xi numerator, margin score)."""
    cdelta = quant_bound(spec.delta)
    u1, u2 = spec.u_pair
    out = []
    for r, angle in m_angles:
        margin = quant_margin(spec, angle)
        if margin <= cdelta:
            continue
        xi_num = math.cos(angle + spec.eta3) * u1 + math.sin(angle + spec.eta3) * u2
        if abs(xi_num) > ZERO_TOL:
            out.append((r, angle, xi_num, min(margin - cdelta, abs(xi_num))))
    return out


def _circle_gap(x: np.ndarray, centre: float) -> np.ndarray:
    """Distance of each x to centre on the unit circle R/Z."""
    return np.abs((x - centre + 0.5) % 1.0 - 0.5)


#: the band table has 2**_TABLE_BITS phase bins
_TABLE_BITS = 12
#: past this margin (rad) the band test runs on every k
_MARGIN_MAX = 1e-6
#: unit roundoff of float64
_U = 2.0 ** -53


def _phases(ks: np.ndarray, omega: float) -> np.ndarray:
    """The phase k*omega/TWO_PI mod 1 of each int64 k as a uint64 count of
    2**-64 turn: k*W with W = round(2**64 * omega / TWO_PI) mod 2**64,
    computed exactly.  The multiply wraps mod 2**64, which is the phase's
    own wrap, so the result is off by at most |k|*2**-65 turn."""
    w = round(Fraction(omega) * 2**64 / Fraction(TWO_PI)) % 2**64
    return ks.view(np.uint64) * np.uint64(w)


def _gap_within(ks: np.ndarray, omega: float, centre: float, eps: float) -> np.ndarray:
    """The ascending ks whose float circle gap `_circle_gap(k*w, centre)`,
    w = omega/TWO_PI, is at most eps.

    The gap is first taken in fixed point on `_phases`.  fl(k*w) and the
    gap's roundings put the float gap within 8u*(|k*w| + 2) turn of the
    exact gap of k*omega/TWO_PI (w itself is within u relative), and the
    phase is within (|k| + 2)*2**-64 turn of it with the rounding of centre
    and of the radius.  So the fixed-point radius eps plus twice these keeps
    every k that the float gap keeps; past half a turn it keeps every k.
    """
    w = omega / TWO_PI
    if ks.size:
        k_max = max(-int(ks[0]), int(ks[-1]))
        radius = eps + 2 * (8 * _U * (k_max * abs(w) + 2) + (k_max + 2) * 2.0 ** -64)
        if 0.0 <= radius < 0.5:
            reach = math.ceil(radius * 2.0 ** 64)
            ph = _phases(ks, omega)
            ph -= np.uint64((round(Fraction(centre) * 2**64) - reach) % 2**64)
            ks = ks[ph <= np.uint64(2 * reach)]
    return ks[_circle_gap(ks * w, centre) <= eps]


def _band_table(
    spec: CycleSpec, lo: float, hi: float, num: float, den: float, sign_c: float, k_max: int,
) -> np.ndarray | None:
    """The 2**_TABLE_BITS phase bins that may hold a k, |k| <= k_max, which
    passes the float band test of `_band_aim`; None when the margin below
    is not under _MARGIN_MAX, and the test must then run on every k.

    Cuts.  With s1, s2 = sin(theta + eta1), sin(theta + eta2), the test
    asks sign_c*s2 > 0 and lo <= |num*s1 / (den*s2)| <= hi.  For L = lo or
    hi, |num*s1| - L*|den*s2| has the sign of g+ * g-, where g+- = num*s1
    +- L*den*s2 = a*sin(theta) + b*cos(theta) = R*sin(theta + atan2(b, a)),
    whose zeros -atan2(b, a) + n*pi are simple when R > 0 (R = 0 returns
    None).  With the zeros of s2 these are at most 10 cuts on the circle.
    Between two neighbouring cuts the exact test does not change, so one
    evaluation at the cell's midpoint decides the cell.  The |s2| >
    ZERO_TOL clause only drops ks, so the table leaves it out.

    Margin.  The float test at k is today's expressions at the float
    argument fl(fl(k*omega1) + eta), which lies within 2u*(k_max*|omega1| +
    |eta|) of k*omega1 + eta (u = 2**-53); np.sin adds at most 2**-50
    (measured within one ulp up to |x| = 6e7).  So each float sine is
    within e = 2u*(k_max*|omega1| + 4*pi + |eta|) + 2**-50 of the exact
    sine at theta_k = k*omega1, and at a midpoint (below 4*pi) as well.
    With the ratio's 3u each g is within E = (|num| + L*|den|)*(e + 4u)
    of exact.  As |g| >=
    (2/pi)*R*dist(theta, zeros of g), the float and exact tests can differ
    only within (pi/2)*E/R of a zero of some g, or (pi/2)*e of a zero of
    s2.  Added to this: the cuts' own rounding, 8u*(|num| + L*|den|)/R +
    64u, which also covers the midpoints and the turn conversion; the gap
    between TWO_PI, in whose turns the phase counts, and 2*pi, (k_max*|omega1|
    / TWO_PI + 1)*2**-51 rad; and W's rounding, TWO_PI*k_max*2**-65 rad.
    The margin is twice the sum.  A cell narrower than twice the margin lies
    within the margin of its cuts, and a wider one has its midpoint farther
    than the margin from every cut, where the scalar test is exact.  So
    every k that the float test keeps falls in a marked bin: one meeting a
    passing cell or lying within the margin of a cut, each widened by the
    margin.
    """
    e1, e2 = spec.eta1, spec.eta2
    err = 2 * _U * (k_max * abs(spec.omega1) + 4 * math.pi + max(abs(e1), abs(e2))) + 2.0 ** -50
    reach = math.pi / 2 * err
    cuts = [-e2, math.pi - e2]
    for lim in (lo, hi):
        for sl in (lim, -lim):
            a = num * math.cos(e1) + sl * den * math.cos(e2)
            b = num * math.sin(e1) + sl * den * math.sin(e2)
            r = math.hypot(a, b)
            if not 0.0 < r < math.inf:
                return None
            size = (abs(num) + lim * abs(den)) / r
            reach = max(reach, math.pi / 2 * size * (err + 4 * _U) + 8 * _U * size)
            cuts += [-math.atan2(b, a), math.pi - math.atan2(b, a)]
    margin = 2 * (reach + 64 * _U + (k_max * abs(spec.omega1) / TWO_PI + 1) * 2.0 ** -51
                  + TWO_PI * k_max * 2.0 ** -65)
    if not margin <= _MARGIN_MAX:
        return None
    n = 1 << _TABLE_BITS
    table = np.zeros(n, dtype=bool)

    def mark(x0: float, x1: float) -> None:
        """Mark every bin that meets [x0, x1] (rad), round the circle."""
        first = math.floor(x0 / TWO_PI * n)
        end = first % n + min(math.floor(x1 / TWO_PI * n) - first + 1, n)
        first %= n
        table[first:end] = True
        table[:max(end - n, 0)] = True

    cuts = sorted(c % TWO_PI for c in cuts)
    for c0, c1 in zip(cuts, cuts[1:] + [cuts[0] + TWO_PI]):
        mid = 0.5 * (c0 + c1)
        s1, s2 = math.sin(mid + e1), math.sin(mid + e2)
        if sign_c * s2 > 0.0 and lo * abs(den * s2) <= abs(num * s1) <= hi * abs(den * s2):
            mark(c0 - margin, c1 + margin)
        else:
            mark(c0 - margin, c0 + margin)
    return table


def _root_scan(fn: Callable[[float], float], lo: float, hi: float, n: int) -> list[float]:
    """All roots of fn on [lo, hi] located by sign changes plus bisection.

    A sign change across a pole bisects onto the pole, where |fn| ends up
    above both bracket values (or undefined) instead of near zero; such
    brackets are not roots.
    """
    xs = np.linspace(lo, hi, n)
    vals = np.array([fn(float(x)) for x in xs])
    roots: list[float] = []
    for i in range(len(xs) - 1):
        a, b = float(xs[i]), float(xs[i + 1])
        fa, fb = float(vals[i]), float(vals[i + 1])
        if not (math.isfinite(fa) and math.isfinite(fb)):
            continue
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0.0:
            bound = max(abs(fa), abs(fb))
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = fn(mid)
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            root = 0.5 * (a + b)
            if abs(fn(root)) <= bound:
                roots.append(root)
    return roots


def _expanding_roots(
    roots: Sequence[float],
    alpha_of: Callable[[float], float],
    min_margin: float = 0.05,
    prefer: float = 2.0,
    limit: int = 6,
) -> list[tuple[float, float, float]]:
    """Expanding-band roots as (score, root, alpha), best score first; the
    score is the distance of log|alpha| from log(prefer).

    Roots at extreme |alpha| sit next to sine zeros where the profile slope
    explodes and no lattice point lands inside the tolerance, so moderate
    bands certify far better than maximal ones; several moderate roots are
    harvested together to thicken the pair set.
    """
    scored: list[tuple[float, float, float]] = []
    for s0 in roots:
        a = alpha_of(s0)
        if not (math.isfinite(a) and abs(a) > 1.0 + min_margin):
            continue
        scored.append((abs(math.log(abs(a)) - math.log(prefer)), s0, a))
    scored.sort()
    return scored[:limit]


def _slope_radius(fn: Callable[[float], float], s0: float, eps: float) -> float:
    """Distance around a root within which |fn| stays ~<= eps."""
    h = 1e-6
    slope = abs(fn(s0 + h) - fn(s0 - h)) / (2 * h)
    if slope < 1e-9:
        return 0.5
    return min(2.0 * eps / slope, 0.5)


def _df_target_tstar(spec: CycleSpec, s_star: float, w_star: float) -> float:
    """t with h(t, s*, w*) = 0; requires the positivity inequality."""
    _, wb, xi = df_wave_coeffs(spec, TWO_PI * w_star)
    s2 = math.sin(TWO_PI * s_star + spec.eta2)
    ratio = xi / (wb * s2)
    if ratio <= 0.0 or not math.isfinite(ratio):
        raise DomainError("horizontal target fails the positivity inequality")
    return math.log(ratio) / math.log(spec.gamma)


def residue_tstar(spec: CycleSpec, r: int) -> float:
    """SF-1: t* = log(bu / (B*sin(r*omega1 + eta2))) / log|gamma|, where the
    B-profile |gamma|^t*B*sin(r*omega1 + eta2) - bu of residue r vanishes."""
    bu = spec.b_coef * spec.u_scalar
    s2 = math.sin(r * spec.omega1 + spec.eta2)
    return math.log(bu / (spec.B_coef * s2)) / math.log(abs(spec.gamma))


# ---------------------------------------------------------------------------
# The shared funnel: window mask, coarse gap, one exact evaluation, assembly
# ---------------------------------------------------------------------------

def _funnel(
    spec: CycleSpec, ks: np.ndarray, ms: np.ndarray, dists: np.ndarray,
    threshold: float | np.ndarray, eps_b: float | None, best_of_b: bool, limit: int | None,
    expanding: bool = False,
) -> tuple[list[_Kept], float]:
    """Coarse gap on the windowed candidates, then one `coeffs` evaluation
    per survivor, keeping the admissible ones with |B_km| <= eps_b (when
    bounded) and, for expanding searches, |A_km| > 1.  With a `limit`
    (eps = inf) the survivors run in (k, m) order, a repeated pair once with
    its last distance, and the funnel stops at `limit` kept.

    Returns the kept candidates and the best distance: the best admissible
    |B_km| when best_of_b, else the least distance of any windowed candidate.
    """
    coarse = dists <= threshold
    cks, cms, cds = ks[coarse], ms[coarse], dists[coarse]
    if limit is not None:
        order = np.lexsort((cms, cks))
        cks, cms, cds = cks[order], cms[order], cds[order]
        last = np.ones(cks.size, dtype=bool)
        last[:-1] = (cks[1:] != cks[:-1]) | (cms[1:] != cms[:-1])
        cks, cms, cds = cks[last], cms[last], cds[last]
    kept: list[_Kept] = []
    best = math.inf
    for k, m, dist in zip(cks.tolist(), cms.tolist(), cds.tolist()):
        rc = coeffs(spec, int(k), int(m))
        if not rc.admissible:
            continue
        best = min(best, abs(rc.B_km))
        if (eps_b is None or abs(rc.B_km) <= eps_b) and (not expanding or abs(rc.A_km) > 1.0):
            kept.append((int(k), int(m), float(dist), rc))
            if len(kept) == limit:
                break
    if not best_of_b:
        best = float(np.min(dists)) if dists.size else math.inf
    return kept, best


# -- k lattice ------------------------------------------------------------------

def _lattice(
    s: _Search, k_class: tuple[int, int], m_class: tuple[int, int],
    aim: Callable[[np.ndarray], tuple[np.ndarray, Any]], slope: float | None = None,
    s_circle: float | None = None, w_circle: float | None = None,
    target: TorusTarget | None = None, residue: dict[str, int] | None = None,
    alpha_ref: float | None = None,
) -> PairSequence:
    """SF-1, DF-1, SF-3, DF-2.1, DF-3.1, DF-3.2: k runs over r + q*kp
    (k_class) inside the window; `aim` takes these ks in ascending order,
    keeps the ones that qualify and gives the t* each aims at (one number
    or one per k), and m is the integer of its class m_class nearest t* +
    theta*k.  With `slope` set, eps bounds |B_km| and the coarse gap on t
    is 2*eps/slope; without it eps bounds the torus distance, which also
    takes in the circle distances of k*omega1/2pi to s_circle and
    m*omega2/2pi to w_circle.
    """
    spec, theta = s.spec, s.moduli.theta
    r, q = k_class
    kp_lo = 0 if r >= 1 else 1
    kp_hi = (s.window.k_max - r) // q
    if kp_hi < kp_lo:
        raise WindowExhausted(f"{s.what}: empty k window", found=0)
    ks, t_star = aim(np.arange(r + q * kp_lo, r + q * kp_hi + 1, q, dtype=np.int64))
    ideal = t_star + theta * ks
    r, q = m_class
    ms = r + q * np.round((ideal - r) / q).astype(np.int64)
    if spec.is_saddle_focus:
        dist = np.abs(ms - ideal)
    else:
        dist = np.abs((ms - theta * ks) - t_star)
    if s_circle is not None:
        dist = np.maximum(dist, _circle_gap(ks * (spec.omega1 / TWO_PI), s_circle))
    if w_circle is not None:
        dist = np.maximum(dist, _circle_gap(ms * (spec.omega2 / TWO_PI), w_circle))
    ok = (ms >= 1) & (ms <= s.window.m_max)
    if slope is None:
        kept, best = _funnel(spec, ks[ok], ms[ok], dist[ok], s.eps, None, False, s.limit)
    else:
        threshold = 2.0 * s.eps / slope + 1e-12
        kept, best = _funnel(spec, ks[ok], ms[ok], dist[ok], threshold, s.eps, True, s.limit)
    return _assemble(s, kept, best, target, residue, alpha_ref)


def _band_aim(
    spec: CycleSpec, lo: float, hi: float, num: float, den: float, c: float, sign_c: float,
    log_gamma: float,
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The ks whose band value |num*sin(k*omega1 + eta1) / (den*sin2)| lies in
    [lo, hi] and whose B-profile gamma^t*den*sin2 - c crosses zero
    (sign_c*sin2 > 0), with the crossing t* of each; sin2 = sin(k*omega1 + eta2).

    The float64 test runs only on the ks whose phase bin `_band_table`
    marks, which hold every k it keeps.  It runs on every k when no table
    is built, and on a window no longer than the table, which costs less
    to test in full than the table costs to build."""
    def aim(ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if ks.size > 1 << _TABLE_BITS:
            k_max = max(-int(ks[0]), int(ks[-1]))  # the ks ascend
            table = _band_table(spec, lo, hi, num, den, sign_c, k_max)
            if table is not None:
                bins = _phases(ks, spec.omega1)
                bins >>= np.uint64(64 - _TABLE_BITS)
                ks = ks[table[bins.view(np.int64)]]
        ang = ks * spec.omega1
        s2 = np.sin(ang + spec.eta2)
        sign = np.flatnonzero((sign_c * s2 > 0.0) & (np.abs(s2) > ZERO_TOL))
        ks, ang, s2 = ks[sign], ang[sign], s2[sign]
        with np.errstate(divide="ignore", invalid="ignore"):
            alphas = np.abs(num * np.sin(ang + spec.eta1) / (den * s2))
        good = (alphas >= lo) & (alphas <= hi)
        return ks[good], np.log(c / (den * s2[good])) / log_gamma
    return aim


def _sf_residue_block(s: _Search) -> PairSequence:
    """SF-1: the residue r of k mod q picked by check_A1."""
    spec = s.spec
    pq = s.moduli.rational("omega1")
    q, p = pq.denominator, pq.numerator
    wit = _pick_witness(s.residues(), s.kind, "SF-1", s.residue_rank)
    t_star = residue_tstar(spec, wit.r)
    return _lattice(
        s, (wit.r, q), (0, sign_period(spec)), lambda ks: (ks, t_star),
        slope=abs(spec.b_coef * spec.u_scalar) * math.log(abs(spec.gamma)),
        residue={"r": wit.r, "q": q, "p": p}, alpha_ref=wit.alpha,
    )


def _df_residue_block(s: _Search) -> PairSequence:
    """DF-1: the residue pair (r1, r2) picked by check_A2, aiming at its
    horizontal line."""
    spec = s.spec
    f1, f2 = s.moduli.rational("omega1"), s.moduli.rational("omega2")
    q1, p1 = f1.denominator, f1.numerator
    q2, p2 = f2.denominator, f2.numerator
    wit = _pick_witness(s.residues(), s.kind, "DF-1", s.residue_rank)
    r1, r2 = wit.r, wit.r2 or 0
    s_star = frac(r1 * p1 / q1)
    w_star = frac(r2 * p2 / q2)
    t_star = _df_target_tstar(spec, s_star, w_star)
    return _lattice(
        s, (r1, q1), (r2, q2), lambda ks: (ks, t_star),
        target=TorusTarget.horizontal_line(s_star, w_star),
        residue={"r1": r1, "r2": r2, "q1": q1, "p1": p1, "q2": q2, "p2": p2},
        alpha_ref=wit.alpha,
    )


def _sf_band_block(s: _Search) -> PairSequence:
    """SF-3: every k whose band value lies in the requested band."""
    spec = s.spec
    kind, lo, hi = s.band_limits()
    bu = spec.b_coef * spec.u_scalar
    lg = math.log(abs(spec.gamma))
    mid = 0.5 * (lo + hi)
    return _lattice(
        s, (0, 1), (0, sign_period(spec)),
        _band_aim(spec, lo, hi, bu * spec.A_coef, spec.B_coef, bu, bu, lg),
        slope=abs(bu) * lg, alpha_ref=mid if kind == "cs" else -mid,
    )


def _df_band_block(s: _Search) -> PairSequence:
    """DF-2.1: SF-3 on the plane w = w* of the m-residue with the largest
    admissibility margins."""
    spec = s.spec
    _, lo, hi = s.band_limits()
    f2 = s.moduli.rational("omega2")
    q2, p2 = f2.denominator, f2.numerator
    residues = _m_residues(spec, [(r2, TWO_PI * r2 * p2 / q2) for r2 in range(q2)])
    if not residues:
        raise WindowExhausted("DF-2.1: no admissible m-residue", found=0)
    r2 = max(residues, key=lambda t: t[3])[0]
    w_star = frac(r2 * p2 / q2)
    wa, wb, xi = df_wave_coeffs(spec, TWO_PI * w_star)
    lg = math.log(spec.gamma)
    return _lattice(
        s, (0, 1), (r2, q2), _band_aim(spec, lo, hi, xi * wa, wb, xi, xi * wb, lg),
        slope=max(abs(xi) * lg, 1e-9), target=TorusTarget.plane(w_star=w_star),
        residue={"r2": r2, "q2": q2, "p2": p2},
    )


def _df_grid_block(s: _Search) -> PairSequence:
    """DF-3.1: the (s*, w*) grid point with the healthiest margins in the
    requested band; ks are prefiltered on their circle distance to s*."""
    spec = s.spec
    _, lo, hi = s.band_limits()
    best_t: tuple[float, float, float] | None = None  # margin, s*, w*
    for w_grid in np.linspace(0.0, 1.0, 37, endpoint=False):
        w_star = float(w_grid)
        try:
            _, wb, xi = df_wave_coeffs(spec, TWO_PI * w_star)
        except PoleError:
            continue
        if quant_margin(spec, TWO_PI * w_star) <= quant_bound(spec.delta):
            continue
        for s_grid in np.linspace(0.0, 1.0, 73, endpoint=False):
            s_star = float(s_grid)
            s2 = math.sin(TWO_PI * s_star + spec.eta2)
            if xi * wb * s2 <= 0.0:
                continue
            a = alpha_df(spec, TWO_PI * s_star, TWO_PI * w_star)
            if not (math.isfinite(a) and lo <= abs(a) <= hi):
                continue
            margin = min(abs(abs(a) - 1.0), abs(xi * wb * s2))
            if best_t is None or margin > best_t[0]:
                best_t = (margin, s_star, w_star)
    if best_t is None:
        raise WindowExhausted("DF-3.1: no admissible target point", found=0)
    _, s_star, w_star = best_t
    t_star = _df_target_tstar(spec, s_star, w_star)
    return _lattice(
        s, (0, 1), (0, 1), lambda ks: (_gap_within(ks, spec.omega1, s_star, s.eps), t_star),
        s_circle=s_star, w_circle=w_star, target=TorusTarget.horizontal_line(s_star, w_star),
    )


def _df_plane_block(s: _Search) -> PairSequence:
    """DF-3.2: a target point on the plane of the 4-term relation, found by
    a grid in s and a root in t; k and m run over the relation's lattice."""
    spec = s.spec
    _, lo, hi = s.band_limits()
    pq1, pq2, pq3 = _relation(s, ("theta", "omega1", "theta_omega2", "one"), "theta_omega2")
    a_pl = float(pq1) - spec.omega2 / TWO_PI
    b_pl = float(pq2)
    lg = math.log(spec.gamma)
    best_t: tuple[float, float, float] | None = None  # margin, t*, s*
    for s_grid in np.linspace(0.0, 1.0, 73, endpoint=False):
        s_star = float(s_grid)

        def h_plane(t: float, _s: float = s_star) -> float:
            try:
                _, wb, xi = df_wave_coeffs(spec, TWO_PI * (a_pl * t + b_pl * _s))
            except PoleError:
                return math.nan
            return math.exp(t * lg) * wb * math.sin(TWO_PI * _s + spec.eta2) - xi

        for t0 in _root_scan(h_plane, -6.0, 6.0, 1024):
            w0 = frac(a_pl * t0 + b_pl * s_star)
            if quant_margin(spec, TWO_PI * w0) <= quant_bound(spec.delta):
                continue
            a = alpha_df(spec, TWO_PI * s_star, TWO_PI * w0)
            if not (math.isfinite(a) and lo <= abs(a) <= hi):
                continue
            margin = abs(abs(a) - 1.0)
            if best_t is None or margin > best_t[0]:
                best_t = (margin, t0, s_star)
    if best_t is None:
        raise WindowExhausted("DF-3.2: no admissible target point on the plane", found=0)
    _, t_star, s_star = best_t
    return _lattice(
        s, (0, pq3.denominator), (0, pq1.denominator), lambda ks: (ks, t_star),
        s_circle=s_star, target=TorusTarget.plane(a=a_pl, b=b_pl),
    )


# -- line-profile lattice -------------------------------------------------------

@dataclass(frozen=True)
class _Profile:
    """One line profile h(s) of a line-profile case: its roots with an
    expanding band value alpha(s) are the target points s0."""

    h: Callable[[float], float]
    alpha: Callable[[float], float]
    target: TorusTarget | None
    residue: dict[str, int]
    m0: int = 0  # m offset of the lattice
    w: float | None = None  # the profile's fixed w, measured into the distance


#: the (k, m) candidates of a root s0 of a profile, with their distances
_LineLattice = Callable[[float, _Profile], tuple[np.ndarray, np.ndarray, np.ndarray]]


def _line_lattice(
    s: _Search, profiles: list[_Profile], lattice: _LineLattice, n_scan: int = 4096,
    per_profile: int = 6, w_of: Callable[[float], float] | None = None,
    bound_b: bool = True, best_of_b: bool = False, floor: float = 0.0,
) -> PairSequence:
    """SF-2, DF-2.2, DF-3.3.x: the best expanding roots of one profile, each
    with a (k, m) lattice whose torus points approach it.

    Each profile's root scan takes n_scan points over |s| <= SCAN_HALFWIDTH
    and gives at most per_profile expanding roots; w_of(s0), when set, drops
    roots whose w fails the denominator margin.  lattice(s0, profile) gives
    the candidates of a root.  eps bounds |B_km| when bound_b, and the
    coarse gap is at least `floor`.
    """
    spec, hw = s.spec, SCAN_HALFWIDTH
    roots: list[tuple[float, int, float, float]] = []  # score, profile, s0, alpha
    for i, prof in enumerate(profiles):
        found = _root_scan(prof.h, -hw, hw, n_scan)
        for score, s0, a in _expanding_roots(found, prof.alpha, limit=per_profile):
            if w_of is not None and (
                quant_margin(spec, TWO_PI * w_of(s0)) <= quant_bound(spec.delta)
            ):
                continue
            roots.append((score, i, s0, a))
    if not roots:
        raise WindowExhausted(
            f"{s.what}: no root of the line profile with an expanding band in |s| <= {hw}",
            found=0,
        )
    roots.sort(key=lambda t: t[0])
    # all pairs come from one target line, i.e. one profile
    ref = roots[0][1]
    prof = profiles[ref]
    parts = []
    for _, _, s0, _ in [t for t in roots if t[1] == ref][:6]:
        ks, ms, dist = lattice(s0, prof)
        good = (ms >= 1) & (ms <= s.window.m_max)
        accept = max(_slope_radius(prof.h, s0, s.eps), floor)
        parts.append((ks[good], ms[good], dist[good], np.full(int(good.sum()), accept)))
    ks, ms, dist, threshold = (np.concatenate(c) for c in zip(*parts))
    kept, best = _funnel(
        spec, ks, ms, dist, threshold, s.eps if bound_b else None, best_of_b, s.limit,
        expanding=True,
    )
    return _assemble(s, kept, best, prof.target, prof.residue, roots[0][3])


def _line_profile(
    spec: CycleSpec, log_gamma: float, slope: float, waves: Callable[[float], tuple[float, float]],
    m0: int = 0,
) -> Callable[[float], float]:
    """B-profile along a target line: gamma^(m0 - slope*x) * wb * sin(2*pi*x +
    eta2) - xi, with (wb, xi) = waves(x)."""
    def h(x: float) -> float:
        wb, xi = waves(x)
        return math.exp((m0 - slope * x) * log_gamma) * wb * math.sin(TWO_PI * x + spec.eta2) - xi
    return h


def _df_waves(spec: CycleSpec, angle: float) -> tuple[float, float]:
    """(B, xi) of the double-focus wave coefficients; NaN at a pole."""
    try:
        return df_wave_coeffs(spec, angle)[1:]
    except PoleError:
        return math.nan, math.nan


def _df_line_lattice(s: _Search, lattice_k: int, den: int, a: int, b: int) -> _LineLattice:
    """k = lattice_k*kp; the integer ip puts sigma = k*omega1/2pi - den*ip
    next to s0, and m = m0 + a*kp + b*ip."""
    kp = np.arange(1, s.window.k_max // lattice_k + 1, dtype=np.int64)
    w_hat = s.spec.omega1 / TWO_PI
    w2_hat = s.spec.omega2 / TWO_PI

    def lattice(s0: float, prof: _Profile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ip = np.round((lattice_k * kp * w_hat - s0) / den).astype(np.int64)
        sigma = lattice_k * kp * w_hat - den * ip
        ms = prof.m0 + a * kp + b * ip
        dist = np.abs(sigma - s0)
        if prof.w is not None:
            dist = np.maximum(dist, _circle_gap(ms * w2_hat, prof.w))
        return lattice_k * kp, ms, dist
    return lattice


def _sf_line_block(s: _Search) -> PairSequence:
    """SF-2: the line t = -(p/q)*s of the theta relation."""
    spec = s.spec
    pq, pq2 = _theta_relation(s)
    p, q = pq.numerator, pq.denominator
    pp, qp = pq2.numerator, pq2.denominator
    bu = spec.b_coef * spec.u_scalar
    h_line = _line_profile(spec, math.log(abs(spec.gamma)), p / q, lambda x: (spec.B_coef, bu))
    step = sign_period(spec)
    qqp = q * qp
    kp = np.arange(1, s.window.k_max // (qqp * step) + 1, dtype=np.int64) * step
    w_hat = spec.omega1 / TWO_PI

    def lattice(s0: float, prof: _Profile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ls = (step * np.round((kp * w_hat - s0 / qqp) / step)).astype(np.int64)
        sigma = qqp * (kp * w_hat - ls)
        return qqp * kp, pp * q * kp + p * qp * ls, np.abs(sigma - s0)

    prof = _Profile(h_line, lambda x: alpha_sf(spec, TWO_PI * x), None,
                    {"q": q, "p": p, "qp": qp, "pp": pp})
    return _line_lattice(s, [prof], lattice, best_of_b=True)


def _df_tilted_block(s: _Search) -> PairSequence:
    """DF-2.2: one tilted line per admissible m-residue r2."""
    spec = s.spec
    p1, q1, p2, q2 = _tilted_relation(s)
    f3 = s.moduli.rational("omega2")
    q3, p3 = f3.denominator, f3.numerator
    lg = math.log(spec.gamma)
    profiles = []
    for r2, _, _, _ in _m_residues(spec, [(r2, TWO_PI * r2 * p3 / q3) for r2 in range(q3)]):
        w_star = frac(r2 * p3 / q3)
        wave = _df_waves(spec, TWO_PI * w_star)
        profiles.append(_Profile(
            _line_profile(spec, lg, p1 / q1, lambda x, _c=wave: _c, m0=r2),
            lambda x, _w=w_star: alpha_df(spec, TWO_PI * x, TWO_PI * _w),
            TorusTarget.tilted_line(a1=-p1 / q1, b=float(r2), w_star=w_star),
            {"r2": r2, "q1": q1, "p1": p1, "q2": q2, "p2": p2, "q3": q3, "p3": p3}, m0=r2,
        ))
    if not profiles:
        raise WindowExhausted("DF-2.2: no admissible m-residue", found=0)
    return _line_lattice(s, profiles, _df_line_lattice(s, q2 * q3, q1 * q3, p2 * q3, p1 * q3))


def _df_line_block(s: _Search) -> PairSequence:
    """DF-3.3.1: the line of both relations, w moving with s."""
    spec = s.spec
    p1, q1, p2, q2 = _tilted_relation(s)
    lg = math.log(spec.gamma)
    residue = {"q1": q1, "p1": p1, "q2": q2, "p2": p2}
    pq3, pq4 = _relation(s, ("omega1", "theta_omega2", "one"), "theta_omega2")
    a_line = float(pq3) - spec.omega2 / TWO_PI * (p1 / q1)
    prof = _Profile(
        _line_profile(spec, lg, p1 / q1, lambda x: _df_waves(spec, TWO_PI * (a_line * x))),
        lambda x: alpha_df(spec, TWO_PI * x, TWO_PI * frac(a_line * x)),
        TorusTarget.tilted_line(a1=-p1 / q1, b=0.0, a2=a_line), residue,
    )
    lattice = _df_line_lattice(s, q2 * pq4.denominator, q1 * pq3.denominator,
                               p2 * pq4.denominator, p1 * pq3.denominator)
    return _line_lattice(s, [prof], lattice, per_profile=12, w_of=lambda x: frac(a_line * x))


def _df_slice_block(s: _Search) -> PairSequence:
    """DF-3.3.2: w is free on the line plane; one profile per horizontal w slice."""
    spec = s.spec
    p1, q1, p2, q2 = _tilted_relation(s)
    lg = math.log(spec.gamma)
    residue = {"q1": q1, "p1": p1, "q2": q2, "p2": p2}
    profiles = [
        _Profile(
            _line_profile(spec, lg, p1 / q1, lambda x, _c=_df_waves(spec, TWO_PI * w): _c),
            lambda x, _w=w: alpha_df(spec, TWO_PI * x, TWO_PI * _w),
            TorusTarget.tilted_line(a1=-p1 / q1, b=0.0, w_star=w), residue, w=w,
        )
        for w in map(float, np.linspace(0.0, 1.0, 41, endpoint=False))
        if quant_margin(spec, TWO_PI * w) > quant_bound(spec.delta)
    ]
    return _line_lattice(s, profiles, _df_line_lattice(s, q2, q1, p2, p1), n_scan=2048,
                         per_profile=2, bound_b=False, floor=s.eps)


# ---------------------------------------------------------------------------
# The case table and the entry point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaseInfo:
    """A searched case tag and what the source paper's theorem for that tag
    states; its blenders are those of Bonatti-Diaz (Ann. of Math. 143, 1996).

    `block` runs the search on the parameter block that the theorem's
    hypotheses declare in the moduli, for a `cycle_type` cycle.  `kinds` are
    the blenders the theorem yields, certified in this order: (None,), one
    on the side the residue band picks (the SF-1 and DF-1 theorems, whose
    residue the pipeline may take from the best `ranks` = 8); ("cs", "cu"),
    two activating each other (SF-3, DF-2.1, DF-3.1, DF-3.2); ("cu",), one
    related to the second orbit (SF-2, DF-2.2, DF-3.3.x).  `note` is that
    conclusion in words, and `mu0_edges` the relations among L1, L2 and the
    blenders the theorem gives without unfolding, in report order.  The
    DF-2.x theorems also cover the `mirrored` arithmetic (omega1 rational,
    omega2 irrational) through the inverse cycle, which is not searched.
    """

    block: Callable[[_Search], PairSequence]
    cycle_type: CycleType
    kinds: tuple[str | None, ...]
    ranks: int
    note: str
    mu0_edges: tuple[_Edge, ...]
    mirrored: bool = False


#: kinds, ranks and note of the residue, band and line cases' conclusions
_RESIDUE = ((None,), 8, "one blender; side decided by the residue band")
_BAND = (("cs", "cu"), 1, "cs- and cu-blenders activating each other")
_LINE = (("cu",), 1, "cu-blender related to the second orbit")
#: a relation at mu = 0: the certificate kinds it needs, then src, dst, kind, note
_Edge = tuple[tuple[str, ...], str, str, str, str]
_CU_L2: _Edge = (("cu",), "cu", "L2", "homoclinic", "irrational rotation supplies the crossing")
_BAND_EDGES: tuple[_Edge, ...] = (
    _CU_L2,
    (("cs", "cu"), "cu", "cs", "activates", ""),
    (("cs", "cu"), "cs", "cu", "activates", ""),
    (("cs", "cu"), "L2", "cs", "activates", "via the cu set related to L2"),
)
_CS_L1: _Edge = (("cs",), "cs", "L1", "homoclinic", "")
_L1_CU: _Edge = (("cu",), "L1", "cu", "activates", "")
_SF, _DF = CycleType.SADDLE_FOCUS, CycleType.DOUBLE_FOCUS

#: every case tag with a pair search
CASES: dict[CaseTag, CaseInfo] = {
    CaseTag.SF_1: CaseInfo(_sf_residue_block, _SF, *_RESIDUE, ()),
    CaseTag.SF_2: CaseInfo(_sf_line_block, _SF, *_LINE, (_CU_L2,)),
    CaseTag.SF_3: CaseInfo(_sf_band_block, _SF, *_BAND, _BAND_EDGES),
    CaseTag.DF_1: CaseInfo(_df_residue_block, _DF, *_RESIDUE, ()),
    CaseTag.DF_2_1: CaseInfo(_df_band_block, _DF, *_BAND, _BAND_EDGES, mirrored=True),
    CaseTag.DF_2_2: CaseInfo(_df_tilted_block, _DF, *_LINE, (_CU_L2,), mirrored=True),
    CaseTag.DF_3_1: CaseInfo(_df_grid_block, _DF, *_BAND, (*_BAND_EDGES, _CS_L1)),
    CaseTag.DF_3_2: CaseInfo(_df_plane_block, _DF, *_BAND, (*_BAND_EDGES, _CS_L1)),
    CaseTag.DF_3_3_1: CaseInfo(_df_line_block, _DF, *_LINE, (_CU_L2, _L1_CU)),
    CaseTag.DF_3_3_2: CaseInfo(_df_slice_block, _DF, *_LINE, (_CU_L2, _L1_CU)),
}


def residue_witnesses(
    spec: CycleSpec, moduli: Moduli, case: CaseTag
) -> list[ResidueWitness] | None:
    """The residues that the SF-1 search (`check_A1`) or the DF-1 search
    (`check_A2`) picks from, at the moduli's rational angles; None for the
    other cases."""
    if case is CaseTag.SF_1:
        f = moduli.rational("omega1")
        return check_A1(spec, f.denominator, f.numerator)
    if case is CaseTag.DF_1:
        f1, f2 = moduli.rational("omega1"), moduli.rational("omega2")
        return check_A2(spec, f1.denominator, f1.numerator, f2.denominator, f2.numerator)
    return None


def case_info(case: CaseTag) -> CaseInfo:
    """The table entry of a case tag; NotApplicable if it has no pair search."""
    if case not in CASES:
        raise NotApplicable(f"no pair search for case {case.value}")
    return CASES[case]


def search_pairs(
    spec: CycleSpec,
    moduli: Moduli,
    case: CaseTag,
    eps: float = 1e-3,
    window: SearchWindow | None = None,
    kind: str | None = None,
    min_pairs: int = 1,
    residue_rank: int = 0,
    witnesses: Sequence[ResidueWitness] | None = None,
) -> PairSequence:
    """Run the case-specific pair search.

    `kind` requests the contraction side for cases producing both blenders
    ("cs" or "cu"); single-sided cases reject the impossible request.
    `residue_rank` skips to a lower-ranked admissible residue in the
    residue-class cases, which pick from `witnesses` when the caller has
    them (as `residue_witnesses` gives them) and compute them otherwise.
    The request is checked first, in this order: `kind` is cs, cu or None
    (DomainError); the case has a pair search, its tag fits the spec's
    cycle type, the arithmetic is not mirrored, and the case yields `kind`
    (NotApplicable).

    eps = inf runs the case's own kernel, on the same lattice, side and
    residue, with no bound on |B_km| or on the torus distance: it keeps the
    first max(min_pairs, 1) distinct admissible pairs in (k, m) order and
    evaluates no candidate past them.
    """
    s = _Search(spec, moduli, case, eps, window or SearchWindow(), kind, min_pairs, residue_rank,
                witnesses)
    if kind not in (None, "cs", "cu"):
        raise DomainError("kind must be 'cs', 'cu', or None")
    info = case_info(case)
    if spec.cycle_type is not info.cycle_type:
        raise NotApplicable(f"{info.cycle_type.value.replace('_', '-')} case tag with a "
                            f"{spec.cycle_type.value.replace('_', '-')} spec")
    if info.mirrored and moduli.is_rational("omega1") and not moduli.is_rational("omega2"):
        raise NotApplicable(
            "mirrored double-focus search (omega1 rational, omega2 irrational) "
            "requires the inverse-cycle return maps"
        )
    if kind is not None and None not in info.kinds and kind not in info.kinds:
        raise NotApplicable(f"{case.value} guarantees only a {info.kinds[0]} band")
    return info.block(s)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def pair_sequence_csv_rows(seq: PairSequence) -> Iterable[tuple]:
    yield ("k", "m", "t", "s", "w", "A_km", "B_km")
    for (k, m), (t, s, w), a, b in zip(seq.pairs, seq.target_values, seq.A_values, seq.B_values):
        yield (k, m, t, s, w, a, b)
