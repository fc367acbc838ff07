"""Splitting-parameter windows in which the iterated invariant manifolds
cross the activating cube, and parameter sequences realizing robust
heterodimensional dynamics.

Window centers and radii follow the residue formulas of the unfolding
analysis, with the trigonometric factors evaluated at k*omega + eta like
every other coefficient formula.  The source displays disagree on the sign
of the s-window center; it is taken "matched", +lambda^k*b^-1*B*sin(.), the
one orientation under which the u- and s-windows share a mu-axis
direction, the gap identity of `gap_crosscheck` is exact, and the windows
can intersect at the pairs produced by the residue search.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Any, Sequence

from .arithmetic import CASES, ResidueWitness, SearchWindow, check_A1, residue_tstar
from .blender_certifier import BlenderCertificate, _pull_back
from .cycle_model import CaseTag, CycleSpec, Moduli
from .errors import DomainError, NotApplicable, OutsideWindows, WindowExhausted
from .return_map import power_sign, power_term, sign_period

log = logging.getLogger(__name__)

EXP_FLOOR = -640.0  # keep gamma^-m and lambda^k comfortably above underflow
#: pullback depth of the crossings that `homoclinic_report` simulates
CROSSING_DEPTH = 10


@dataclass(frozen=True)
class MuWindow:
    kind: str          # "u_manifold" | "s_manifold"
    index: int         # m for u-kind, k for s-kind
    center: float
    radius: float
    degenerate: bool = False

    @property
    def lo(self) -> float:
        return self.center - self.radius

    @property
    def hi(self) -> float:
        return self.center + self.radius

    def contains(self, mu: float) -> bool:
        return self.lo <= mu <= self.hi


def window_u(spec: CycleSpec, m: int, q: int) -> MuWindow:
    """Window of mu values re-creating the fragile connection after m turns."""
    if m < 1:
        raise DomainError("m must be >= 1")
    if not spec.is_saddle_focus:
        raise NotApplicable("mu windows are computed for saddle_focus cycles")
    log_g = -m * math.log(abs(spec.gamma))
    if log_g < EXP_FLOOR:
        raise DomainError("gamma^-m underflows; reduce m")
    mag = math.exp(log_g)
    center = power_sign(spec, m) * mag * spec.u_scalar
    radius = mag / abs(spec.b_coef) * q * spec.delta / 2.0
    return MuWindow("u_manifold", m, center, radius)


def window_s(spec: CycleSpec, k: int, q: int) -> MuWindow:
    """Window of mu values for which the pulled-back strong-stable disc
    crosses the activating cube, centred at lambda^k*b^-1*B*sin(k*omega +
    eta2).  Degenerate residues (vanishing radius factor) are flagged."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if not spec.is_saddle_focus:
        raise NotApplicable("mu windows are computed for saddle_focus cycles")
    angle = k * spec.omega1
    log_l = k * math.log(spec.lam)
    if log_l < EXP_FLOOR:
        raise DomainError("lambda^k underflows; reduce k")
    lam_k = math.exp(log_l)
    s2 = math.sin(angle + spec.eta2)
    s1 = math.sin(angle + spec.eta1)
    center = lam_k / spec.b_coef * spec.B_coef * s2
    radius = abs(lam_k * spec.A_coef * s1) * q * spec.delta / 2.0
    return MuWindow("s_manifold", k, center, radius, degenerate=(abs(s1) < 1e-12))


def normalized_gap(spec: CycleSpec, wu: MuWindow, ws: MuWindow, q: int) -> float:
    """|c_u - c_s| normalized by the u-window scale |gamma^-m b^-1| q delta / 2."""
    scale = wu.radius  # == |gamma^-m b^-1| q delta / 2
    return abs(wu.center - ws.center) / scale if scale > 0 else math.inf


def gap_crosscheck(spec: CycleSpec, k: int, m: int, q: int) -> float:
    """The same gap evaluated through the coefficient identity,
    2|lambda^k gamma^m b^-1 B sin(k omega + eta2) - u^-| / (|b^-1| q delta)."""
    s2 = math.sin(k * spec.omega1 + spec.eta2)
    num = abs(power_term(spec, k, m) / spec.b_coef * spec.B_coef * s2 - spec.u_scalar)
    return 2.0 * num / (q * spec.delta / abs(spec.b_coef))


@dataclass(frozen=True)
class MuPoint:
    k: int
    m: int
    mu: float
    window_u: MuWindow
    window_s: MuWindow
    gap: float
    gap_check: float


def find_mu_sequence(
    spec: CycleSpec,
    moduli: Moduli,
    window_count: int,
    window: SearchWindow | None = None,
    witnesses: Sequence[ResidueWitness] | None = None,
) -> list[MuPoint]:
    """Locate pairs whose u- and s-windows intersect and report the
    intersection midpoints, with strictly decreasing normalized gap.

    Returns every record-gap pair in the safe index range (at least
    window_count of them, else WindowExhausted), so the decay of the gap
    toward zero is visible across the whole sequence.  Requires theta
    declared irrational and omega/2pi = p/q rational; uses the residue from
    the sign/band condition scan (`witnesses`, when the caller has them,
    else `check_A1`).  Degenerate residues are skipped with a notice.
    """
    if not spec.is_saddle_focus:
        raise NotApplicable("mu-sequence search handles saddle_focus cycles")
    if moduli.is_rational("theta"):
        raise NotApplicable("mu-sequence search needs irrational theta (declared)")
    if not moduli.is_rational("omega1"):
        raise NotApplicable("mu-sequence search needs rational omega/2pi")
    if window_count == 0:
        return []
    pq = moduli.rational("omega1")
    q, p = pq.denominator, pq.numerator
    wits = check_A1(spec, q, p) if witnesses is None else witnesses
    if not wits:
        raise WindowExhausted("no admissible residue", found=0)
    wit = wits[0]
    r = wit.r
    if abs(math.sin(r * spec.omega1 + spec.eta1)) == 0.0:
        log.info("residue %d degenerate (vanishing radius); skipping", r)

    theta = moduli.theta
    log_g = math.log(abs(spec.gamma))
    t_star = residue_tstar(spec, r)
    step = sign_period(spec)

    m_cap = int((-EXP_FLOOR - 10.0) / log_g)
    k_cap = int((-EXP_FLOOR - 10.0) / (-math.log(spec.lam)))
    window = window or SearchWindow()
    k_max = min(window.k_max, k_cap, max(1, int((m_cap - t_star) / theta)))

    points: list[MuPoint] = []
    best_gap = math.inf
    kp = 0
    while True:
        kp += 1
        k = r + q * kp
        if k > k_max:
            break
        ideal = t_star + theta * k
        m = step * round(ideal / step)
        if m < 1 or m > min(window.m_max, m_cap):
            continue
        ws = window_s(spec, k, q)
        if ws.degenerate:
            log.info("skipping degenerate s-window at k=%d", k)
            continue
        wu = window_u(spec, m, q)
        if wu.lo > ws.hi or ws.lo > wu.hi:
            continue
        gap = normalized_gap(spec, wu, ws, q)
        if gap >= best_gap:
            continue
        lo = max(wu.lo, ws.lo)
        hi = min(wu.hi, ws.hi)
        mu = 0.5 * (lo + hi)
        points.append(MuPoint(
            k=k, m=int(m), mu=mu, window_u=wu, window_s=ws,
            gap=gap, gap_check=gap_crosscheck(spec, k, int(m), q),
        ))
        best_gap = gap
    if len(points) < window_count:
        raise WindowExhausted(
            f"found {len(points)} intersecting windows of {window_count} requested",
            best_distance=best_gap,
            found=len(points),
        )
    return points


# ---------------------------------------------------------------------------
# Relation reports
# ---------------------------------------------------------------------------

NODES = ("L1", "L2", "cs", "cu", "aux_set")


@dataclass(frozen=True)
class RelationEdge:
    src: str
    dst: str
    kind: str               # "homoclinic" | "activates"
    verified: bool | None    # None: asserted by the case, not simulated
    note: str = ""


@dataclass(frozen=True)
class RelationReport:
    mu: float
    case: CaseTag
    edges: tuple[RelationEdge, ...]
    window_u_hit: MuWindow | None = None
    window_s_hit: MuWindow | None = None

    def to_json_dict(self) -> dict[str, Any]:
        return {**vars(self), "nodes": NODES}


def _find_window_hits(
    spec: CycleSpec, mu: float, q: int
) -> tuple[MuWindow | None, MuWindow | None]:
    """Windows containing mu, located by inverting the center magnitudes."""
    hit_u = hit_s = None
    log_g = math.log(abs(spec.gamma))
    if mu != 0.0 and (spec.gamma < 0 or mu * spec.u_scalar > 0):
        m_est = math.log(abs(spec.u_scalar / mu)) / log_g
        for m in range(max(1, math.floor(m_est) - 3), math.ceil(m_est) + 4):
            try:
                w = window_u(spec, m, q)
            except DomainError:
                continue
            if w.contains(mu):
                hit_u = w
                break
    if mu != 0.0:
        lam_l = math.log(spec.lam)
        for r in range(q):
            c1 = spec.B_coef * math.sin(r * spec.omega1 + spec.eta2) / spec.b_coef
            if c1 == 0.0 or mu * c1 <= 0.0:
                continue
            k_est = math.log(mu / c1) / lam_l
            k_base = round((k_est - r) / q)
            for dk in (-2, -1, 0, 1, 2):
                k = r + q * (k_base + dk)
                if k < 1:
                    continue
                try:
                    w = window_s(spec, k, q)
                except DomainError:
                    continue
                if not w.degenerate and w.contains(mu):
                    hit_s = w
                    break
            if hit_s is not None:
                break
    return hit_u, hit_s


def _simulate_crossing(
    cert: BlenderCertificate, x_offset: float, seed: int
) -> tuple[bool, str]:
    discs = _pull_back(cert, seed, [0], CROSSING_DEPTH, x_centers=[cert.x_center + x_offset])
    return discs.fail_steps[0] is None, discs.notes[0]


def homoclinic_report(
    spec: CycleSpec,
    mu: float,
    certs: Sequence[BlenderCertificate],
    moduli: Moduli,
    case: CaseTag,
    seed: int = 0,
) -> RelationReport:
    """Relations among {L1, L2, blenders, auxiliary hyperbolic sets} realized
    at the splitting value mu, per the active case.

    At mu = 0 the report lists the relations the case provides without
    unfolding.  At mu != 0 the value must lie inside at least one manifold
    window; crossings into a certificate's activating pair are verified by
    running its covering chain on the positioned manifold disc.
    """
    cs = next((c for c in certs if c.blender_kind == "cs"), None)
    cu = next((c for c in certs if c.blender_kind == "cu"), None)
    edges: list[RelationEdge] = []

    if mu == 0.0:
        blenders = {"cs": cs, "cu": cu}
        for needs, src, dst, kind, note in CASES[case].mu0_edges if case in CASES else ():
            if any(blenders[k] is None for k in needs):
                continue
            verified = None
            if src in blenders and dst in blenders:  # one blender activating the other
                a, b = blenders[src], blenders[dst]
                verified, _ = _simulate_crossing(
                    a, b.x_center - a.x_center, seed if src == "cs" else seed + 1)
            edges.append(RelationEdge(src, dst, kind, verified, note))
        if not edges:
            raise OutsideWindows(
                "mu = 0 provides no relations for this case (rational rotation)"
            )
        return RelationReport(mu=0.0, case=case, edges=tuple(edges))

    if not spec.is_saddle_focus:
        raise NotApplicable("unfolded relation reports cover saddle_focus cycles")
    pq = moduli.rational("omega1")
    q = pq.denominator
    hit_u, hit_s = _find_window_hits(spec, mu, q)
    if hit_u is None and hit_s is None:
        raise OutsideWindows(f"mu={mu!r} lies in no u- or s-window")

    if hit_u is not None:
        edges.append(RelationEdge("L1", "aux_set", "homoclinic", True,
                                  f"u-window at m={hit_u.index}"))
        if cu is not None:
            x_off = (mu - hit_u.center) / hit_u.radius * (q * spec.delta / 2.0)
            ok, note = _simulate_crossing(cu, x_off, seed)
            edges.append(RelationEdge("L1", "cu", "activates", ok, note))
            edges.append(RelationEdge("cu", "L2", "homoclinic", None,
                                      "stable-set intersection automatic in the cube"))
    if hit_s is not None:
        edges.append(RelationEdge("L2", "aux_set", "homoclinic", True,
                                  f"s-window at k={hit_s.index}"))
        if cs is not None:
            x_off = (mu - hit_s.center) / hit_s.radius * (q * spec.delta / 2.0)
            ok, note = _simulate_crossing(cs, x_off, seed + 1)
            edges.append(RelationEdge("L2", "cs", "activates", ok, note))
            edges.append(RelationEdge("cs", "L1", "homoclinic", None,
                                      "unstable-set intersection automatic in the cube"))
    return RelationReport(
        mu=mu, case=case, edges=tuple(edges),
        window_u_hit=hit_u, window_s_hit=hit_s,
    )
