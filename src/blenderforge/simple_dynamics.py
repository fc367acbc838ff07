"""Rational-moduli exclusion sets and the desk-scale two-pair scan.

With all moduli rational the powers lambda^k * gamma^m live on a discrete
set of magnitudes |gamma|^(s/q'), so two distinct return visits can balance
the same splitting value only if certain coefficient ratios land in
countable closed value sets.  `exclusion_sets` reports distances to the
truncated sets (closure limit points included explicitly), finding the
double-focus ones by sort-and-search over the family's two separable
factors and re-evaluating only the candidates, bit for bit; `brute_scan`
minimizes the two-pair residual over bounded index ranges, exactly over the
cube of positions (each term is affine in one cube variable, so the minimum
is 0 or sits at a vertex), and classifies any near-solutions found.

The scan residual is the two-pair balance normalized by its dominant term
magnitude; an absolute residual would fall below any fixed tolerance at
large indices for every coefficient choice, since all terms decay.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from .cycle_model import CycleSpec, Moduli, TWO_PI
from .errors import NotRational, PoleError
from .return_map import df_wave_coeffs

SCALE_FLOOR = 1e-300
INDEX_CAP = 40_000       # exact-evaluation cap on prefilter survivors
SOLUTION_CAP = 400       # reported near-solutions
ZERO_TOL = 1e-9          # sines and denominators below this count as zero
DISTANCE_TOL = 1e-3      # exclusion distance that `simple_verdict` requires


@dataclass(frozen=True)
class TruncationRanges:
    s_max: int = 200
    ell_max: int = 60
    n_max: int = 60


# ---------------------------------------------------------------------------
# Residue coefficient packs
# ---------------------------------------------------------------------------

def _sf_pack(spec: CycleSpec, q: int, p: int) -> dict[str, np.ndarray]:
    """Per-residue (a_r, x+_r) with a_r*b = A*sin(.+eta1), a_r*x+_r*b = B*sin(.+eta2)."""
    ang = np.arange(q) * TWO_PI * p / q
    s1 = np.sin(ang + spec.eta1)
    s2 = np.sin(ang + spec.eta2)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = spec.A_coef * s1 / spec.b_coef
        x_plus = spec.B_coef * s2 / (spec.A_coef * s1)
    return {"a": a, "x_plus": x_plus, "s1": s1, "s2": s2}


def _df_pack(spec: CycleSpec, q1: int, p1: int, q2: int, p2: int) -> dict[str, np.ndarray]:
    """Per-residue-pair coefficients of the double-focus two-pair equation.

    The splitting-value slope uses 2/cos(. + eta3); the auxiliary transition
    derivative it would carry is not part of the coefficient record and is
    taken as zero, which only rescales the eliminated parameter.
    """
    assert spec.eta3 is not None
    a = np.full((q1, q2), np.nan)
    b = np.full((q1, q2), np.nan)
    c = np.full(q2, np.nan)
    ell = np.full(q2, np.nan)
    for r2 in range(q2):
        w_ang = TWO_PI * r2 * p2 / q2
        try:
            wa, wb, xi = df_wave_coeffs(spec, w_ang)
        except PoleError:
            continue
        c[r2] = xi
        cosv = math.cos(w_ang + spec.eta3)
        ell[r2] = 2.0 / cosv if abs(cosv) > 1e-14 else np.nan
        for r1 in range(q1):
            s_ang = TWO_PI * r1 * p1 / q1
            a[r1, r2] = wa * math.sin(s_ang + spec.eta1)
            b[r1, r2] = wb * math.sin(s_ang + spec.eta2)
    return {"a": a, "b": b, "c": c, "ell": ell}


# ---------------------------------------------------------------------------
# Exclusion sets
# ---------------------------------------------------------------------------

def exclusion_elements(
    gamma: float,
    lam: float,
    q_prime: int,
    ratio: float,
    trunc: TruncationRanges,
) -> Iterator[tuple[int | None, int | None, int | None, float]]:
    """Enumerate each (s, ell, n) element of the exclusion family exactly once.

    ell = None and n = None are the closure terms lambda^inf = 0 and
    gamma^-inf = 0; the final (None, None, None) entry is the s -> -inf
    limit point 0.
    """
    g = abs(gamma)
    ells: list[int | None] = list(range(1, trunc.ell_max + 1)) + [None]
    ns: list[int | None] = list(range(1, trunc.n_max + 1)) + [None]
    for s in range(-trunc.s_max, trunc.s_max + 1):
        gs = g ** (s / q_prime)
        for ell in ells:
            lam_l = 0.0 if ell is None else lam ** ell
            num = ratio - lam_l
            for n in ns:
                gn = 0.0 if n is None else gamma ** (-n)
                val = gs * num / (1.0 - gn)
                if math.isfinite(val):
                    yield (s, ell, n, val)
    yield (None, None, None, 0.0)


def _powers(gamma: float, lam: float, trunc: TruncationRanges) -> tuple[np.ndarray, np.ndarray]:
    """(lam^ell for ell = 1..ell_max, inf; gamma^-n for n = 1..n_max, inf)."""
    lam_pows = np.concatenate((lam ** np.arange(1, trunc.ell_max + 1), [0.0]))
    gam_pows = np.concatenate((
        np.asarray(gamma, dtype=float) ** -np.arange(1, trunc.n_max + 1), [0.0]
    ))
    return lam_pows, gam_pows


def _sf_factors(gamma: float, lam: float, ratio, trunc: TruncationRanges) -> np.ndarray:
    """F(ell, n) = (ratio - lam^ell) / (1 - gamma^-n), closure terms included;
    one row per entry of `ratio`."""
    lam_pows, gam_pows = _powers(gamma, lam, trunc)
    ratio = np.atleast_1d(np.asarray(ratio, dtype=float))
    factors = (ratio[:, None, None] - lam_pows[None, :, None]) / (1.0 - gam_pows)[None, None, :]
    return factors.reshape(len(ratio), -1)


def _family_distances(targets, gamma: float, q_prime: int,
                      log_factors: np.ndarray, s_max: int) -> np.ndarray:
    """Row-wise min over s in [-s_max, s_max] and the factors F with
    log|F| = log_factors[i] of ||targets[i]| - |gamma|^(s/q') |F||, and
    |targets[i]| itself (the s -> -inf point 0).  Non-finite entries are
    not in the family.

    With h = log|gamma| / q' and z = log(|target| / |F|) / h, the value at s
    is |target| e^((s - z) h), so the best s is floor(z) or ceil(z) clamped
    into the range, and only the smallest exponent gaps below and above z
    over all factors matter.
    """
    t = np.abs(np.atleast_1d(np.asarray(targets, dtype=float)))
    h = math.log(abs(gamma)) / q_prime
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.log(t)[:, None] - log_factors
        z /= h
        frac = np.floor(z)
        np.subtract(z, frac, out=frac)      # nan where z is not finite
    gap_lo = np.fmin.reduce(frac, axis=1, initial=np.inf)
    gap_hi = 1.0 - np.fmax.reduce(frac, axis=1, initial=-np.inf)
    # rows where some floor(z) or ceil(z) falls outside the s-range
    clamped = (np.fmax.reduce(z, axis=1, initial=-np.inf) > s_max) \
        | (np.fmin.reduce(z, axis=1, initial=np.inf) < -s_max)
    for i in np.flatnonzero(clamped):
        zi = z[i][np.isfinite(z[i])]
        below = zi - np.minimum(np.floor(zi), s_max)
        above = np.maximum(np.ceil(zi), -s_max) - zi
        gap_lo[i] = np.min(below[zi >= -s_max], initial=np.inf)
        gap_hi[i] = np.min(above[zi <= s_max], initial=np.inf)
    return _gap_distances(t, gap_lo, gap_hi, h)


def _gap_distances(t: np.ndarray, gap_lo: np.ndarray, gap_hi: np.ndarray, h: float) -> np.ndarray:
    """t * min(1 - e^(-gap_lo h), e^(gap_hi h) - 1): the distance from t to
    its nearest family values, gap_lo below and gap_hi above z on the s-grid."""
    return t * np.minimum(-np.expm1(-gap_lo * h), np.expm1(gap_hi * h))


def _unit_distances(targets, gamma: float, q_prime: int, s_max: int) -> np.ndarray:
    """Distance of each |target| to the values |gamma|^(s/q'), s in
    [-s_max, s_max], and the point 0: the one-factor family F = 1 that the
    a*b memberships measure.  A zero target is the point 0 itself."""
    t = np.abs(np.asarray(targets, dtype=float))
    log_f = np.where(t > 0, 0.0, np.nan)[:, None]
    return _family_distances(t, gamma, q_prime, log_f, s_max)


#: fast key rows per block of `_df_family_distances`, and candidate pairs per
#: block of its exact re-evaluation; the blocks bound its working set
DF_ROW_BLOCK = 256
DF_CANDIDATE_BLOCK = 1 << 14
#: rows per `_family_distances` call where `_df_family_distances` falls
#: back; such a row holds all its factors, 7442 at the default truncation
DF_FALLBACK_BLOCK = 8
#: the copies frac(v) + k, k = -2..2, of each denominator value, and the
#: spacing of the denominator rows in the one sorted key array
_COPIES = np.arange(-2.0, 3.0)
_ROW_SPACING = 8.0
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The aranges [starts[i], starts[i] + counts[i]) concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - (ends - counts), counts)


def _count_blocks(counts: np.ndarray, size: int) -> Iterator[tuple[int, int]]:
    """Runs [i0, i1) of consecutive entries whose counts sum to at most
    size, or single entries whose count alone exceeds it."""
    ends = np.cumsum(counts)
    i0 = 0
    while i0 < len(counts):
        done = int(ends[i0 - 1]) if i0 else 0
        i1 = max(int(np.searchsorted(ends, done + size, "right")), i0 + 1)
        yield i0, i1
        i0 = i1


def _distinct_by_row(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of each row of x, sorted within the row: (row of
    each value, the values, index of each row's first value)."""
    x = np.sort(x, axis=1)
    new = np.ones(x.shape, dtype=bool)
    new[:, 1:] = x[:, 1:] != x[:, :-1]
    counts = new.sum(axis=1)
    return np.repeat(np.arange(len(x)), counts), x[new], np.cumsum(counts) - counts


def _df_family_distances(targets, gamma: float, q_prime: int, num: np.ndarray,
                         den: np.ndarray, den_row: np.ndarray, s_max: int) -> np.ndarray:
    """`_family_distances` of a separable family, row for row and bit for
    bit: row i has the factors log|F| = num[i, n] - den[den_row[i], j].

    Separation.  In the double focus num[i, n] = log|rho_i - gamma^-n| and
    den[., j] = log|D_j(sigma)|, which depends only on the key's sigma, so
    a spec has at most q2^2 den rows against up to (q1 q2)^2 keys.  With
    h = log|gamma| / q' and L = log|target|, `_family_distances` needs only
    the least and the greatest F = fl(z - floor z) over the row, where
    z = fl(fl(L - fl(num - den)) / h).  Equal num values in a row, or den
    values in a den row, give equal z, so each value counts once.

    Clamp test.  Rounding is monotone, so z is monotone in num and in den,
    and its extremes over a row are exactly its values at the corners
    (min num, max den) and (max num, min den).  A row with a non-finite
    entry or L, or whose z range leaves [-s_max, s_max], goes to
    `_family_distances` as it is, DF_FALLBACK_BLOCK rows at a time.

    Error bound.  Put c = fl(1 - frac(fl(fl(L - num) / h))) per num value
    and V = frac(fl(den / h)) per den value, with frac x = fl(x - floor x),
    and ft = (V - c) mod 1 in exact arithmetic on these floats.  F lies
    within E of ft on the circle of circumference 1, for
        E = 8 u (R + 1),   R = (|L| + max|num| + max|den|) / |h|,
    u = 2^-53: z lies within 3.01 u R of zeta = (L - num + den) / h (three
    roundings; |zeta| and |num - den| / |h| are at most R), the split sum
    fl(fl(L - num) / h) + fl(den / h) within 2.01 u R of zeta, and the
    three fractional parts and 1 - frac round by at most u each, u
    (5.02 R + 4) in all.  Each den row sorts the copies V + k, k = -2..2,
    offset by 8 times its index, into one key array; the offsets and the
    window ends round by less than S = 8 u (offset_max + 4) in all.  Put
    reach = E + S.

    Search.  For each num value, searchsorted finds the first key at least
    reach above c and the last key at least reach below it: the least and
    the greatest ft among the entries at least reach from an integer.  Over
    the row they give m and M; put T = m + reach and T' = M - reach.  The
    candidates are the keys with V - c in [T' - 1 - reach, T + reach], that
    is every entry with ft in [0, T + reach] or [T' - reach, 1).  They
    include the wrap side, the entries with ft within reach below or above
    an integer, whose F may lie on its other side.  Every other entry has
    T < F < T'.  The entry that gave m is a candidate with F <= T, and the
    one that gave M a candidate with F >= T'.  So the least and the greatest
    F over the candidates, re-evaluated by the same float operations as in
    `_family_distances`, are the row's, and the bytes hold.  A row where
    they fall on the wrong side of T or T', which the bound rules out, falls
    back.  The search runs in blocks of DF_ROW_BLOCK rows and
    DF_CANDIDATE_BLOCK candidates: saturated rows (sigma - lam^ell rounds
    to sigma at large ell) hold many exact ties.
    """
    t = np.abs(np.asarray(targets, dtype=float))
    h = math.log(abs(gamma)) / q_prime
    out = np.empty(len(t))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_t = np.log(t)
        den_lo, den_hi = den.min(axis=1)[den_row], den.max(axis=1)[den_row]
        num_lo, num_hi = num.min(axis=1), num.max(axis=1)
        corner1 = (log_t - (num_lo - den_hi)) / h
        corner2 = (log_t - (num_hi - den_lo)) / h
    fast = np.isfinite(corner1) & np.isfinite(corner2) \
        & (np.maximum(corner1, corner2) <= s_max) & (np.minimum(corner1, corner2) >= -s_max)
    fast_rows = np.flatnonzero(fast)
    slow = [np.flatnonzero(~fast)]
    if len(fast_rows):
        keys = _DenKeys(den, h)
        for r0 in range(0, len(fast_rows), DF_ROW_BLOCK):
            rows = fast_rows[r0:r0 + DF_ROW_BLOCK]
            least, most = keys.frac_extremes(log_t[rows], num[rows], den_row[rows])
            found = np.isfinite(least)
            out[rows[found]] = _gap_distances(t[rows[found]], least[found], 1.0 - most[found], h)
            slow.append(rows[~found])
    slow_rows = np.concatenate(slow)
    for r0 in range(0, len(slow_rows), DF_FALLBACK_BLOCK):
        rows = slow_rows[r0:r0 + DF_FALLBACK_BLOCK]
        with np.errstate(invalid="ignore"):
            log_f = num[rows][:, None, :] - den[den_row[rows]][:, :, None]
        out[rows] = _family_distances(t[rows], gamma, q_prime, log_f.reshape(len(rows), -1), s_max)
    return out


class _DenKeys:
    """The distinct finite-row values of `den`, and one sorted key array of
    frac(fl(value / h)) + k + 8 * (den row) for k = -2..2, as
    `_df_family_distances` states."""

    def __init__(self, den: np.ndarray, h: float):
        self.h = h
        self.den_abs = np.abs(den).max(axis=1)
        finite = np.isfinite(den).all(axis=1)
        row, self.values, _ = _distinct_by_row(den[finite])
        row = np.flatnonzero(finite)[row]
        v = self.values / h
        keys = ((v - np.floor(v)) + (_COPIES[:, None] + _ROW_SPACING * row)).ravel()
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.value_of_key = order % len(self.values)
        self.slack = 8 * _UNIT_ROUNDOFF * (_ROW_SPACING * (len(den) - 1) + 4)

    def frac_extremes(self, log_t, num, den_row) -> tuple[np.ndarray, np.ndarray]:
        """The least and the greatest F per row, found as the kernel states;
        (inf, -inf) for a row whose candidates do not show them."""
        h, keys = self.h, self.keys
        row, num_v, starts = _distinct_by_row(num)
        u = (log_t[row] - num_v) / h
        q = (1.0 - (u - np.floor(u))) + _ROW_SPACING * den_row[row]
        err = 8 * _UNIT_ROUNDOFF * (
            (np.abs(log_t) + np.abs(num).max(axis=1) + self.den_abs[den_row]) / abs(h) + 1.0)
        reach = err + self.slack
        # the least and greatest ft that lie at least `reach` from an integer
        above = np.searchsorted(keys, q + reach[row])
        below = np.searchsorted(keys, q - reach[row]) - 1
        top = np.minimum.reduceat(keys[above] - q, starts) + reach
        bottom = np.maximum.reduceat(keys[below] - q, starts) + 1.0 - reach
        lo = np.searchsorted(keys, q + (bottom - reach - 1.0)[row], "left")
        counts = np.searchsorted(keys, q + (top + reach)[row], "right") - lo
        least = np.full(len(log_t), np.inf)
        most = np.full(len(log_t), -np.inf)
        for i0, i1 in _count_blocks(counts, DF_CANDIDATE_BLOCK):
            pair = np.repeat(np.arange(i0, i1), counts[i0:i1])
            den_v = self.values[self.value_of_key[_ranges(lo[i0:i1], counts[i0:i1])]]
            z = log_t[row[pair]] - (num_v[pair] - den_v)
            z /= h
            frac = z - np.floor(z)
            np.minimum.at(least, row[pair], frac)
            np.maximum.at(most, row[pair], frac)
        shown = (least <= top) & (most >= bottom)
        least[~shown], most[~shown] = np.inf, -np.inf
        return least, most


@dataclass(frozen=True)
class BruteScanResult:
    ranges: tuple[int, int]
    tol: float
    solutions: tuple[dict[str, Any], ...]
    n_solutions: int
    verdict: str                  # no_extra_pairs | constrained | violation
    share_type: str | None        # "m" | "k" | "mixed" | None
    min_residual: float
    truncated: bool = False


@dataclass(frozen=True)
class ExclusionReport:
    eta_ok: dict[str, bool]
    ratio_memberships: dict[str, float]
    ab_memberships: dict[str, float]
    trunc: TruncationRanges
    scan: BruteScanResult | None = None

    @property
    def min_ratio_distance(self) -> float:
        return min(self.ratio_memberships.values(), default=math.inf)

    @property
    def min_ab_distance(self) -> float:
        return min(self.ab_memberships.values(), default=math.inf)

    def to_json_dict(self) -> dict[str, Any]:
        return {**vars(self), "min_ratio_distance": self.min_ratio_distance,
                "min_ab_distance": self.min_ab_distance}


def _require_rational(moduli: Moduli, spec: CycleSpec) -> None:
    names = ["theta", "omega1"] + ([] if spec.is_saddle_focus else ["omega2"])
    for name in names:
        if not moduli.is_rational(name):
            raise NotRational(f"{name} is declared irrational")


def exclusion_sets(
    spec: CycleSpec,
    moduli: Moduli,
    trunc: TruncationRanges | None = None,
) -> ExclusionReport:
    """Distances of the coefficient ratios to the truncated exclusion sets,
    plus feasibility of the angle offsets at every residue.

    Each ratio key names two residue classes, one per return visit, and its
    value is min ||target| - |v|| over the family values v; the balance of
    two distinct visits at the cube centre (K = C = 0) puts |target| on the
    family exactly.  Ratios keep their sign: opposite-signed coefficients
    add where same-signed ones cancel.

    Saddle focus, key "r1,r2": visits (k_A, m_A), (k_B, m_B) with
    k_A = k_B + ell, m_B = m_A + n, k_A = r1 and k_B = r2 mod q, and
    P_r = a_r x+_r.  They balance iff
    lam^k_B gamma^m_A (lam^ell - rho) / (1 - gamma^-n) = u / P_r1 with
    rho = P_r2 / P_r1, i.e. on the `exclusion_elements` family at ratio rho
    (n < 0 gives the n > 0 magnitudes shifted in s).

    Double focus, key "r1,r2->r1p,r2p": at the cube centre `_DfTables` has
    P = (gamma^m b + c lam^-k) / L with L the splitting slope `ell` of the
    m-residue; put beta = b / L and kappa = c / L.  Let the visit of
    residues (r1, r2) have the smaller m, and the other m + n, k + ell
    (n >= 1, ell of either sign).  They balance iff
    |c_r2 / b_r1r2| = |gamma|^(s/q') |rho - gamma^-n| / |D| with
    rho = beta' / beta, sigma = kappa' / kappa, D = sigma - lam^ell for
    ell > 0 and 1 - sigma lam^-ell for ell < 0.

    The double-focus family separates: log|F| = log|rho - gamma^-n| -
    log|D(sigma)|, and sigma depends on (r2, r2p) alone.  `_df_rows` builds
    the two parts for every key of the spec at once, and
    `_df_family_distances` searches them by sort-and-search, re-evaluating
    only the candidate factors by the float operations of
    `_family_distances`, so each distance is the one the full grid of
    (n_max + 1) * 2 (ell_max + 1) factors gives, bit for bit.  The a*b
    memberships (|A sin(. + eta1)| per residue for the saddle focus, |a_r1r2|
    for the double focus) are measured against |gamma|^(s/q') in one
    `_unit_distances` call per spec.
    """
    _require_rational(moduli, spec)
    trunc = trunc or TruncationRanges()
    q_prime = moduli.rational("theta").denominator
    f1 = moduli.rational("omega1")
    q1, p1 = f1.denominator, f1.numerator

    if spec.is_saddle_focus:
        pack = _sf_pack(spec, q1, p1)
        s1, s2 = pack["s1"], pack["s2"]
        eta_ok = {
            "eta1": bool(np.min(np.abs(s1)) > ZERO_TOL),
            "eta2": bool(np.min(np.abs(s2)) > ZERO_TOL),
        }
        ax = pack["a"] * pack["x_plus"]     # = B*sin(. + eta2) / b
        ab = pack["a"] * spec.b_coef        # = A*sin(. + eta1)
        ratio_d: dict[str, float] = {}
        live = np.flatnonzero((np.abs(s1) > ZERO_TOL) & (np.abs(s2) > ZERO_TOL))
        for r1 in live:
            factors = _sf_factors(spec.gamma, spec.lam, ax[live] / ax[r1], trunc)
            with np.errstate(divide="ignore"):
                log_f = np.log(np.abs(factors))
            dists = _family_distances(
                spec.u_scalar / ax[r1], spec.gamma, q_prime, log_f, trunc.s_max
            )
            ratio_d.update((f"{r1},{r2}", float(d)) for r2, d in zip(live, dists))
        ab_dists = _unit_distances(ab[live], spec.gamma, q_prime, trunc.s_max)
        ab_d = {str(r1): d for r1, d in zip(live.tolist(), ab_dists.tolist())}
        return ExclusionReport(eta_ok, ratio_d, ab_d, trunc)

    f2 = moduli.rational("omega2")
    q2, p2 = f2.denominator, f2.numerator
    pack = _df_pack(spec, q1, p1, q2, p2)
    a = pack["a"]
    rs1 = np.arange(q1) * TWO_PI * p1 / q1
    rs2 = np.arange(q2) * TWO_PI * p2 / q2
    assert spec.eta3 is not None
    eta_ok = {
        "eta1": bool(np.min(np.abs(np.sin(rs1 + spec.eta1))) > ZERO_TOL),
        "eta2": bool(np.min(np.abs(np.sin(rs1 + spec.eta2))) > ZERO_TOL),
        "eta3": bool(
            np.isfinite(pack["c"]).all()
            and np.min(np.abs(np.cos(rs2 + spec.eta3))) > ZERO_TOL
        ),
    }
    first, keys, targets, num, den, den_row = _df_rows(pack, spec.gamma, spec.lam, trunc, ZERO_TOL)
    dists = _df_family_distances(targets, spec.gamma, q_prime, num, den, den_row, trunc.s_max)
    ratio_d = {f"{r1},{r2}->{r1p},{r2p}": d
               for r1, r2, r1p, r2p, d in zip(*(k.tolist() for k in keys), dists.tolist())}
    r1s, r2s = np.nonzero(first & np.isfinite(a))
    ab_dists = _unit_distances(a[r1s, r2s], spec.gamma, q_prime, trunc.s_max)
    ab_d = {f"{r1},{r2}": d for r1, r2, d in zip(r1s.tolist(), r2s.tolist(), ab_dists.tolist())}
    return ExclusionReport(eta_ok, ratio_d, ab_d, trunc)


def _df_rows(pack: dict[str, np.ndarray], gamma: float, lam: float,
             trunc: TruncationRanges, zero_tol: float):
    """The double-focus ratio keys and the `_df_family_distances` inputs of
    their rows, as `exclusion_sets` states them.

    Returns the mask of first residues (r1, r2), the keys as index arrays
    (r1, r2, r1p, r2p) in lexicographic order, and per key the target
    c_r2 / b_r1r2, num[n] = log|rho - gamma^-n| and its den row
    r2 * q2 + r2p; den[r2 * q2 + r2p] holds log|D(ell)| at sigma =
    kappa_r2p / kappa_r2, the sigma - lam^ell entries first.
    """
    b, c = pack["b"], pack["c"]
    beta = b / pack["ell"][None, :]
    kappa = c / pack["ell"]
    live = np.isfinite(beta)
    lam_pows, gam_pows = _powers(gamma, lam, trunc)
    with np.errstate(divide="ignore", invalid="ignore"):
        first = live & (np.abs(b) > zero_tol)
        keys = r1, r2, r1p, r2p = np.nonzero(first[:, :, None, None] & live)
        num = np.log(np.abs((beta[r1p, r2p] / beta[r1, r2])[:, None] - gam_pows))
        sigma = (kappa[None, :] / kappa[:, None]).reshape(-1, 1)
        den = np.log(np.abs(np.concatenate((sigma - lam_pows, 1.0 - sigma * lam_pows), axis=1)))
    return first, keys, c[r2] / b[r1, r2], num, den, r2 * len(kappa) + r2p


# ---------------------------------------------------------------------------
# Brute two-pair scan
# ---------------------------------------------------------------------------

class _SfTables:
    """x(k, K) = base_x[k] + slope_x[k]*K, y(m, C) = base_y[m] + slope_y[m]*C.

    The last index slot of each axis is the infinite index (term = 0),
    standing for the orbit segments that stay on the local manifolds.
    """

    def __init__(self, spec: CycleSpec, q: int, p: int, k_max: int, m_max: int):
        pack = _sf_pack(spec, q, p)
        a = pack["a"]
        ks = np.arange(1, k_max + 1)
        ms = np.arange(1, m_max + 1)
        lam_pows = spec.lam ** ks.astype(float)
        gam_pows = np.asarray(spec.gamma, dtype=float) ** (-ms.astype(float))
        ar = a[ks % q]
        s2 = pack["s2"][ks % q]
        # a_r * x+_r = B*sin(.+eta2)/b is finite even where a_r = 0
        base_x = lam_pows * s2 * spec.B_coef / spec.b_coef
        slope_x = lam_pows * ar * spec.delta
        self.base_x = np.concatenate((base_x, [0.0]))
        self.slope_x = np.concatenate((slope_x, [0.0]))
        self.base_y = np.concatenate((gam_pows * spec.u_scalar, [0.0]))
        self.slope_y = np.concatenate((gam_pows * spec.delta / spec.b_coef, [0.0]))
        self.k_labels: list[int | None] = ks.tolist() + [None]
        self.m_labels: list[int | None] = ms.tolist() + [None]

    def intervals(self):
        x_lo = self.base_x - np.abs(self.slope_x)
        x_hi = self.base_x + np.abs(self.slope_x)
        y_lo = self.base_y - np.abs(self.slope_y)
        y_hi = self.base_y + np.abs(self.slope_y)
        x_scale = np.maximum(np.abs(x_lo), np.abs(x_hi))
        y_scale = np.maximum(np.abs(y_lo), np.abs(y_hi))
        return (x_lo, x_hi, x_scale), (y_lo, y_hi, y_scale)

    def terms(self, tuples: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """Centres and slopes of the balance terms (x1, -y1, -x2, y2) of each
        (k1, k2, m1, m2) row of `tuples`, and the cube variable of each term
        as an index into (K1, C1, K2, C2)."""
        ik1, ik2, im1, im2 = tuples.T
        centre = (self.base_x[ik1], -self.base_y[im1], -self.base_x[ik2], self.base_y[im2])
        slope = (self.slope_x[ik1], -self.slope_y[im1], -self.slope_x[ik2], self.slope_y[im2])
        return np.stack(centre, axis=1), np.stack(slope, axis=1), (0, 1, 2, 3)


class _DfTables:
    """u(m, K; r1) = gamma^m (a*K*delta + b)/ell, v(k, C; r2) = (c - C*delta)
    lam^-k / ell; P = u + v after eliminating the splitting value.

    Infinite indices are not represented: in the divided form both term
    families grow, so truncation to the finite ranges is the scan domain.
    """

    def __init__(self, spec: CycleSpec, q1: int, p1: int, q2: int, p2: int,
                 k_max: int, m_max: int):
        pack = _df_pack(spec, q1, p1, q2, p2)
        self.a, self.b, self.c, self.ell = pack["a"], pack["b"], pack["c"], pack["ell"]
        self.d = spec.delta
        ks = np.arange(1, k_max + 1)
        ms = np.arange(1, m_max + 1)
        self.gam_pows = np.asarray(spec.gamma, dtype=float) ** ms.astype(float)
        self.lam_neg = spec.lam ** (-ks.astype(float))
        self.r1_of_k = ks % q1
        self.r2_of_m = ms % q2
        self.k_labels: list[int | None] = ks.tolist()
        self.m_labels: list[int | None] = ms.tolist()

    def _uv(self, ik: int, im: int, K, C):
        r1 = self.r1_of_k[ik]
        r2 = self.r2_of_m[im]
        ell = self.ell[r2]
        u = self.gam_pows[im] * (self.a[r1, r2] * K * self.d + self.b[r1, r2]) / ell
        v = (self.c[r2] - C * self.d) * self.lam_neg[ik] / ell
        return u, v

    def intervals(self):
        ik = np.arange(len(self.k_labels))[:, None]
        im = np.arange(len(self.m_labels))
        u_lo, v_lo = self._uv(ik, im, -1.0, -1.0)
        u_hi, v_hi = self._uv(ik, im, 1.0, 1.0)
        p_lo = np.minimum(u_lo, u_hi) + np.minimum(v_lo, v_hi)
        p_hi = np.maximum(u_lo, u_hi) + np.maximum(v_lo, v_hi)
        scale = np.maximum(
            np.maximum(np.abs(u_lo), np.abs(u_hi)),
            np.maximum(np.abs(v_lo), np.abs(v_hi)),
        )
        bad = ~(np.isfinite(p_lo) & np.isfinite(p_hi))
        p_lo[bad] = np.inf   # excluded from overlaps
        p_hi[bad] = -np.inf
        scale[bad] = SCALE_FLOOR
        return p_lo, p_hi, scale

    def terms(self, tuples: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """Centres and slopes of the balance terms (v1, u1, -v2, -u2) of each
        (k1, k2, m1, m2) row of `tuples`, and the cube variable of each term
        as an index into (K1, C1, K2, C2): u moves with K and v with C."""
        centre, slope = [], []
        for sign, ik, im in ((1.0, tuples[:, 0], tuples[:, 2]), (-1.0, tuples[:, 1], tuples[:, 3])):
            u, v = self._uv(ik, im, 0.0, 0.0)
            r2 = self.r2_of_m[im]
            gain = sign * self.d / self.ell[r2]
            centre += [sign * v, sign * u]
            slope += [-gain * self.lam_neg[ik],
                      gain * self.gam_pows[im] * self.a[self.r1_of_k[ik], r2]]
        return np.stack(centre, axis=1), np.stack(slope, axis=1), (1, 0, 3, 2)


#: index pairs the interval join hands over per block; a loose tolerance
#: lets most of the n^4 tuples through, and blocks keep memory bounded
#: until INDEX_CAP survivors stop the scan
JOIN_BLOCK = 1 << 14
#: widening beyond the tolerance, relative to the scale, so that rounding
#: in the exact gap test never passes a pair the join missed
_JOIN_SLACK = 64 * np.finfo(float).eps


def _widen(lo, hi, scale, tol: float):
    """[lo, hi] widened by its own tolerance share tol * max(scale, SCALE_FLOOR)
    plus the rounding slack.

    The gap test grants a pair the larger of its two shares, never more than
    their sum, so the widened overlaps are a superset of the pairs it passes.
    The slack covers the test's rounding where |lo| and |hi| are at most
    about twice the scale, as for the term and P intervals.
    """
    pad = (tol + _JOIN_SLACK) * np.maximum(scale, SCALE_FLOOR)
    return lo - pad, hi + pad


def _overlap_blocks(a_lo, a_hi, b_lo, b_hi) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every (i, j) whose closed intervals [a_lo[i], a_hi[i]] and
    [b_lo[j], b_hi[j]] overlap (all finite, lo <= hi), as index arrays in
    blocks over runs of consecutive i: a block holds at most JOIN_BLOCK
    pairs, or the pairs of a single i.

    A pair overlaps iff b_lo[j] lies in [a_lo[i], a_hi[i]], or a_lo[i] lies
    in (b_lo[j], b_hi[j]]; the two cases are disjoint.  Each case is a run of
    the other side sorted by lower end, found by searchsorted, so the join
    costs O(n log n) plus the pairs it returns.
    """
    b_order = np.argsort(b_lo, kind="stable")
    b_lo_sorted = b_lo[b_order]
    first = np.searchsorted(b_lo_sorted, a_lo, "left")
    n_inside = np.searchsorted(b_lo_sorted, a_hi, "right") - first
    # b with b_lo < a_lo, less those that also end before a_lo
    n_around = first - np.searchsorted(np.sort(b_hi), a_lo, "left")
    b_all = np.arange(len(b_lo))
    for i0, i1 in _count_blocks(n_inside + n_around, JOIN_BLOCK):
        counts = n_inside[i0:i1]
        i_inside = np.repeat(np.arange(i0, i1), counts)
        j_inside = b_order[_ranges(first[i0:i1], counts)]
        a_order = np.argsort(a_lo[i0:i1], kind="stable")
        a_lo_sorted = a_lo[i0:i1][a_order]
        starts = np.searchsorted(a_lo_sorted, b_lo, "right")
        counts = np.searchsorted(a_lo_sorted, b_hi, "right") - starts
        i_around = i0 + a_order[_ranges(starts, counts)]
        j_around = np.repeat(b_all, counts)
        yield np.concatenate((i_inside, i_around)), np.concatenate((j_inside, j_around))


def _off_diagonal(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) over 0 <= i, j < n with i != j, in lexicographic order."""
    i, j = np.divmod(np.arange(n * n), n)
    keep = i != j
    return i[keep], j[keep]


def _prefilter_tuples(x_iv, y_iv, tol: float) -> list[tuple[int, int, int, int]]:
    """(k1, k2, m1, m2) with k1 != k2 and m1 != m2 whose interval gap can
    reach tol * scale, in lexicographic order; stops once more than
    INDEX_CAP are found.

    Works on separable term intervals: Dx in [x1] - [x2], Dy in [y1] - [y2].
    The n^2 Dx intervals over (k1, k2) are joined with the n^2 Dy intervals
    over (m1, m2), both widened by `_widen`; the gap test then selects the
    survivors among the joined pairs.
    """
    if not tol >= 0:    # the gap test passes nothing
        return []
    (x_lo, x_hi, xs), (y_lo, y_hi, ys) = x_iv, y_iv
    k1, k2 = _off_diagonal(len(x_lo))
    m1, m2 = _off_diagonal(len(y_lo))
    dx_lo, dx_hi = x_lo[k1] - x_hi[k2], x_hi[k1] - x_lo[k2]
    dy_lo, dy_hi = y_lo[m1] - y_hi[m2], y_hi[m1] - y_lo[m2]
    sx = np.maximum(xs[k1], xs[k2])
    sy = np.maximum(ys[m1], ys[m2])
    out: list[tuple[int, int, int, int]] = []
    blocks = _overlap_blocks(*_widen(dx_lo, dx_hi, sx, tol), *_widen(dy_lo, dy_hi, sy, tol))
    for i, j in blocks:
        gap = np.maximum(0.0, np.maximum(dx_lo[i] - dy_hi[j], dy_lo[j] - dx_hi[i]))
        scale = np.maximum(sx[i], sy[j])
        hit = gap <= tol * np.maximum(scale, SCALE_FLOOR)
        order = np.lexsort((j[hit], i[hit]))[:INDEX_CAP + 1 - len(out)]
        i, j = i[hit][order], j[hit][order]
        out.extend(zip(k1[i].tolist(), k2[i].tolist(), m1[j].tolist(), m2[j].tolist()))
        if len(out) > INDEX_CAP:
            break
    return out


def _prefilter_tuples_df(p_lo, p_hi, scale, tol: float) -> list[tuple[int, int, int, int]]:
    """Doubly-distinct (k1, k2, m1, m2) with overlapping P-intervals (DF),
    (k1, m1) before (k2, m2), ordered by (k1, m1, k2, m2); stops once more
    than INDEX_CAP are found.

    A self-join of the finite P-intervals widened by `_widen`; the gap test
    then selects the survivors among the joined pairs.  Entries marked bad
    by `_DfTables.intervals` (non-finite ends) overlap nothing.
    """
    if not tol >= 0:    # the gap test passes nothing
        return []
    nm = p_lo.shape[1]
    flat = np.flatnonzero(np.isfinite(p_lo) & np.isfinite(p_hi))
    lo, hi, sc = p_lo.ravel()[flat], p_hi.ravel()[flat], scale.ravel()[flat]
    w_lo, w_hi = _widen(lo, hi, sc, tol)
    out: list[tuple[int, int, int, int]] = []
    for i, j in _overlap_blocks(w_lo, w_hi, w_lo, w_hi):
        # the join yields both orders of each pair, and index-sharing pairs
        # (mostly shared m) outnumber the rest, so drop those first
        later = j > i
        i, j = i[later], j[later]
        k1, m1 = np.divmod(flat[i], nm)
        k2, m2 = np.divmod(flat[j], nm)
        distinct = (k1 != k2) & (m1 != m2)
        i, j, k1, k2, m1, m2 = (v[distinct] for v in (i, j, k1, k2, m1, m2))
        gap = np.maximum(0.0, np.maximum(lo[i] - hi[j], lo[j] - hi[i]))
        sc_pair = np.maximum(sc[i], sc[j])
        hit = gap <= tol * np.maximum(sc_pair, SCALE_FLOOR)
        order = np.lexsort((j[hit], i[hit]))[:INDEX_CAP + 1 - len(out)]
        k1, k2, m1, m2 = (v[hit][order] for v in (k1, k2, m1, m2))
        out.extend(zip(k1.tolist(), k2.tolist(), m1.tolist(), m2.tolist()))
        if len(out) > INDEX_CAP:
            break
    return out


#: the cube's 16 vertices, lexicographic in (K1, C1, K2, C2) with -1 first; the
#: witness is the first minimal one, so a variable no term moves sits at -1
_VERTICES = np.array(list(itertools.product((-1.0, 1.0), repeat=4)))


def _residual(t: np.ndarray) -> np.ndarray:
    """|t0 + t1 + t2 + t3| / max(max_j |t_j|, SCALE_FLOOR) along the last axis."""
    balance = (t[..., 0] + t[..., 1]) + (t[..., 2] + t[..., 3])
    return np.abs(balance) / np.maximum(np.abs(t).max(axis=-1), SCALE_FLOOR)


def _balance_min(centre: np.ndarray, slope: np.ndarray, axes: tuple[int, ...], tol: float):
    """Exact minimum over the cube of the normalised two-pair residual, one
    row per index tuple, in the closed form `brute_scan` states.

    A row holds the terms t_j = centre_j + slope_j * z_j (visit 1's k-term,
    its m-term, visit 2's k-term, its m-term, signed so that the balance is
    their sum), where z_j in [-1, 1] is the cube variable axes[j] of
    (K1, C1, K2, C2).  Returns the residual at the witness, the witness as
    (K1, C1, K2, C2), and whether the k-part |t0 + t2| and the m-part
    |t1 + t3| exceed 2 tol times the witness's scale.
    """
    total = (centre[:, 0] + centre[:, 1]) + (centre[:, 2] + centre[:, 3])
    reach = np.abs(slope).sum(axis=1)
    step = np.minimum(1.0, np.abs(total) / np.maximum(reach, SCALE_FLOOR))
    z = np.sign(slope) * (-np.sign(total) * step)[:, None] + 0.0    # -0.0 becomes 0.0
    far = np.abs(total) > reach
    vertices = _VERTICES[:, axes]
    at_vertices = np.stack([_residual(centre[far] + slope[far] * v) for v in vertices], axis=1)
    z[far] = vertices[np.argmin(at_vertices, axis=1)]
    t = centre + slope * z
    active = 2.0 * tol * np.maximum(np.abs(t).max(axis=1), SCALE_FLOOR)
    return (_residual(t), z[:, np.argsort(axes)],
            np.abs(t[:, 0] + t[:, 2]) > active, np.abs(t[:, 1] + t[:, 3]) > active)


def _sharing_tuples_sf(tables: _SfTables, tol: float) -> np.ndarray:
    """Candidate (k1, k2, m1, m2) rows of the index-sharing solution families.

    m-sharing: both visits spend the same m turns, the smallest k whose term
    is below resolution (lambda^k = O(delta) * gamma^-m) and the infinite k;
    k-sharing symmetric."""
    xs = np.maximum(np.abs(tables.base_x) + np.abs(tables.slope_x), SCALE_FLOOR)
    ys = np.maximum(np.abs(tables.base_y) + np.abs(tables.slope_y), SCALE_FLOOR)
    families = []
    for own, shared in ((xs, ys), (ys, xs)):
        # (own1, own2, shared, shared) for each finite shared index with a small own index
        small = own[None, :-1] <= 0.25 * tol * shared[:-1, None]
        i = np.flatnonzero(small.any(axis=1))
        first = small.argmax(axis=1)[i]
        families.append(np.stack((first, np.full_like(first, len(own) - 1), i, i), axis=1))
    m_sharing, k_sharing = families
    return np.concatenate((m_sharing, k_sharing[:, [2, 3, 0, 1]]))


def brute_scan(
    spec: CycleSpec,
    moduli: Moduli,
    ranges: tuple[int, int] = (40, 40),
    tol: float = 1e-6,
) -> BruteScanResult:
    """Exhaustive two-pair scan over k, m <= ranges plus infinite indices.

    An interval prefilter (sound: no point of the cube beats the interval
    gap) sorts the n^2 index-pair intervals by lower end and joins them by
    searchsorted (Dx against Dy for the saddle focus, P against itself for
    the double focus), so it costs O(n^2 log n + candidates), not O(n^4).
    On its first INDEX_CAP survivors, and on the saddle focus's
    index-sharing candidates, `_balance_min` minimizes the normalized
    residual exactly over the cube [-1, 1]^4 of (K1, C1, K2, C2).  Each
    balance term t_j = c_j + s_j z_j is affine in one cube variable z_j.
    With c = sum c_j and S = sum |s_j|, the balance reaches 0 iff |c| <= S,
    at the witness z_j = -sign(c) sign(s_j) min(1, |c| / S) nearest the
    cube centre in max-norm.  Otherwise the balance keeps one sign, so its
    absolute value is affine while the scale max_j |t_j| is convex: the
    residual is quasiconcave, and its minimum is at one of the 16 vertices.

    A solution is a violation only when both its k-part and m-part
    differences are active above the tolerance at its witness's scale;
    otherwise it belongs to an index-sharing family (constrained).
    """
    _require_rational(moduli, spec)
    k_max, m_max = ranges
    f1 = moduli.rational("omega1")
    q1, p1 = f1.denominator, f1.numerator

    if k_max == 0 or m_max == 0:
        return BruteScanResult(
            ranges=(k_max, m_max), tol=tol, solutions=(),
            n_solutions=0, verdict="no_extra_pairs", share_type=None,
            min_residual=math.inf,
        )

    if spec.is_saddle_focus:
        tables: Any = _SfTables(spec, q1, p1, k_max, m_max)
        sharing = _sharing_tuples_sf(tables, tol)
        tuples = _prefilter_tuples(*tables.intervals(), tol)
    else:
        f2 = moduli.rational("omega2")
        q2, p2 = f2.denominator, f2.numerator
        tables = _DfTables(spec, q1, p1, q2, p2, k_max, m_max)
        sharing = np.empty((0, 4), dtype=np.intp)
        tuples = _prefilter_tuples_df(*tables.intervals(), tol=tol)

    rows = np.concatenate((sharing, np.array(tuples[:INDEX_CAP], dtype=np.intp).reshape(-1, 4)))
    residual, point, k_active, m_active = _balance_min(*tables.terms(rows), tol)
    hits = np.flatnonzero(residual <= tol)
    truncated = len(tuples) > INDEX_CAP or len(hits) > SOLUTION_CAP
    # a violation needs genuinely different index labels on both axes AND
    # both power differences active at the solution's scale (a
    # below-resolution difference is the infinite-index identification)
    distinct = (rows[:, 0] != rows[:, 1]) & (rows[:, 2] != rows[:, 3])
    violation = bool(np.any((distinct & k_active & m_active)[hits]))
    solutions = [{
        "pair1": [tables.k_labels[k1], tables.m_labels[m1]],
        "pair2": [tables.k_labels[k2], tables.m_labels[m2]],
        "residual": float(residual[i]),
        "point": point[i].tolist(),
        "k_part_active": bool(k_active[i]),
        "m_part_active": bool(m_active[i]),
    } for i, (k1, k2, m1, m2) in zip(hits[:SOLUTION_CAP], rows[hits[:SOLUTION_CAP]])]
    min_residual = float(residual.min(initial=math.inf))

    if not solutions:
        verdict = "no_extra_pairs"
        share: str | None = None
    elif violation:
        verdict = "violation"
        share = "mixed"
    else:
        verdict = "constrained"
        m_shared = all(s["pair1"][1] == s["pair2"][1] for s in solutions)
        k_shared = all(s["pair1"][0] == s["pair2"][0] for s in solutions)
        share = "m" if m_shared and not k_shared else (
            "k" if k_shared and not m_shared else "mixed"
        )
    return BruteScanResult(
        ranges=(k_max, m_max), tol=tol,
        solutions=tuple(solutions), n_solutions=len(solutions),
        verdict=verdict, share_type=share, min_residual=min_residual,
        truncated=truncated,
    )


def simple_verdict(report: ExclusionReport) -> str:
    """"simple_hyperbolic_expected" iff every angle offset is feasible, every
    exclusion distance clears DISTANCE_TOL, and the scan (if attached) found
    at most index-sharing solutions; never claims blender existence."""
    if not all(report.eta_ok.values()):
        return "inconclusive"
    if report.min_ratio_distance <= DISTANCE_TOL:
        return "inconclusive"
    if report.min_ab_distance <= DISTANCE_TOL:
        return "inconclusive"
    if report.scan is not None and report.scan.verdict == "violation":
        return "inconclusive"
    return "simple_hyperbolic_expected"
