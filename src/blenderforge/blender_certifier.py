"""Covering certificates for the affine one-dimensional systems extracted
from a pair set, plus direct simulation of the covering property.

A certificate asserts: the images of the central interval I = [-c*delta,
c*delta] under the affine maps x -> A_n*x + B_n (taken inverse when the
band is expanding) cover a strict neighborhood of I through an ordered
chain with quantified consecutive overlaps.  Every disc crossing the
activating cube properly with respect to the certificate's cone then admits
an infinite pullback itinerary, which `simulate_covering` exercises on
sampled discs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterator, NamedTuple, Sequence

import numpy as np

from .arithmetic import PairSequence
from .cycle_model import CycleSpec
from .errors import BandViolation, CoverageGap, KindMismatch
from .rng import philox_doubles, philox_rng

BAND_TOL = 1e-9
AUTO_SHRINK_FACTOR = 0.93
AUTO_SHRINK_FLOOR = 1e-9
#: most images (pairs x grid values) that one `_chain_mask` pass holds
MASK_CELLS = 1 << 16


# ---------------------------------------------------------------------------
# Certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessEntry:
    n: int                      # index into pair_set / A_values
    interval: tuple[float, float]
    overlap: float | None       # with the previous chain entry

    def to_json_dict(self) -> dict[str, Any]:
        return {**vars(self), "interval": [repr(v) for v in self.interval]}


@dataclass(frozen=True)
class ActivatingCube:
    x_center: float
    x_half: float
    delta: float
    y_dim: int
    z_dim: int


@dataclass(frozen=True)
class BlenderCertificate:
    blender_kind: str            # "cs" | "cu"
    index: int
    pair_set: tuple[tuple[int, int], ...]
    A_values: tuple[float, ...]
    B_values: tuple[float, ...]
    interval_I: tuple[float, float]
    c: float
    delta: float
    witness: tuple[WitnessEntry, ...]
    A_band: tuple[float, float]
    cone_K: float
    activating_cube: ActivatingCube
    overlap_min: float
    neighborhood_margin: float

    @property
    def x_center(self) -> float:
        return self.activating_cube.x_center

    def effective_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """Contracting system (alpha_n, beta_n) of the certificate's band."""
        return _contracting_maps(self.A_values, self.B_values, self.blender_kind)

    def to_json_dict(self) -> dict[str, Any]:
        """The fields, with I's ends as repr strings; the witness entries and
        the cube are plain dicts, so `from_json_dict` reads this back."""
        return {
            **vars(self),
            "interval_I": [repr(v) for v in self.interval_I],
            "witness": [w.to_json_dict() for w in self.witness],
            "activating_cube": dict(vars(self.activating_cube)),
        }

    @classmethod
    def from_json_dict(cls, doc: dict[str, Any]) -> "BlenderCertificate":
        cube = ActivatingCube(**doc["activating_cube"])
        return cls(
            blender_kind=doc["blender_kind"],
            index=int(doc["index"]),
            pair_set=tuple((int(k), int(m)) for k, m in doc["pair_set"]),
            A_values=tuple(float(v) for v in doc["A_values"]),
            B_values=tuple(float(v) for v in doc["B_values"]),
            interval_I=(float(doc["interval_I"][0]), float(doc["interval_I"][1])),
            c=float(doc["c"]),
            delta=float(doc["delta"]),
            witness=tuple(
                WitnessEntry(
                    n=int(w["n"]),
                    interval=(float(w["interval"][0]), float(w["interval"][1])),
                    overlap=None if w["overlap"] is None else float(w["overlap"]),
                )
                for w in doc["witness"]
            ),
            A_band=(float(doc["A_band"][0]), float(doc["A_band"][1])),
            cone_K=float(doc["cone_K"]),
            activating_cube=cube,
            overlap_min=float(doc["overlap_min"]),
            neighborhood_margin=float(doc["neighborhood_margin"]),
        )


# ---------------------------------------------------------------------------
# Chain covering
# ---------------------------------------------------------------------------

def _contracting_maps(
    a_values: Sequence[float], b_values: Sequence[float], kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """Contracting system (alpha_n, beta_n): the forward maps x -> A*x + B
    for a cs band, their inverses (1/A, -B/A) for a cu band."""
    a = np.asarray(a_values, dtype=float)
    b = np.asarray(b_values, dtype=float)
    if kind == "cs":
        return a, b
    return 1.0 / a, -b / a


def _affine_images(
    alphas: np.ndarray, betas: np.ndarray, lo: float, hi: float
) -> list[tuple[float, float]]:
    """Exact image intervals of [lo, hi] under x -> alpha*x + beta."""
    e1 = alphas * lo + betas
    e2 = alphas * hi + betas
    return [(min(a, b), max(a, b)) for a, b in zip(e1.tolist(), e2.tolist())]


def chain_cover(
    images: Sequence[tuple[float, float]],
    left: float,
    right: float,
    overlap_min: float,
) -> tuple[list[int], list[float | None]] | tuple[None, tuple[float, float]]:
    """Greedy chain covering [left, right] with consecutive overlaps >=
    overlap_min; returns (chain indices, overlaps) or (None, uncovered gap).

    The greedy step (max right endpoint among candidates reaching back by
    overlap_min) reaches at least as far as any feasible chain, so failure
    here means no chain exists.  Each chosen image raises `reach` to its own
    high end, so a used image has hi <= reach and never passes `hi > reach`;
    no image is chosen twice.
    """
    order = sorted(range(len(images)), key=lambda i: (images[i][0], -images[i][1]))
    chain: list[int] = []
    overlaps: list[float | None] = []
    reach = left
    prev_right: float | None = None
    while True:
        bound = reach if prev_right is None else prev_right - overlap_min
        best = None
        for i in order:
            lo, hi = images[i]
            if lo > bound:
                break
            if best is None or hi > images[best][1] or (
                hi == images[best][1] and lo < images[best][0]
            ):
                if hi > reach:
                    best = i
        if best is None:
            return None, (reach, right)
        lo, hi = images[best]
        overlaps.append(None if prev_right is None else prev_right - lo)
        chain.append(best)
        prev_right = hi
        reach = hi
        if reach >= right:
            return chain, overlaps


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _band(a_values: Sequence[float]) -> tuple[str, float, float]:
    mags = [abs(a) for a in a_values]
    lo, hi = min(mags), max(mags)
    if lo <= BAND_TOL:
        raise BandViolation(f"contraction factor touches 0: min |A| = {lo!r}")
    if hi < 1.0 - BAND_TOL:
        return "cs", lo, hi
    if lo > 1.0 + BAND_TOL:
        return "cu", lo, hi
    raise BandViolation(
        f"contraction factors straddle or touch 1: |A| in [{lo!r}, {hi!r}]"
    )


class _Cover(NamedTuple):
    """One cover attempt at a fixed c: the images of I, then either the
    chain and its overlaps or (chain None) the uncovered gap."""
    images: list[tuple[float, float]]
    chain: list[int] | None
    overlaps: list[float | None]
    gap: tuple[float, float] | None
    overlap_min: float


def _cover_frame(
    c: float | np.ndarray, delta: float, overlap_min: float | None, eff_min: float
) -> tuple:
    """(half, omin, left, right) of the cover test at c, a float or an array
    of them: I's half-width c*delta, the overlap requirement, and the ends
    of the neighbourhood [-half - omin/2, half + omin/2] that the chain must
    cover."""
    half = c * delta
    omin = half * min(0.1, eff_min) if overlap_min is None else overlap_min
    nu = omin / 2.0
    return half, omin, -half - nu, half + nu


def _c_grid(c_frac: float) -> tuple[float, ...]:
    """The descent's c values: c_frac times AUTO_SHRINK_FACTOR, repeatedly,
    while above AUTO_SHRINK_FLOOR (277 values from 0.5)."""
    grid = []
    c_try = c_frac
    while c_try > AUTO_SHRINK_FLOOR:
        grid.append(c_try)
        c_try *= AUTO_SHRINK_FACTOR
    return tuple(grid)


def _chain_mask(
    eff_a: np.ndarray, eff_b: np.ndarray, cs: np.ndarray, delta: float,
    overlap_min: float | None, eff_min: float,
) -> np.ndarray:
    """For each c of `cs`, False where no covering chain can exist.

    Row j holds the images of I and the ends of the neighbourhood at cs[j],
    the same floats as the cover test at that c.  Sorted by low end, image
    i passes when lo_i <= left, or lo_i <= before_i - omin, or before_i >=
    right, where before_i is the largest high end of the images sorted
    before it.  A c passes when every image does and some high end reaches
    right, or when an image end is NaN.
    """
    half, omin, left, right = _cover_frame(cs, delta, overlap_min, eff_min)
    e1 = eff_a * -half[:, None] + eff_b
    e2 = eff_a * half[:, None] + eff_b
    lo = np.minimum(e1, e2)
    order = np.argsort(lo, axis=1)
    lo = np.take_along_axis(lo, order, axis=1)
    hi = np.take_along_axis(np.maximum(e1, e2), order, axis=1)
    reach = np.maximum.accumulate(hi, axis=1)
    before = np.empty_like(reach)
    before[:, 0] = -np.inf
    before[:, 1:] = reach[:, :-1]
    passes = (
        (lo <= left[:, None]) | (lo <= before - np.reshape(omin, (-1, 1)))
        | (before >= right[:, None])
    )
    return (passes.all(axis=1) & (reach[:, -1] >= right)) | np.isnan(lo).any(axis=1)


def _masked_grid(
    eff_a: np.ndarray, eff_b: np.ndarray, c_frac: float, delta: float,
    overlap_min: float | None, eff_min: float,
) -> Iterator[float]:
    """The grid values `_chain_mask` keeps, in grid order.  The mask is taken
    on a block of grid values at a time, at most MASK_CELLS images, so a
    large pair set needs no pairs x 277 arrays, and the blocks after the
    first chained c are never computed."""
    grid = _c_grid(c_frac)
    rows = max(1, MASK_CELLS // len(eff_a))
    for start in range(0, len(grid), rows):
        block = grid[start:start + rows]
        mask = _chain_mask(eff_a, eff_b, np.array(block), delta, overlap_min, eff_min)
        yield from (c for c, ok in zip(block, mask.tolist()) if ok)


def certify(
    spec: CycleSpec,
    pairs: PairSequence,
    overlap_min: float | None = None,
    c: float | None = None,
) -> BlenderCertificate:
    """Build a covering certificate from a pair sequence.

    With c given, coverage is checked at exactly that interval; with c=None
    the largest feasible c <= spec.c_frac is located as below and reported
    in the certificate.  The default overlap requirement is 0.1*c*delta,
    re-derived for each candidate c, and the cone aperture is min(0.1,
    overlap_min/(4*delta)).

    The search steps down the grid c_frac * AUTO_SHRINK_FACTOR**j (each
    value the float of repeated multiplication) while c > AUTO_SHRINK_FLOOR,
    and takes the first c at which `chain_cover` finds a chain.  It does not
    walk a chain at every grid value: an array pass (`_chain_mask`) over
    all pairs and grid values first rules out the c at which no chain can
    exist, and `chain_cover` runs only on the others, in grid order
    (`_masked_grid`, which takes the mask a block of grid values at a time
    for a large pair set).  When the mask rules out every c, no chain is
    walked at all.

    The mask never rules out a c at which `chain_cover` finds a chain, so
    the c found, and the certificate, are those of the walk over every grid
    value.  Take the chain j_1, ..., j_L that `chain_cover` returns: lo_j1
    <= left, lo_j(t+1) <= fl(hi_jt - omin), the high ends strictly
    increase and hi_jL >= right.  So some high end reaches right.  Take any
    image i sorted by low end, and before_i the largest high end of the
    images sorted before it.  If before_i >= right, i passes.  Otherwise let
    j be the first link with hi_j > before_i; j is not sorted before i, so
    lo_i <= lo_j.  If j is the first link, lo_i <= lo_j <= left.  Else the
    previous link has hi_prev <= before_i, and since rounding is monotone,
    lo_i <= lo_j <= fl(hi_prev - omin) <= fl(before_i - omin).  Either way
    i passes, and no tolerance is needed, as the mask compares the very
    floats `chain_cover` compares.  At overlap 0 the mask is the exact
    union sweep, so there every c it keeps chains.

    From the first c with a chain, 50 bisection steps refine c upward in
    [c, min(c_frac, c/AUTO_SHRINK_FACTOR)], keeping the last c that chains.
    """
    if not pairs.pairs:
        raise CoverageGap("empty pair set", uncovered=None)
    kind, lo, hi = _band(pairs.A_values)
    eff_a, eff_b = _contracting_maps(pairs.A_values, pairs.B_values, kind)
    # the default overlap 0.1*c*delta is capped at half the smallest effective
    # image width, so it stays attainable for strongly contracting bands
    eff_min = lo if kind == "cs" else 1.0 / hi
    delta = spec.delta

    def attempt(c_try: float) -> _Cover:
        half, omin, left, right = _cover_frame(c_try, delta, overlap_min, eff_min)
        images = _affine_images(eff_a, eff_b, -half, half)
        chain, found = chain_cover(images, left, right, omin)
        if chain is None:
            return _Cover(images, None, [], found, omin)
        return _Cover(images, chain, found, None, omin)

    if c is not None:
        cover = attempt(c)
        if cover.chain is None:
            raise CoverageGap(
                f"images do not cover a neighborhood of I at c={c!r}",
                uncovered=cover.gap,
            )
        c_used = c
    else:
        cover = None
        for c_try in _masked_grid(eff_a, eff_b, spec.c_frac, delta, overlap_min, eff_min):
            cover = attempt(c_try)
            if cover.chain is not None:
                break
        if cover is None or cover.chain is None:
            raise CoverageGap(
                "no interval size admits a covering chain", uncovered=None
            )
        # refine upward toward the largest feasible c in the last bracket
        c_lo = c_try
        c_hi = min(spec.c_frac, c_try / AUTO_SHRINK_FACTOR)
        for _ in range(50):
            mid = 0.5 * (c_lo + c_hi)
            trial = attempt(mid)
            if trial.chain is not None:
                c_lo, cover = mid, trial
            else:
                c_hi = mid
        c_used = c_lo

    omin = cover.overlap_min
    half = c_used * delta
    witness = tuple(
        WitnessEntry(n=i, interval=cover.images[i], overlap=o)
        for i, o in zip(cover.chain, cover.overlaps)
    )
    cube = ActivatingCube(
        x_center=0.0, x_half=half, delta=delta,
        y_dim=spec.y_dim, z_dim=spec.z_dim,
    )
    return BlenderCertificate(
        blender_kind=kind,
        index=spec.d1 if kind == "cs" else spec.d2,
        pair_set=tuple(pairs.pairs),
        A_values=tuple(pairs.A_values),
        B_values=tuple(pairs.B_values),
        interval_I=(-half, half),
        c=c_used,
        delta=delta,
        witness=witness,
        A_band=(lo, hi),
        cone_K=min(0.1, omin / (4.0 * delta)),
        activating_cube=cube,
        overlap_min=omin,
        neighborhood_margin=omin / 2.0,
    )


def recheck_witness(cert: BlenderCertificate) -> bool:
    """Recompute every witness image from (A_n, B_n, c, delta) and re-verify
    coverage and overlaps by exact arithmetic."""
    eff_a, eff_b = cert.effective_maps()
    lo_i, hi_i = cert.interval_I
    images = _affine_images(eff_a, eff_b, lo_i, hi_i)
    prev_right = None
    reach = lo_i - cert.neighborhood_margin
    for w in cert.witness:
        lo, hi = images[w.n]
        if not (math.isclose(lo, w.interval[0], rel_tol=0, abs_tol=1e-15)
                and math.isclose(hi, w.interval[1], rel_tol=0, abs_tol=1e-15)):
            return False
        if prev_right is not None:
            if prev_right - lo < cert.overlap_min - 1e-12:
                return False
            if w.overlap is None or abs((prev_right - lo) - w.overlap) > 1e-12:
                return False
        if lo > reach:
            return False
        reach = max(reach, hi)
        prev_right = hi
    return reach >= hi_i + cert.neighborhood_margin


# ---------------------------------------------------------------------------
# Covering simulation
# ---------------------------------------------------------------------------

def _json_number(value: float) -> str:
    """A number as canonical JSON writes it: a non-finite float as its repr
    string."""
    return repr(value) if math.isfinite(value) else f'"{value!r}"'


@dataclass(frozen=True, eq=False)
class CoveringSimReport:
    """The discs of one pullback as columns: disc j is entry j of each list
    or array, and row j of `taken`.  The summary (`n_discs`, `depth`,
    `survivors`, `all_ok` and the step factor range) is read off the
    columns; the range is taken once, on first read.

    `to_json_text` writes the report's canonical JSON straight from the
    columns: the summary, and under `per_disc` one object per disc with its
    `fail_step`, `index`, `note`, `ok`, `steps` (the pair index taken at
    each completed step), `step_factors` (their |A_n|), `x_center` and
    `x_extent`.  It takes the repr of each pair's |A| and the str of each
    pair index once, keyed by pair index (not by float value, since 0.0 ==
    -0.0 and NaN != NaN), and looks each step up in those tables.
    """
    indices: list[int]
    x_extent: float
    centers: np.ndarray          # X-centers
    fail_steps: list[int | None]  # step at which the disc stopped; None if it survived
    notes: list[str]             # why the disc stopped; "" if it survived
    taken: np.ndarray            # (discs, depth) pair index taken at each step
    abs_a: np.ndarray            # |A_n| of each pair of the certificate

    @property
    def n_discs(self) -> int:
        return len(self.indices)

    @property
    def depth(self) -> int:
        return self.taken.shape[1]

    @property
    def survivors(self) -> int:
        return self.fail_steps.count(None)

    @property
    def all_ok(self) -> bool:
        return self.survivors == self.n_discs

    def completed(self) -> np.ndarray:
        """(discs, depth) mask of the steps each disc completed; `taken` is
        0 past a failed disc's last completed step."""
        done = [self.depth if f is None else f - 1 for f in self.fail_steps]
        return np.arange(self.depth) < np.array(done, dtype=int).reshape(-1, 1)

    @cached_property
    def step_factor_range(self) -> tuple[float, float]:
        """(min, max) of |A_n| over every completed step; NaN when no disc
        completed one."""
        factors = self.abs_a[self.taken[self.completed()]]
        return (float(factors.min()), float(factors.max())) if factors.size else (math.nan,) * 2

    @property
    def step_factor_min(self) -> float:
        return self.step_factor_range[0]

    @property
    def step_factor_max(self) -> float:
        return self.step_factor_range[1]

    def to_json_text(self) -> str:
        """The report's canonical JSON, written from the columns."""
        depth = self.depth
        # token tables by pair index + 1; entry 0 is the empty token of a
        # step the disc did not complete
        factors = [_json_number(v) for v in self.abs_a.tolist()]
        steps = [str(n) for n in range(len(factors))]
        pieces = np.empty((self.n_discs, 2 * depth + 3), dtype=object)
        if depth:
            token = np.where(self.completed(), self.taken + 1, 0)
            for col, table in ((1, factors), (depth + 2, steps)):
                pieces[:, col] = np.array([""] + table, dtype=object)[token[:, 0]]
                later = np.array([""] + ["," + t for t in table], dtype=object)
                pieces[:, col + 1:col + depth] = later[token[:, 1:]]
        encode = json.encoder.encode_basestring_ascii
        extent = _json_number(self.x_extent)
        pieces[:, 0] = [
            f'{"," if j else ""}{{"fail_step":{"null" if fail is None else fail},'
            f'"index":{index},"note":{encode(note)},"ok":{"true" if fail is None else "false"},'
            f'"step_factors":['
            for j, (index, fail, note) in enumerate(zip(self.indices, self.fail_steps, self.notes))
        ]
        pieces[:, depth + 1] = '],"steps":['
        pieces[:, -1] = [f'],"x_center":{_json_number(x)},"x_extent":{extent}}}'
                         for x in self.centers.tolist()]
        return (
            f'{{"all_ok":{"true" if self.all_ok else "false"},"depth":{depth},'
            f'"n_discs":{self.n_discs},"per_disc":[{"".join(pieces.ravel().tolist())}],'
            f'"step_factor_max":{_json_number(self.step_factor_max)},'
            f'"step_factor_min":{_json_number(self.step_factor_min)},'
            f'"survivors":{self.survivors}}}'
        )


def _pull_back(
    cert: BlenderCertificate,
    seed: int,
    indices: Sequence[int],
    depth: int,
    x_centers: Sequence[float] | None = None,
    x_extent: float | None = None,
) -> CoveringSimReport:
    """Pull sampled discs through the witness chain to the given depth, all
    discs of the call at once, and return the report whose columns hold,
    per disc, its index, X-center, the step at which it stopped and why, and
    the pair index taken at each step it completed.

    Disc i takes its draws from the stream `philox_rng(seed, i)`, all streams
    evaluated together by `philox_doubles`.  When the X-center is drawn, it
    takes the first draw and the phase the second.  When `x_centers` fixes
    the center, or the disc is wider than I and sits at I's midpoint, the
    phase takes the first draw.  The disc is a graph over the cone block
    with X-range [center - e/2, center + e/2]; after the first pullback the
    strong contraction collapses it to its anchor point, so later steps
    track interval membership of a single X value.  Each step takes the
    first witness of largest containment margin (a NaN margin counts as
    -inf); a disc whose best margin is negative stops there.  A step's
    factor is |A_n| of the pair taken at that step.
    """
    lo_i, hi_i = cert.interval_I
    extent = cert.overlap_min / 2.0 if x_extent is None else x_extent
    amp = pad = extent / 2.0
    indices = list(indices)
    first, second = philox_doubles(seed, indices)
    low, high = lo_i + pad, hi_i - pad
    if x_centers is not None:
        centers, phase_u = np.asarray(x_centers, dtype=float), first
    elif low < high:  # uniform(low, high), then the phase
        centers, phase_u = low + (high - low) * first, second
    else:  # disc wider than the interval; center it and let the chain judge
        centers, phase_u = np.full(len(indices), 0.5 * (lo_i + hi_i)), first
    # uniform(0, 2*pi); libm's sin, as numpy's SIMD sin may round differently
    sines = [math.sin(p) for p in ((2.0 * math.pi) * phase_u).tolist()]
    x_point = centers + amp * np.array(sines, dtype=float)

    eff_a, eff_b = cert.effective_maps()
    wit_n = np.array([w.n for w in cert.witness], dtype=int)
    wit_lo = np.array([w.interval[0] for w in cert.witness], dtype=float)
    wit_hi = np.array([w.interval[1] for w in cert.witness], dtype=float)
    n_discs = len(indices)
    taken = np.zeros((n_discs, depth), dtype=int)   # witness index per step
    fail_step: list[int | None] = [None] * n_discs
    notes = [""] * n_discs

    alive = np.arange(n_discs)
    x_lo = centers - amp
    x_hi = centers + amp
    for step in range(1, depth + 1):
        margin = np.minimum(x_lo[:, None] - wit_lo, wit_hi - x_hi[:, None])
        margin[np.isnan(margin)] = -np.inf
        best = np.argmax(margin, axis=1)
        best_margin = margin[np.arange(alive.size), best]
        keep = best_margin >= 0.0
        for j in np.flatnonzero(~keep).tolist():
            fail_step[alive[j]] = step
            notes[alive[j]] = (
                f"X-range [{float(x_lo[j])!r}, {float(x_hi[j])!r}] exceeds every "
                f"witness image; best containment margin {float(best_margin[j])!r} < 0 "
                f"(extent above the overlap guarantee)"
            )
        alive, n_sel = alive[keep], wit_n[best[keep]]
        taken[alive, step - 1] = n_sel
        x_point = (x_point[keep] - eff_b[n_sel]) / eff_a[n_sel]
        # strong transverse contraction collapses the pulled-back disc
        x_lo = x_hi = x_point

    return CoveringSimReport(
        indices=indices, x_extent=extent, centers=centers, fail_steps=fail_step, notes=notes,
        taken=taken, abs_a=np.abs(np.asarray(cert.A_values, dtype=float)),
    )


def simulate_covering(
    spec: CycleSpec,
    cert: BlenderCertificate,
    n_discs: int,
    seed: int,
    depth: int,
) -> CoveringSimReport:
    """Sample discs crossing the activating cube and run the pullback chain.

    Results are deterministic in (seed, disc index); discs come in disc
    order.
    """
    del spec  # geometry comes from the certificate
    return _pull_back(cert, seed, range(n_discs), depth)


# ---------------------------------------------------------------------------
# Activation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActivationReport:
    a_kind: str
    b_kind: str
    a_activates_b: bool
    b_activates_a: bool
    a_to_b_survivors: int
    b_to_a_survivors: int
    n_discs: int
    diagnostic: str = ""

    @property
    def mutual(self) -> bool:
        return self.a_activates_b and self.b_activates_a

    def to_json_dict(self) -> dict[str, Any]:
        return {**vars(self), "mutual": self.mutual}


def _attractor_points(
    cert: BlenderCertificate, count: int, rng: np.random.Generator
) -> list[float]:
    """Chaos-game samples of the invariant set of the contracting system."""
    eff_a, eff_b = cert.effective_maps()
    n = len(eff_a)
    x = cert.x_center
    for _ in range(60):  # warm-up into the attractor
        i = int(rng.integers(n))
        x = float(eff_a[i]) * x + float(eff_b[i])
    points = []
    for _ in range(count):
        i = int(rng.integers(n))
        x = float(eff_a[i]) * x + float(eff_b[i])
        points.append(x)
    return points


def check_activation(
    cert_a: BlenderCertificate,
    cert_b: BlenderCertificate,
    n_discs: int = 40,
    seed: int = 0,
    depth: int = 12,
) -> ActivationReport:
    """Test mutual activation by feeding manifold discs of each certificate's
    invariant set through the other certificate's covering chain.

    The local manifolds of points of one blender cross the cube as graphs of
    the type the other blender's cone selects, anchored at the point's X
    value.  Activation is an existence statement (one crossing disc of the
    source meeting the destination's activating pair suffices), so a
    direction counts as activated when at least one sampled disc survives;
    the survivor counts expose how much of the source set does.
    """
    if cert_a.blender_kind == cert_b.blender_kind:
        raise KindMismatch("activation check needs one cs and one cu certificate")

    def direction(src: BlenderCertificate, dst: BlenderCertificate,
                  salt: int) -> tuple[int, str]:
        points = _attractor_points(src, n_discs, philox_rng(seed, salt))
        discs = _pull_back(dst, seed + salt, range(n_discs), depth, x_centers=points)
        missed = next((j for j, f in enumerate(discs.fail_steps) if f is not None), None)
        diag = "" if missed is None else (
            f"disc at X={float(discs.centers[missed])!r} from the {src.blender_kind} set "
            f"misses the {dst.blender_kind} covering: {discs.notes[missed]}"
        )
        return discs.survivors, diag

    a_ok, diag_ab = direction(cert_a, cert_b, salt=1)
    b_ok, diag_ba = direction(cert_b, cert_a, salt=2)
    diagnostic = "; ".join(d for d in (diag_ab, diag_ba) if d)
    return ActivationReport(
        a_kind=cert_a.blender_kind,
        b_kind=cert_b.blender_kind,
        a_activates_b=a_ok >= 1,
        b_activates_a=b_ok >= 1,
        a_to_b_survivors=a_ok,
        b_to_a_survivors=b_ok,
        n_discs=n_discs,
        diagnostic=diagnostic,
    )
