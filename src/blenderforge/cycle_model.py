"""Cycle data model: multipliers, reduced transition coefficients, declared
modulus arithmetic, and the case dispatch driving the pair searches.

A cycle instance is a plain coefficient record (`CycleSpec`).  Whether the
moduli are rational, and which integer relations hold among them, cannot be
inferred from floats, so that information lives in a separate declaration
record (`Moduli`) which is validated against the spec values but never
guessed from them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .diophantine import relation_residual
from .errors import AmbiguousClassification, DomainError

TWO_PI = 2.0 * math.pi
#: coefficients that `validate_nondegeneracy` needs nonzero must exceed this
ZERO_TOL = 1e-12
#: largest gap between a declared rational modulus and the spec's float value
CHECK_TOL = 1e-9

#: basis labels for integer-relation declarations, in canonical order
RELATION_BASIS = ("theta", "omega1", "omega2", "theta_omega2", "one")


class CycleType(str, Enum):
    SADDLE_FOCUS = "saddle_focus"
    DOUBLE_FOCUS = "double_focus"


class CaseTag(str, Enum):
    SF_1 = "SF-1"
    SF_2 = "SF-2"
    SF_3 = "SF-3"
    SF_RATIONAL_ALL = "SF-rational-all"
    DF_1 = "DF-1"
    DF_2_1 = "DF-2.1"
    DF_2_2 = "DF-2.2"
    DF_3_1 = "DF-3.1"
    DF_3_2 = "DF-3.2"
    DF_3_3_1 = "DF-3.3.1"
    DF_3_3_2 = "DF-3.3.2"
    DF_RATIONAL_ALL = "DF-rational-all"


@dataclass(frozen=True)
class CycleSpec:
    """Coefficient record of one cycle instance.

    Ranges (0 < lam < 1 < |gamma|, angles strictly inside (0, pi), sign and
    nondegeneracy constraints) are checked by `validate_nondegeneracy`,
    which reports rather than raises; the constructor only enforces the
    structural shape (which fields must be present for which cycle type).
    """

    cycle_type: CycleType
    lam: float
    gamma: float
    omega1: float
    A_coef: float
    B_coef: float
    b_coef: float
    u_minus: float | tuple[float, float]
    eta1: float
    eta2: float
    d: int
    d1: int
    d2: int
    omega2: float | None = None
    eta3: float | None = None
    delta: float = 0.1
    c_frac: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "cycle_type", CycleType(self.cycle_type))
        if self.cycle_type is CycleType.DOUBLE_FOCUS:
            if self.omega2 is None or self.eta3 is None:
                raise DomainError("double_focus requires omega2 and eta3")
            u = self.u_minus
            if not (isinstance(u, Sequence) and len(u) == 2):
                raise DomainError("double_focus requires a 2-vector u_minus")
            object.__setattr__(self, "u_minus", (float(u[0]), float(u[1])))
        else:
            if isinstance(self.u_minus, Sequence):
                raise DomainError("saddle_focus requires a scalar u_minus")
            object.__setattr__(self, "u_minus", float(self.u_minus))

    # -- convenience accessors -------------------------------------------

    @property
    def is_saddle_focus(self) -> bool:
        return self.cycle_type is CycleType.SADDLE_FOCUS

    @property
    def u_scalar(self) -> float:
        if not self.is_saddle_focus:
            raise DomainError("u_scalar is a saddle_focus accessor")
        return self.u_minus  # type: ignore[return-value]

    @property
    def u_pair(self) -> tuple[float, float]:
        if self.is_saddle_focus:
            raise DomainError("u_pair is a double_focus accessor")
        return self.u_minus  # type: ignore[return-value]

    @property
    def y_dim(self) -> int:
        """Dimension of the expanding block of the model cube."""
        return self.d1 if self.is_saddle_focus else self.d2 - 1

    @property
    def z_dim(self) -> int:
        """Dimension of the contracting block of the model cube."""
        return (self.d - self.d1 - 1) if self.is_saddle_focus else (self.d - self.d2)

    # -- JSON --------------------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        """The fields, `lam` as "lambda"; omega2 and eta3 only when set."""
        doc = {k: v for k, v in vars(self).items() if v is not None and k != "lam"}
        return {**doc, "lambda": self.lam}

    @classmethod
    def from_json_dict(cls, doc: Mapping[str, Any]) -> "CycleSpec":
        known = {
            "cycle_type", "lambda", "gamma", "omega1", "omega2", "A_coef",
            "B_coef", "b_coef", "u_minus", "eta1", "eta2", "eta3",
            "d", "d1", "d2", "delta", "c_frac",
        }
        unknown = set(doc) - known
        if unknown:
            raise DomainError(f"unknown CycleSpec fields: {sorted(unknown)}")
        if "lambda" not in doc:
            raise DomainError("missing required field 'lambda'")
        u = doc["u_minus"]
        return cls(
            cycle_type=CycleType(doc["cycle_type"]),
            lam=float(doc["lambda"]),
            gamma=float(doc["gamma"]),
            omega1=float(doc["omega1"]),
            omega2=None if doc.get("omega2") is None else float(doc["omega2"]),
            A_coef=float(doc["A_coef"]),
            B_coef=float(doc["B_coef"]),
            b_coef=float(doc["b_coef"]),
            u_minus=tuple(float(v) for v in u) if isinstance(u, (list, tuple)) else float(u),
            eta1=float(doc["eta1"]),
            eta2=float(doc["eta2"]),
            eta3=None if doc.get("eta3") is None else float(doc["eta3"]),
            d=int(doc["d"]),
            d1=int(doc["d1"]),
            d2=int(doc["d2"]),
            delta=float(doc.get("delta", 0.1)),
            c_frac=float(doc.get("c_frac", 0.5)),
        )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationEntry:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[ValidationEntry, ...]

    @property
    def overall(self) -> bool:
        return all(e.ok for e in self.entries)

    def entry(self, name: str) -> ValidationEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_json_dict(self) -> dict[str, Any]:
        return {**vars(self), "overall": self.overall}


def validate_nondegeneracy(spec: CycleSpec) -> ValidationReport:
    """Check every coefficient invariant; failures become report entries.

    Idempotent and side-effect free: validating twice yields equal reports.
    """
    entries: list[ValidationEntry] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        entries.append(ValidationEntry(name, bool(ok), detail))

    check("A > 0", spec.A_coef > 0, f"A={spec.A_coef!r}")
    check("B > 0", spec.B_coef > 0, f"B={spec.B_coef!r}")
    check("b != 0", abs(spec.b_coef) > ZERO_TOL, f"b={spec.b_coef!r}")
    if spec.is_saddle_focus:
        u_norm = abs(spec.u_scalar)
    else:
        u_norm = math.hypot(*spec.u_pair)
    check("u- != 0", u_norm > ZERO_TOL, f"|u-|={u_norm!r}")
    # tan(eta1) != tan(eta2), poles included, is sin(eta1 - eta2) != 0
    check(
        "tan(eta1) != tan(eta2)",
        abs(math.sin(spec.eta1 - spec.eta2)) > ZERO_TOL,
        f"sin(eta1-eta2)={math.sin(spec.eta1 - spec.eta2)!r}",
    )
    check("0 < lambda < 1", 0.0 < spec.lam < 1.0, f"lambda={spec.lam!r}")
    check("|gamma| > 1", abs(spec.gamma) > 1.0, f"gamma={spec.gamma!r}")
    check("omega1 in (0, pi)", 0.0 < spec.omega1 < math.pi, f"omega1={spec.omega1!r}")
    if spec.cycle_type is CycleType.DOUBLE_FOCUS:
        check("gamma > 0 (double focus)", spec.gamma > 0, f"gamma={spec.gamma!r}")
        check(
            "omega2 in (0, pi)",
            spec.omega2 is not None and 0.0 < spec.omega2 < math.pi,
            f"omega2={spec.omega2!r}",
        )
    check("d1 + 1 = d2", spec.d1 + 1 == spec.d2, f"d1={spec.d1}, d2={spec.d2}")
    check("d >= 3", spec.d >= 3, f"d={spec.d}")
    check("d1 >= 1", spec.d1 >= 1, f"d1={spec.d1}")
    if spec.is_saddle_focus:
        check("d - d1 - 1 >= 1", spec.d - spec.d1 - 1 >= 1, f"d={spec.d}, d1={spec.d1}")
    else:
        check("d - d2 >= 1", spec.d - spec.d2 >= 1, f"d={spec.d}, d2={spec.d2}")
        check("d2 - 1 >= 1", spec.d2 - 1 >= 1, f"d2={spec.d2}")
    check("delta > 0", spec.delta > 0, f"delta={spec.delta!r}")
    check("c_frac in (0, 1)", 0.0 < spec.c_frac < 1.0, f"c_frac={spec.c_frac!r}")

    return ValidationReport(tuple(entries))


def compute_theta(spec: CycleSpec) -> float:
    """Log-ratio of the central multipliers, -ln(lam)/ln|gamma| > 0."""
    if not (0.0 < spec.lam < 1.0 and abs(spec.gamma) > 1.0):
        raise DomainError("theta requires 0 < lambda < 1 < |gamma|")
    return -math.log(spec.lam) / math.log(abs(spec.gamma))


# ---------------------------------------------------------------------------
# Modulus declarations
# ---------------------------------------------------------------------------

IRRATIONAL = "irrational_declared"


@dataclass(frozen=True)
class RationalClass:
    """Declared rational value p/q in lowest terms with positive entries."""

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.den <= 0 or self.num <= 0:
            raise DomainError("rational classes store positive integers")
        g = math.gcd(self.num, self.den)
        object.__setattr__(self, "num", self.num // g)
        object.__setattr__(self, "den", self.den // g)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.num, self.den)


ModulusClass = RationalClass | str  # RationalClass or the IRRATIONAL marker


@dataclass(frozen=True)
class DependenceRelation:
    """Integer relation sum(coeffs[k] * basis[k]) == 0 over the modulus basis
    (theta, omega1/2pi, omega2/2pi, theta*omega2/2pi, 1)."""

    coeffs: Mapping[str, int]

    def __post_init__(self) -> None:
        unknown = set(self.coeffs) - set(RELATION_BASIS)
        if unknown:
            raise DomainError(f"unknown relation keys: {sorted(unknown)}")
        nonzero = {k: int(v) for k, v in self.coeffs.items() if int(v) != 0}
        if len(nonzero) < 2:
            raise DomainError("a relation needs at least two nonzero coefficients")
        object.__setattr__(self, "coeffs", dict(nonzero))

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self.coeffs)

    def to_json_dict(self) -> dict[str, int]:
        return dict(self.coeffs)


def _flag_key(keys: Sequence[str]) -> str:
    return "+".join(sorted(keys))


DEPENDENT = "dependent"
INDEPENDENT = "independent"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Moduli:
    """Declared arithmetic of the conjugacy invariants.

    `theta` carries the numeric value actually used by searches; it honors a
    declared rational class or dependence relation exactly, so lattice
    substitutions in the searches are consistent with the declaration.
    """

    theta: float
    theta_class: ModulusClass
    omega1_class: ModulusClass
    omega2_class: ModulusClass | None = None
    relations: tuple[DependenceRelation, ...] = ()
    declared_flags: Mapping[str, str] = field(default_factory=dict)

    def is_rational(self, name: str) -> bool:
        cls = {"theta": self.theta_class, "omega1": self.omega1_class,
               "omega2": self.omega2_class}[name]
        return isinstance(cls, RationalClass)

    def rational(self, name: str) -> Fraction:
        cls = {"theta": self.theta_class, "omega1": self.omega1_class,
               "omega2": self.omega2_class}[name]
        if not isinstance(cls, RationalClass):
            raise DomainError(f"{name} is not declared rational")
        return cls.fraction

    def relation_for(self, keys: Sequence[str]) -> DependenceRelation | None:
        want = frozenset(keys)
        for rel in self.relations:
            if rel.support <= want:
                return rel
        return None

    def dependence(self, keys: Sequence[str]) -> str:
        """Verdict for rational (in)dependence of the given basis subset."""
        keys = tuple(keys)
        if self.relation_for(keys) is not None:
            return DEPENDENT
        # trivial dependences forced by rational members
        if "theta" in keys and self.is_rational("theta"):
            return DEPENDENT
        if "omega1" in keys and self.is_rational("omega1"):
            return DEPENDENT
        if "omega2" in keys and self.omega2_class is not None and self.is_rational("omega2"):
            return DEPENDENT
        if "theta_omega2" in keys:
            if self.omega2_class is not None and self.is_rational("omega2") and "theta" in keys:
                return DEPENDENT  # q2*(theta*w2) - p2*theta = 0
            if self.is_rational("theta") and self.omega2_class is not None \
                    and self.is_rational("omega2"):
                return DEPENDENT
        return self.declared_flags.get(_flag_key(keys), UNKNOWN)

    def to_json_dict(self) -> dict[str, Any]:
        """The fields, the IRRATIONAL marker as "irrational" and
        `declared_flags` as "flags"."""
        def cls_doc(cls: ModulusClass | None) -> Any:
            return "irrational" if isinstance(cls, str) else cls

        return {
            "theta": self.theta,
            "theta_class": cls_doc(self.theta_class),
            "omega1_class": cls_doc(self.omega1_class),
            "omega2_class": cls_doc(self.omega2_class),
            "relations": self.relations,
            "flags": self.declared_flags,
        }


def _parse_class(doc: Any) -> ModulusClass:
    if doc == "irrational" or doc == IRRATIONAL:
        return IRRATIONAL
    if isinstance(doc, Mapping) and "num" in doc and "den" in doc:
        return RationalClass(int(doc["num"]), int(doc["den"]))
    raise DomainError(f"cannot parse modulus class: {doc!r}")


def moduli_from_declarations(
    spec: CycleSpec,
    theta_class: ModulusClass | Mapping[str, int] | str,
    omega1_class: ModulusClass | Mapping[str, int] | str,
    omega2_class: ModulusClass | Mapping[str, int] | str | None = None,
    relations: Sequence[DependenceRelation | Mapping[str, int]] = (),
    flags: Mapping[str, str] | None = None,
) -> Moduli:
    """Build a Moduli record and verify each declaration against the spec.

    Declarations are user inputs, never inferred; this only rejects ones
    that contradict the float coefficients beyond CHECK_TOL (a relation's
    residual beyond 10*CHECK_TOL).
    """
    th_cls = theta_class if isinstance(theta_class, (RationalClass, str)) else _parse_class(theta_class)
    w1_cls = omega1_class if isinstance(omega1_class, (RationalClass, str)) else _parse_class(omega1_class)
    w2_cls: ModulusClass | None
    if omega2_class is None:
        w2_cls = None
    elif isinstance(omega2_class, (RationalClass, str)):
        w2_cls = omega2_class
    else:
        w2_cls = _parse_class(omega2_class)
    if spec.cycle_type is CycleType.DOUBLE_FOCUS and w2_cls is None:
        raise DomainError("double_focus moduli require an omega2 class")

    rels = tuple(
        r if isinstance(r, DependenceRelation) else DependenceRelation(r) for r in relations
    )

    theta = compute_theta(spec)
    values = {"theta": theta, "omega1": spec.omega1 / TWO_PI, "one": 1.0}
    if spec.omega2 is not None:
        values["omega2"] = spec.omega2 / TWO_PI
        values["theta_omega2"] = theta * spec.omega2 / TWO_PI

    def check_value(name: str, cls: ModulusClass | None, value: float) -> None:
        if isinstance(cls, RationalClass):
            if abs(value - cls.num / cls.den) > CHECK_TOL:
                raise DomainError(
                    f"declared {name}={cls.num}/{cls.den} but spec gives {value!r}"
                )

    check_value("theta", th_cls, theta)
    check_value("omega1/2pi", w1_cls, spec.omega1 / TWO_PI)
    if w2_cls is not None and spec.omega2 is not None:
        check_value("omega2/2pi", w2_cls, spec.omega2 / TWO_PI)

    for rel in rels:
        missing = rel.support - set(values)
        if missing:
            raise DomainError(f"relation uses undeclared basis entries: {sorted(missing)}")
        if abs(relation_residual(dict(rel.coeffs), values)) > CHECK_TOL * 10:
            raise DomainError(f"declared relation {dict(rel.coeffs)} fails numerically")

    # theta honoring a rational declaration exactly
    if isinstance(th_cls, RationalClass):
        theta = th_cls.num / th_cls.den

    canonical_flags = {
        _flag_key(key.split("+")): verdict for key, verdict in (flags or {}).items()
    }
    mod = Moduli(
        theta=theta,
        theta_class=th_cls,
        omega1_class=w1_cls,
        omega2_class=w2_cls,
        relations=rels,
        declared_flags=canonical_flags,
    )
    for key, verdict in mod.declared_flags.items():
        if verdict not in (DEPENDENT, INDEPENDENT):
            raise DomainError(f"flag {key} must be 'dependent' or 'independent'")
        if verdict == INDEPENDENT:
            subset = tuple(key.split("+"))
            forced = Moduli(theta, th_cls, w1_cls, w2_cls, rels, {}).dependence(subset)
            if forced == DEPENDENT:
                raise DomainError(f"flag {key} declared independent but dependence is forced")
    return mod


def moduli_from_json(spec: CycleSpec, doc: Mapping[str, Any]) -> Moduli:
    return moduli_from_declarations(
        spec,
        theta_class=_parse_class(doc["theta_class"]),
        omega1_class=_parse_class(doc["omega1_class"]),
        omega2_class=None if doc.get("omega2_class") is None else _parse_class(doc["omega2_class"]),
        relations=[DependenceRelation(r) for r in doc.get("relations", ())],
        flags=doc.get("flags", {}),
    )


def load_spec_document(path_or_doc: str | Mapping[str, Any]) -> tuple[CycleSpec, Moduli | None]:
    """Read a JSON document holding a CycleSpec and optional moduli block."""
    if isinstance(path_or_doc, str):
        with open(path_or_doc, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = dict(path_or_doc)
    if "spec" in doc:
        spec = CycleSpec.from_json_dict(doc["spec"])
        mod = moduli_from_json(spec, doc["moduli"]) if "moduli" in doc else None
    else:
        mod_doc = doc.pop("moduli", None)
        spec = CycleSpec.from_json_dict(doc)
        mod = moduli_from_json(spec, mod_doc) if mod_doc else None
    return spec, mod


# ---------------------------------------------------------------------------
# Case dispatch
# ---------------------------------------------------------------------------

def classify_case(moduli: Moduli, spec: CycleSpec) -> CaseTag:
    """Dispatch the declared arithmetic to exactly one case tag.

    Saddle-focus tags: SF-1 (theta irrational, angle rational), SF-2 (angle
    irrational, {theta, omega/2pi, 1} dependent), SF-3 (the same triple
    independent), SF-rational-all.  Double-focus tags follow the analogous
    seven-way split on {theta, omega1/2pi, omega2/2pi, theta*omega2/2pi, 1}.
    """
    if spec.is_saddle_focus:
        w_rat = moduli.is_rational("omega1")
        th_rat = moduli.is_rational("theta")
        if w_rat and th_rat:
            return CaseTag.SF_RATIONAL_ALL
        if w_rat:
            return CaseTag.SF_1
        verdict = moduli.dependence(("theta", "omega1", "one"))
        if verdict == INDEPENDENT:
            return CaseTag.SF_3
        if verdict == DEPENDENT:
            return CaseTag.SF_2
        raise AmbiguousClassification(
            "omega/2pi irrational: need a dependence verdict for {theta, omega1, one}"
        )

    if moduli.omega2_class is None:
        raise AmbiguousClassification("double_focus classification needs omega2 class")
    w1_rat = moduli.is_rational("omega1")
    w2_rat = moduli.is_rational("omega2")
    th_rat = moduli.is_rational("theta")

    if w1_rat and w2_rat:
        if th_rat:
            return CaseTag.DF_RATIONAL_ALL
        return CaseTag.DF_1
    if not w1_rat and w2_rat:
        verdict = moduli.dependence(("theta", "omega1", "one"))
        if verdict == INDEPENDENT:
            return CaseTag.DF_2_1
        if verdict == DEPENDENT:
            return CaseTag.DF_2_2
        raise AmbiguousClassification(
            "need a dependence verdict for {theta, omega1, one}"
        )
    if w1_rat and not w2_rat:
        # mirror case: hypotheses of the 2.x cases applied to the inverse
        # cycle (theta^-1, omega2 in the leading role)
        verdict = moduli.dependence(("theta", "omega2", "one"))
        if verdict == INDEPENDENT:
            return CaseTag.DF_2_1
        if verdict == DEPENDENT:
            return CaseTag.DF_2_2
        raise AmbiguousClassification(
            "need a dependence verdict for {theta, omega2, one}"
        )

    # both angles irrational
    v_big = moduli.dependence(("theta", "omega1", "theta_omega2", "one"))
    if v_big == INDEPENDENT:
        return CaseTag.DF_3_1
    if v_big == UNKNOWN:
        raise AmbiguousClassification(
            "need a dependence verdict for {theta, omega1, theta*omega2, one}"
        )
    v_small = moduli.dependence(("theta", "omega1", "one"))
    if v_small == INDEPENDENT:
        return CaseTag.DF_3_2
    if v_small == UNKNOWN:
        raise AmbiguousClassification(
            "need a dependence verdict for {theta, omega1, one}"
        )
    v_mix = moduli.dependence(("omega1", "theta_omega2", "one"))
    if v_mix == DEPENDENT:
        return CaseTag.DF_3_3_1
    if v_mix == INDEPENDENT:
        return CaseTag.DF_3_3_2
    raise AmbiguousClassification(
        "need a dependence verdict for {omega1, theta*omega2, one}"
    )
