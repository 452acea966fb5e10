"""End-to-end assembly: the surgery invariant through two independent
routes on the diagram side, the perturbative invariant on the
Lie-theoretic side, and the order-by-order comparison

    graded weight of the surgery invariant
        = |H_1|^(number of positive roots) * perturbative invariant.

Certified order bookkeeping: an h-order N statement needs every diagram
with at most 2N internal vertices, so the series truncation is always
run at imax = 2N.  Every input keeps that certificate through the
Gaussian integral: each leg of a strut-free diagram ends at a trivalent
vertex, and a vertex carrying two legs makes the diagram zero, since
swapping the two legs is an automorphism that reverses that vertex's
cyclic order.  So every nonzero term has at most as many legs as
internal vertices, and only ``--valid-degree`` lowers the certified
order.

Both sides need the unknot, and both build it once per label and
order.  The Lie side reads norm-class groups, classes that share one
series: the built-in unknot's are one group from
``rootsys.unknot_classes``, the Weyl fold; a ``--qdata`` file's lattice
sum {beta: series} goes through ``rootsys.norm_classes``, one group per
class.  Either way ``rootsys.tau_poly`` builds tau^PG's framing
polynomials and ``rootsys.tau_pg`` evaluates them at the framing; the
built-in unknot's polynomials are cached per (label, order), a file's
are built on every call.  The diagram side reads a knot only through
its zero-framed wheeled invariant, Omega for the built-in unknot, so
every knot takes one path there, under one key (``knot_key``): the
wheeled knot and the wheeled base, the wheeled knot times the wheeled
unknot, are cached per (key, imax), each route's Gaussian integral as a
framing polynomial per (key, label, order).  A knot file's key holds
its text, so it is parsed once and wheeled once per content and order.

The framing f enters the diagram side last.  The Gaussian integral
glues struts weighted by -1/f, and the definition route's integrand
carries exp(-(f/48) theta), so each route's Gaussian integral is a
Laurent polynomial in f whose coefficients are framing-free graded
weights: ``balg.fg_parts`` glues each integrand once and its part k is
weighed once.  The definition route weighs the parts of each
coefficient X_j of ``reduced_input``; the lemma route weighs those of
the wheeled base alone and never a theta power.  Each route is then one
polynomial per sign s of f, per (key, label, sign, order), with every
framing-dependent series step folded in: the definition route's
numerator times the inverse of the reference surgery on the unknot at
framing s (the unknot key's definition polynomial at f = s, which the
circle check reads too), and the lemma route's wheels pairing times the
theta exponential exp(((3s - f)/48) theta), a polynomial in f, times its
Gaussian integral; theta weighs c h, so the exponential is exp(3s c h /
48) times the sum over k of (-c f h / 48)^k / k!, in closed form.  The
two routes share only the polynomial product ``_poly_product``, known
as far as ``qseries.product_cap`` of its factors' caps.  A route at
framing f sums its polynomial's terms times powers of f
(``qseries.at_framing``, the evaluator that the Lie side's polynomials
share) and multiplies no series.

Every cache is bounded by the keys the command line can reach: labels
of ``LIE_LABELS``, orders up to ``MAX_ORDER`` (a higher order exceeds
the vertex cap before anything is cached, and ``verify`` rejects it up
front for the suites that build diagrams), the two knots of ``_KNOTS``
and the two signs of f.  No cache is keyed by the framing, and callers
only read a cached value.

The gauss suite sums the exponential tensors of the points of the
squared Weyl sum from ``rootsys._lattice_product``, each weighed by its
signed count, into one tensor that the Wick operator contracts once,
framing-free; the bridge suite builds both of its Gaussian integrals
framing-free too, and each check reads its polynomials at its framings.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from . import balg, liews, rootsys
from .diagrams import (
    EMPTY_FORM, MAX_VERTICES, DiagramSeries, StructuralError, series_of)
from .qseries import (
    FramingPoly, FrozenRecord, HSeries, _echo, at_framing, json_list,
    json_object, modified_bernoulli, parse_json_int, product_cap, q_power,
    rational_str, sinh_ratio, sum_products)

LIE_LABELS = ("A1", "A2", "A3")

#: Highest h-order the vertex cap admits: order k runs at imax = 2k, whose
#: wheels reach the 2k-gon, 4k vertices with its legs.
MAX_ORDER = MAX_VERTICES // 4

#: Highest h-order of ``taupg``, which builds no diagram: its series work
#: grows about as order^3, and order 200 takes about a second at A3 in a
#: fresh process.
MAX_TAUPG_ORDER = 200


@lru_cache(maxsize=len(LIE_LABELS))
def lie_pair(label: str) -> tuple[rootsys.RootSystem, liews.LieAlgebraData]:
    """Matched root-system and Lie-algebra data for one CLI label."""
    if label not in LIE_LABELS:
        raise ValueError(f"unsupported Lie algebra label {label!r}")
    rs = rootsys.build_root_system(label)
    g = liews.build_sl(rs.rank + 1)
    return rs, g


class InputError(ValueError):
    """User input the kernel cannot run on (framing 0, a missing file or
    option)."""


class SurgeryInput(FrozenRecord):
    """A framed knot: the builtin unknot or a diagram-series file with
    the zero-framed wheeled invariant of the knot; ``knot`` is "unknot"
    or the file's path."""

    __slots__ = ("knot", "framing", "declared_valid_degree")

    def __init__(self, knot: str, framing: int,
                 declared_valid_degree: int | None = None):
        if framing == 0:
            raise InputError("framing 0 does not give a rational homology "
                             "sphere")
        if (declared_valid_degree or 0) < 0:
            raise InputError("the declared valid degree must be >= 0, got "
                             f"{declared_valid_degree}")
        self._set_fields(knot, framing, declared_valid_degree)

    @property
    def is_builtin(self) -> bool:
        return self.knot == "unknot"

    @property
    def h1_order(self) -> int:
        return abs(self.framing)

    @property
    def sign(self) -> int:
        return 1 if self.framing > 0 else -1


class InputFileError(InputError):
    """A knot or expansion-data file that is missing or malformed."""


@contextmanager
def _file_errors(path: str, what: str):
    """Any way the file ``path`` can be unreadable or malformed, JSON
    nested past the parser's recursion limit included, surfaces as one
    InputFileError that names it."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            ArithmeticError, RecursionError) as exc:
        raise InputFileError(f"{what} {path}: {exc}") from exc


#: The key of a knot's diagram-side caches: the built-in unknot's, or a
#: knot file's path and text.
KnotKey = tuple[str, str | None]

_UNKNOT_KEY: KnotKey = ("unknot", None)

#: The knots one command reaches, the built-in unknot and one knot
#: file; a process that reads more files drops the least recently used.
_KNOTS = 2


def knot_key(inp: SurgeryInput) -> KnotKey:
    """The key of the knot's diagram-side caches.  A knot file is read
    on every call, so a rewritten file gets a new key."""
    if inp.is_builtin:
        return _UNKNOT_KEY
    with _file_errors(inp.knot, "knot file"):
        return inp.knot, Path(inp.knot).read_text()


@lru_cache(maxsize=_KNOTS * MAX_ORDER)
def _wheeled_knot(key: KnotKey, imax: int) -> DiagramSeries:
    """The knot's zero-framed wheeled invariant under the wheeling
    inverse.  The built-in unknot's invariant is Omega, and its wheeled
    knot is the wheeled-unknot correction of every base; a knot file's
    series must be strut-free, with degree-0 coefficient 1 (the wheeled
    invariant of a knot is group-like)."""
    path, text = key
    if text is None:
        return balg.wheeling_inverse(balg.omega(imax))
    with _file_errors(path, "knot file"):
        s = DiagramSeries.from_json(
            json.loads(text, parse_int=parse_json_int), imax)
        balg._assert_strut_free(s, "knot input file")
        if s.coeff(EMPTY_FORM) != 1:
            raise ValueError("the coefficient of the empty diagram is "
                             f"{s.coeff(EMPTY_FORM)}, not 1")
    return balg.wheeling_inverse(s)


@lru_cache(maxsize=_KNOTS * MAX_ORDER)
def _wheeled_base(key: KnotKey, imax: int) -> DiagramSeries:
    """Wheeled knot part times the wheeled unknot correction, which no
    framing changes; callers share the cached value and only read it."""
    return _wheeled_knot(key, imax).union(_wheeled_knot(_UNKNOT_KEY, imax))


def reduced_input(key: KnotKey, imax: int) -> dict[int, DiagramSeries]:
    """The strut-free Gaussian integrand of the definition route, as its
    coefficients X_j in c = -f/48: {j: wheeled base ⊔ theta^j / j!} for
    2j <= ``imax``.  The integrand at framing f is the wheeled base times
    the theta part exp(c theta) of the framing exponential exp((f/2)(strut
    - theta/24)), which is the sum over j of c^j X_j; its strut part is the
    quadratic form of the Gaussian integral.  No X_j depends on f."""
    th = series_of(balg.theta(), imax)
    out = {0: _wheeled_base(key, imax)}
    for j in range(1, imax // 2 + 1):
        out[j] = out[j - 1].union(th).scale(Fraction(1, j))
    return out


def hat_scalar(s: DiagramSeries, g: liews.LieAlgebraData,
               cap: int) -> HSeries:
    """Graded weight of a closed series; a form with legs is rejected
    before anything is weighed."""
    if any(form.m for form in s.terms):
        raise StructuralError("expected a closed (scalar) series")
    return liews.hat_weight(s, g, cap).get((), HSeries.zero(cap))


@lru_cache(maxsize=len(LIE_LABELS) * MAX_ORDER)
def _omega_pair_scalar(label: str, order: int) -> HSeries:
    """The graded weight of the wheels pairing <Omega, Omega>.  The keys
    are a label of ``LIE_LABELS`` and an order up to ``MAX_ORDER``: the
    lemma route's order and the omega and circle checks' max(order, 4),
    both bounded up front."""
    _, g = lie_pair(label)
    om = balg.omega(2 * order)
    return hat_scalar(balg.pair(om, om), g, order)


@lru_cache(maxsize=len(LIE_LABELS) * MAX_ORDER)
def _theta_weight(label: str, order: int) -> HSeries:
    """The graded weight of the theta graph, on the keys of
    ``_omega_pair_scalar``."""
    _, g = lie_pair(label)
    return hat_scalar(series_of(balg.theta(), 2 * order), g, order)


def _framing_poly(terms, cap: int) -> FramingPoly:
    """The sum of c f^e W over terms (e, c, W), W known through h^cap."""
    return FramingPoly(sum_products(((e, n), c, a) for e, c, w in terms
                                    for n, a in w.coeffs.items()), cap)


@lru_cache(maxsize=_KNOTS * len(LIE_LABELS) * MAX_ORDER)
def _definition_poly(key: KnotKey, label: str, order: int) -> FramingPoly:
    """The definition route's numerator as a polynomial in f: the sum of
    (-f/48)^j (-1/f)^k W_jk, where W_jk is the graded weight of part k of
    the Gaussian integral of the integrand's coefficient X_j."""
    _, g = lie_pair(label)
    return _framing_poly(
        ((j - k, Fraction(-1, 48) ** j * (-1) ** k, hat_scalar(part, g, order))
         for j, x in reduced_input(key, 2 * order).items()
         for k, part in balg.fg_parts(x).items()), order)


def _fg_poly(y: DiagramSeries, g: liews.LieAlgebraData,
             cap: int) -> FramingPoly:
    """The graded weight of the Gaussian integral of a strut-free ``y``
    as a polynomial in f known through h^cap: the sum of (-1/f)^k W_k,
    where W_k is the graded weight of part k of ``balg.fg_parts(y)``,
    each part weighed once."""
    return _framing_poly(((-k, (-1) ** k, hat_scalar(part, g, cap))
                          for k, part in balg.fg_parts(y).items()), cap)


@lru_cache(maxsize=_KNOTS * len(LIE_LABELS) * MAX_ORDER)
def _lemma_poly(key: KnotKey, label: str, order: int) -> FramingPoly:
    """The lemma route's Gaussian integral of the wheeled base as a
    polynomial in f."""
    _, g = lie_pair(label)
    return _fg_poly(_wheeled_base(key, 2 * order), g, order)


def _reference_surgery(label: str, sign: int, order: int) -> HSeries:
    """Graded weight of the Gaussian integral of the unknot at framing
    ``sign`` (1 or -1): the denominator of the definition route."""
    return at_framing(_definition_poly(_UNKNOT_KEY, label, order), sign)


def _series_poly(s: HSeries) -> FramingPoly:
    """A framing-free series as a framing polynomial, known as far."""
    return FramingPoly({(0, n): c for n, c in s.coeffs.items()}, s.cap)


def _poly_product(a: FramingPoly, b: FramingPoly) -> FramingPoly:
    """The product of two framing polynomials, known through h^cap
    whatever f is, cap = ``qseries.product_cap`` of the two."""
    cap = product_cap(a, b)
    return FramingPoly(sum_products(
        ((e + d, n + m), x, y) for (e, n), x in a.items()
        for (d, m), y in b.items() if n + m <= cap), cap)


@lru_cache(maxsize=2 * _KNOTS * len(LIE_LABELS) * MAX_ORDER)
def _definition_route(key: KnotKey, label: str, sign: int,
                      order: int) -> FramingPoly:
    """The definition route at the framings of sign ``sign`` as a
    polynomial in f: the numerator polynomial times the inverse of the
    matching-sign reference surgery."""
    ref = _reference_surgery(label, sign, order).inverse()
    return _poly_product(_definition_poly(key, label, order),
                         _series_poly(ref))


@lru_cache(maxsize=2 * _KNOTS * len(LIE_LABELS) * MAX_ORDER)
def _lemma_route(key: KnotKey, label: str, sign: int,
                 order: int) -> FramingPoly:
    """The lemma route at the framings of sign ``sign`` as a polynomial
    in f: the wheels pairing, the theta exponential exp(((3 sign -
    f)/48) theta_h) and the Gaussian integral of the wheeled base.
    theta_h is c h, so the exponential is q^(3 sign c / 48) times the
    sum over k of (-c f h / 48)^k / k!, whose f^k h^k term is [h^k] of
    q^(-c / 48)."""
    c = _theta_weight(label, order).coeffs.get(1, 0)
    unit = _omega_pair_scalar(label, order) * q_power(
        Fraction(3 * sign, 48) * c, order)
    framed = FramingPoly({(k, k): b for k, b in
                          q_power(Fraction(-c, 48), order).coeffs.items()},
                         order)
    return _poly_product(_poly_product(_series_poly(unit), framed),
                         _lemma_poly(key, label, order))


def lmo_via_definition(inp: SurgeryInput, label: str, order: int) -> HSeries:
    """Surgery invariant as the ratio of two Gaussian integrals, the
    denominator being the matching-sign unknot surgery."""
    return at_framing(_definition_route(knot_key(inp), label, inp.sign,
                                        order), inp.framing)


def lmo_via_lemma(inp: SurgeryInput, label: str, order: int) -> HSeries:
    """Surgery invariant in closed form: the wheels pairing, a theta
    exponential with exponent (3 sign(f) - f)/48, and the Gaussian
    integral, at framing f, of the wheeled zero-framed input."""
    return at_framing(_lemma_route(knot_key(inp), label, inp.sign, order),
                      inp.framing)


@lru_cache(maxsize=len(LIE_LABELS) * MAX_ORDER)
def _unknot_tau(label: str, order: int) -> rootsys.TauPoly:
    """The built-in unknot's tau^PG framing polynomials, from its
    norm-class group; callers share the cached value and only read it.
    ``taupg`` takes any order, so the cache holds at most the keys that
    ``compare`` can reach."""
    rs, _ = lie_pair(label)
    return rootsys.tau_poly(rs, rootsys.unknot_classes(rs, order), order)


def load_qdata(path: str, rank: int,
               order: int) -> dict[rootsys.Vec, HSeries]:
    """The expansion-data file's lattice sum; its top-level value must be
    a list, every ``beta`` a list of ``rank`` JSON integers, and every
    entry's series, zero ones included, must be known through h^order.
    A missing field, and an entry, series or field that should be an
    object and is not, is named with its entry's index, and with
    "series" when it is the series'."""
    def entries(obj):
        for i, entry in enumerate(json_list(obj, "the top-level value")):
            json_object(entry, f"entry {i}")
            try:
                beta, series = entry["beta"], entry["series"]
            except KeyError as exc:
                raise ValueError(
                    f"entry {i} has no field {exc.args[0]!r}") from exc
            try:
                series = HSeries.from_json(series, f"entry {i}: series")
            except KeyError as exc:
                raise ValueError(f"entry {i}: series has no field "
                                 f"{exc.args[0]!r}") from exc
            if type(beta) is not list or len(beta) != rank \
                    or any(type(x) is not int for x in beta):
                raise ValueError(f"beta {_echo(beta)} needs {rank} integer "
                                 "coordinates")
            if series.cap < order:
                raise ValueError(f"beta {_echo(beta)} has series cap "
                                 f"{series.cap}, below --order {order}")
            yield tuple(beta), series

    with _file_errors(path, "expansion-data file"):
        return rootsys.lattice_sum(entries(json.loads(
            Path(path).read_text(), parse_int=parse_json_int)))


def taupg_route(inp: SurgeryInput, label: str, order: int,
                qdata: dict[rootsys.Vec, HSeries] | None = None) -> HSeries:
    """tau^PG from the knot's parsed expansion data; the built-in unknot
    needs none.  Both build the framing polynomials first, the built-in
    unknot's once per label and order."""
    if qdata is not None:
        rs, _ = lie_pair(label)
        tau = rootsys.tau_poly(rs, rootsys.norm_classes(rs, qdata), order)
    elif inp.is_builtin:
        tau = _unknot_tau(label, order)
    else:
        raise InputError("file knots need companion expansion data "
                         "(--qdata) for the perturbative side")
    return rootsys.tau_pg(tau, inp.framing)


def _fields_json(report: FrozenRecord) -> dict:
    """A report's fields in the order its class's ``__slots__`` declares
    them: a series as its ``to_json()``, a ``Fraction`` as "p/q",
    anything else as is."""
    def value(v):
        if isinstance(v, HSeries):
            return v.to_json()
        if isinstance(v, Fraction):
            return rational_str(v)
        return v
    return {name: value(getattr(report, name)) for name in report.__slots__}


class ComparisonReport(FrozenRecord):
    __slots__ = ("lie", "knot", "framing", "order", "certified_order",
                 "lmo_definition", "lmo_lemma", "routes_equal", "h1_power",
                 "taupg", "difference", "equal", "lmo_only")

    def __init__(self, lie: str, knot: str, framing: int, order: int,
                 certified_order: int, lmo_definition: HSeries,
                 lmo_lemma: HSeries, routes_equal: bool, h1_power: Fraction,
                 taupg: HSeries | None, difference: HSeries | None,
                 equal: bool | None, lmo_only: bool):
        self._set_fields(lie, knot, framing, order, certified_order,
                         lmo_definition, lmo_lemma, routes_equal, h1_power,
                         taupg, difference, equal, lmo_only)

    def to_json(self) -> dict:
        return _fields_json(self)


def compare(inp: SurgeryInput, label: str, order: int,
            qdata: dict[rootsys.Vec, HSeries] | None = None
            ) -> ComparisonReport:
    """Both sides of the main equality at the requested order, with the
    knot's parsed expansion data (the built-in unknot needs none).

    Reported series are truncated to the certified order; coefficients
    the truncation bookkeeping cannot vouch for are never printed.
    """
    rs, _ = lie_pair(label)
    certified = order
    if inp.declared_valid_degree is not None:
        certified = min(certified, inp.declared_valid_degree)
    d = lmo_via_definition(inp, label, order).truncate(certified)
    l = lmo_via_lemma(inp, label, order).truncate(certified)
    routes_equal = d == l
    h1_power = Fraction(inp.h1_order) ** rs.num_pos
    lmo_only = not inp.is_builtin and qdata is None
    taupg = None
    difference = None
    equal = None
    if not lmo_only:
        taupg = taupg_route(inp, label, order, qdata).truncate(certified)
        difference = d - taupg.scale(h1_power)
        equal = difference.is_zero()
    return ComparisonReport(
        lie=label, knot=inp.knot, framing=inp.framing, order=order,
        certified_order=certified, lmo_definition=d, lmo_lemma=l,
        routes_equal=routes_equal, h1_power=h1_power, taupg=taupg,
        difference=difference, equal=equal, lmo_only=lmo_only)


# ---------------------------------------------------------------------------
# identity verification suite
# ---------------------------------------------------------------------------

class CheckResult(FrozenRecord):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self._set_fields(name, passed, detail)

    def to_json(self) -> dict:
        return _fields_json(self)


def _check_bernoulli(order: int) -> list[CheckResult]:
    out = [
        CheckResult("bernoulli.b2", modified_bernoulli(1) == Fraction(1, 48)),
        CheckResult("bernoulli.b4",
                    modified_bernoulli(2) == Fraction(-1, 5760)),
    ]
    cap = 12
    acc = HSeries.zero(cap)
    for m in range(1, cap // 2 + 1):
        acc = acc + HSeries({2 * m: 2 * modified_bernoulli(m)}, cap)
    round_trip = acc.exp() * sinh_ratio(1, cap).inverse()
    out.append(CheckResult("bernoulli.round_trip_x12",
                           round_trip == HSeries.one(cap)))
    return out


def _check_weyl(order: int) -> list[CheckResult]:
    out = []
    for label in LIE_LABELS:
        equal, equal_squared = rootsys.weyl_denominator(
            rootsys.build_root_system(label))
        out.append(CheckResult(f"weyl.denominator.{label}", equal))
        out.append(CheckResult(f"weyl.denominator_squared.{label}",
                               equal_squared))
    return out


def _check_theta(order: int) -> list[CheckResult]:
    out = []
    for label in ("A1", "A2"):
        rs, g = lie_pair(label)
        brute = liews.brute_force_contract(balg.theta(), g)
        expected = 24 * rs.norm_sq(rs.rho)
        got = brute.get((), Fraction(0))
        out.append(CheckResult(
            f"theta.brute_force.{label}", got == expected,
            f"value {got}, 24(rho,rho) = {expected}"))
        fast = liews.contract_diagram(balg.theta(), g)
        out.append(CheckResult(f"theta.contraction_agrees.{label}",
                               fast == brute))
        state_sum = liews._evaluate(liews.gl_polynomial(balg.theta()),
                                    g.sl_n)
        out.append(CheckResult(
            f"theta.state_sum_agrees.{label}", state_sum == got == expected,
            f"P_theta({g.sl_n}) = {state_sum}"))
    return out


def _check_omega(order: int) -> list[CheckResult]:
    n = max(order, 4)
    out = []
    for label in ("A1", "A2"):
        rs, _ = lie_pair(label)
        lhs = _omega_pair_scalar(label, n)
        rhs = rootsys.rho_sinh_product(rs, n)
        out.append(CheckResult(f"omega.pair_vs_sinh.{label}", lhs == rhs,
                               f"to h^{n}"))
    return out


def _check_circle(order: int) -> list[CheckResult]:
    n = max(order, 4)
    out = []
    for label in ("A1",):
        oo_inv = _omega_pair_scalar(label, n).inverse()
        theta_h = _theta_weight(label, n)
        for s in (1, -1):
            lhs = _reference_surgery(label, s, n)
            rhs = oo_inv * theta_h.scale(Fraction(-s, 16)).exp()
            out.append(CheckResult(f"circle.reference_surgery.{label}.f={s}",
                                   lhs == rhs, f"to h^{n}"))
    return out


def _bridge_family(imax: int) -> dict[str, DiagramSeries]:
    w2 = series_of(balg.wheel(1), imax)
    w4 = series_of(balg.wheel(2), imax)
    return {
        "w2": w2,
        "w4": w4,
        "w2w2": w2.union(w2),
        "legged_w2_into_w4": balg.partial(w2, w4),
        "legged_w2_into_w2w2": balg.partial(w2, w2.union(w2)),
    }


def _check_bridge(order: int) -> list[CheckResult]:
    """The diagram-level Gaussian integral against the tensor route's,
    both built once per algebra and family member as polynomials in f
    and read at each framing."""
    imax = 8
    cap = imax // 2
    out = []
    fam = _bridge_family(imax)
    for label in ("A1", "A2"):
        _, g = lie_pair(label)
        for name, y in fam.items():
            lhs = _fg_poly(y, g, cap)
            rhs = liews.gaussian_poly(y, g, cap)
            ok = all(at_framing(lhs, f) == at_framing(rhs, f)
                     for f in (1, -1, 2, -2, 3))
            out.append(CheckResult(f"bridge.{label}.{name}", ok,
                                   "f in {1,-1,2,-2,3}"))
    return out


def _check_gauss(order: int) -> list[CheckResult]:
    """Gaussian contraction of the squared alternating Weyl sum, through
    the tensor machinery, against the closed product form.

    The Wick operator is linear, so the exponential tensors of the
    points of the squared Weyl sum, each weighed by its signed count,
    are summed into one tensor and contracted once, framing-free: the
    same series as contracting every point and adding, from one hafnian
    memo per algebra instead of one per point and framing."""
    cap = max(order, 6)
    out = []
    for label in ("A1", "A2"):
        rs, g = lie_pair(label)
        tensor = liews.series_tensor((
            ((key, e), count, c)
            for beta, count in rootsys._lattice_product(
                [rs.weyl, rs.weyl]).items()
            for key, series in liews.exp_tensor(
                g.cartan_vector(beta), cap).items()
            for e, c in series.coeffs.items()), cap)
        poly = liews.wick_poly(tensor, g, cap)
        for f in (2, 3, -2):
            total = at_framing(poly, f)
            closed = rootsys.gaussian_weyl_closed_form(rs, f, cap)
            out.append(CheckResult(f"gauss.weyl_square.{label}.f={f}",
                                   total == closed))
            P = rs.num_pos
            lead = Fraction(rs.order) * Fraction(-1, f) ** P
            for alpha in rs.pos_roots:
                lead *= rs.inner(rs.rho, alpha)
            got = total.coeff(P) if P <= total.cap else None
            low_ok = all(total.coeff(k) == 0 for k in range(0, P))
            out.append(CheckResult(
                f"gauss.leading_term.{label}.f={f}",
                got == lead and low_ok,
                f"|W|(-h/f)^{P} prod (rho,alpha)"))
    return out


_SUITES = {
    "bernoulli": _check_bernoulli,
    "weyl": _check_weyl,
    "theta": _check_theta,
    "omega": _check_omega,
    "circle": _check_circle,
    "bridge": _check_bridge,
    "gauss": _check_gauss,
}


#: Highest order of the gauss suite: its exponential tensors carry up to
#: 2 * order slots; order 40 takes about a second on a 2-core box, and
#: the time grows about as order^2.
MAX_GAUSS_ORDER = 40

#: The suites whose work grows with the order, each with its highest
#: order and the reason for it: the omega and circle suites build
#: diagram series at max(order, 4).  The others take any order.
_ORDER_BOUNDS = {
    "omega": (MAX_ORDER, "the largest the vertex cap admits"),
    "circle": (MAX_ORDER, "the largest the vertex cap admits"),
    "gauss": (MAX_GAUSS_ORDER, "the bound on the size of its "
              "exponential tensors"),
}


def verify_suite(selection: str, order: int = 4) -> list[CheckResult]:
    """Run the named identity suite ('all' runs every one of them).  An
    order above the lowest bound of ``_ORDER_BOUNDS`` among them is
    rejected before any suite runs."""
    names = list(_SUITES) if selection == "all" else [selection]
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}")
    bounds = [_ORDER_BOUNDS[n] for n in names if n in _ORDER_BOUNDS]
    if bounds:
        bound, why = min(bounds)
        if order > bound:
            raise InputError(f"verify --suite {selection} needs --order <= "
                             f"{bound}, {why}, got {order}")
    results: list[CheckResult] = []
    for name in names:
        results.extend(_SUITES[name](order))
    return results
