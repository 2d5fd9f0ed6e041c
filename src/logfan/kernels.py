"""Symbolic calculus of strong kernels between log pairs.

A kernel is a formal nonnegative-integer combination of atoms:

* ``diag(L, s)``      — diagonal pushforward of O(L)[s] on a pair X;
* ``graph(deg=d, L, s)`` — graph pushforward along a degree-d map
  f: (P^1, pt) -> (P^m, H), (P^1, pt) or (C_0, pt), twisted and shifted
  (the rewrites read only the far end's dimension m, so a graph into
  another pair raises ValueError when the kernel is built);
* ``t(graph(...))``   — the transposed (flipped) graph, going the other way.

Equality is normal-form equality (`cohomology.normal_form`, as for bundles).
Composition, adjoints, the excess-intersection route for graph-vs-transpose,
and the Hochschild scalar action are all closed-form rewrites on atoms; the
unsupported shapes raise named errors instead of guessing.

The excess route reads the excess bundle E from its closed form,
(m - 1)*O(1) for a degree-1 graph into P^m (no other degree splits), and
Sym(E^v[1]) = (+)_q wedge^q(E^v)[q] as `exterior_algebra(E.dual())`,
which refuses a rank above `cohomology.MAX_PN_DIM` (DimensionTooLarge).

Each rule is written once; its mirror image comes from transposition,
flipping a kernel across the product (Huybrechts, *Fourier-Mukai
Transforms in Algebraic Geometry*, 2006, Prop. 5.9):

* composition reverses, transpose(compose(e, f)) ==
  compose(transpose(f), transpose(e)), so diag then t(graph) and t(graph)
  then diag are the graph-then-diag and diag-then-graph rules, flipped;
* the adjoints swap, L(E) = R(E^T)^T, so only the right adjoint has
  atom formulas.

The scalar regime (log Hochschild homology one-dimensional, in degree 0)
has a closed form, which `_require_scalar` asks: it reads the pair's
`scalar` slot from its `logproduct._MODEL` entry, and refuses (A^1, 0) as
`hkr` refuses it.  A graph atom's ends are read off their hosts.

Twist/shift bookkeeping uses the dual convention (L[s])^v = L^{-1}[-s].

The chains that take a trace (`compose`, `hh_action`, `chern_log` and
`euler_pairing`) compute their value first.
Only then, and only when the caller passed a trace list, a chain builds
all of its lines in one `errors.printable` call and extends the trace
once, so a chain that raises leaves the trace as it was and a call
without a trace builds no text.  `compose` records each excess route as
its (excess, Sym) pair of bundles and prints them after its loop.

`parse_kernel` reads the CLI grammar term by term: the terms are the
pieces between the `+`s, and each is read with one pattern that holds its
multiplicity, its `t(` layers and its atom.
"""

import re
from typing import NamedTuple

from .cohomology import SplitBundle, Summand, exterior_algebra, normal_form
from .errors import (KERNEL_GRAMMAR, FormalityUnavailable,
                     UnsupportedComposition, UnsupportedHHShape, clip,
                     printable, quote, read_int)
from .hkr import _model, log_serre
from .logproduct import format_pair
from .values import FrozenValue

DIAG = "diag"
GRAPH = "graph"
TGRAPH = "tgraph"
_FLIP = {DIAG: DIAG, GRAPH: TGRAPH, TGRAPH: GRAPH}
# the (first, second) kinds composed by flipping the mirrored rule
_MIRRORED = {(DIAG, TGRAPH), (TGRAPH, DIAG)}
_P1_HOST = ("Pn", 1)  # of (P^1, pt), the one modelled pair on P^1


class Atom(NamedTuple):
    kind: str
    degree: int  # map degree for (t)graph atoms, 0 for diag
    twist: int
    shift: int


def _flip(atom):
    """The atom flipped across the product (diag is symmetric)."""
    return Atom(_FLIP[atom.kind], atom.degree, atom.twist, atom.shift)


class KernelExpr(FrozenValue):
    """Formal sum of atoms from `source` to `target` (LogPairs), in normal
    form: terms ((Atom, multiplicity), ...)."""
    __slots__ = ("source", "target", "terms")

    def __init__(self, source, target, terms):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "terms", normal_form(terms))
        for atom, _ in self.terms:
            self._check_atom(atom)

    def _check_atom(self, atom):
        if atom.kind == DIAG:
            if self.source != self.target:
                raise ValueError("diagonal atoms need source == target")
            return
        if atom.kind not in (GRAPH, TGRAPH):
            raise ValueError(f"unknown atom kind {atom.kind!r}")
        curve, far = ((self.source, self.target) if atom.kind == GRAPH
                      else (self.target, self.source))
        if curve.host != _P1_HOST:
            raise ValueError("graph atoms start at P1:pt" if atom.kind == GRAPH
                             else "transposed graph atoms end at P1:pt")
        if atom.degree < 1:
            raise ValueError("graph atoms need degree >= 1")
        if not far.host or far.host[0] != "Pn":
            raise ValueError(f"graph atoms map P1:pt into P<m>:H, P1:pt or "
                             f"C0:pt, not {clip(format_pair(far))}")

    def __add__(self, other):
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("can only add kernels with matching pairs")
        return KernelExpr(self.source, self.target,
                          self.terms + other.terms)

    def is_diagonal(self):
        return all(a.kind == DIAG for a, _ in self.terms)


def diag_kernel(pair, twist=0, shift=0, mult=1):
    return KernelExpr(pair, pair, ((Atom(DIAG, 0, twist, shift), mult),))


def graph_kernel(source, target, degree, twist=0, shift=0):
    return KernelExpr(source, target,
                      ((Atom(GRAPH, degree, twist, shift), 1),))


def transpose(expr):
    """Flip a kernel across the product: swaps source and target and
    exchanges graph atoms with their transposes (diag is symmetric)."""
    return KernelExpr(expr.target, expr.source,
                      tuple((_flip(a), m) for a, m in expr.terms))


# ---------------------------------------------------------------------------
# adjoints

def right_adjoint(expr):
    """Kernel of the right adjoint functor, as a closed-form atom rewrite.

    For a diagonal atom the relative Serre twists cancel and only
    dualization survives; for graphs the rewrite bakes in the Serre kernel
    of the target (dimension m) through the projection formula.
    """
    m = expr.target.dim
    return KernelExpr(expr.target, expr.source, tuple(
        (_right_atom(a, m), k) for a, k in expr.terms))


def left_adjoint(expr):
    """Kernel of the left adjoint functor, L(E) = R(E^T)^T, atom by atom
    (the target of E^T is the source of E)."""
    m = expr.source.dim
    return KernelExpr(expr.target, expr.source, tuple(
        (_flip(_right_atom(_flip(a), m)), k) for a, k in expr.terms))


def _right_atom(atom, m):
    """One atom of the right adjoint of a kernel with target dimension m."""
    kind, d, twist, shift = atom
    if kind == DIAG:
        return Atom(DIAG, 0, -twist, -shift)
    if kind == GRAPH:
        return Atom(TGRAPH, d, -twist + d * (m + 1) - 2, 1 - m - shift)
    # TGRAPH: the underlying map goes to the source, so m is not read
    return Atom(GRAPH, d, -twist + d - 1, -shift)


# ---------------------------------------------------------------------------
# excess intersection and composition

def excess_intersection(degree, m):
    """Excess bundle, a SplitBundle on P^1, of the self-intersection of a
    degree-`degree` graph inside P^1 x P^m.

    The graph's tangent complex O(2) + 2*O(1) must split off the ambient
    one restricted to it, O(2) + O(1) + m*O(degree) (the formality
    criterion of Arinkin-Caldararu, *When is the self-intersection of a
    subvariety a fibration?*, 2012).  For m >= 1 the ambient bundle holds
    a second O(1) only when degree = 1, so only degree-1 graphs split, with
    excess m*O(1) - O(1) = (m - 1)*O(1); any other graph has no formality
    route (FormalityUnavailable).
    """
    if degree != 1:
        ambient = SplitBundle((Summand(2), Summand(1), (Summand(degree), m)))
        text = printable(lambda: _bundle_text(ambient.terms),
                         "the ambient tangent bundle restricted to the graph")
        raise FormalityUnavailable(
            f"tangent sub-bundle 2*O(1) + O(2) does not split off {text}; "
            f"no formality route")
    return SplitBundle.line(1, 0, m - 1)


def compose(first, second, trace=None):
    """Kernel of the composite functor: `first` from X to Y, then `second`
    from Y to Z.  Bilinear over atoms; graph-followed-by-transposed-graph
    of the same map routes through the excess bundle, everything without a
    supported route raises UnsupportedComposition."""
    if first.target != second.source:
        raise UnsupportedComposition(
            f"cannot compose: middle pairs {clip(format_pair(first.target))} "
            f"and {clip(format_pair(second.source))} differ")
    m = first.target.dim
    same_map = first.source == second.target
    routes = []
    terms = []
    for a, ma in first.terms:
        for b, mb in second.terms:
            for atom, mult in _compose_atoms(a, b, m, same_map, routes):
                terms.append((atom, ma * mb * mult))
    value = KernelExpr(first.source, second.target, tuple(terms))
    if trace is not None:
        trace.extend(printable(lambda: [
            line for excess, sym in routes
            for line in (f"excess: {_bundle_text(excess.terms)}",
                         f"sym: {_bundle_text(sym.terms)}")]))
    return value


def _compose_atoms(a, b, m, same_map, routes):
    """Atoms of `a` then `b` through a middle pair of dimension `m`;
    `same_map` (the composite goes from a pair to itself) gates the excess
    route, which appends its (excess, Sym) bundles to `routes`."""
    if a.kind == DIAG and b.kind == DIAG:
        return [(Atom(DIAG, 0, a.twist + b.twist, a.shift + b.shift), 1)]
    if (a.kind, b.kind) in _MIRRORED:
        # transpose(a then b) is flip(b) then flip(a): a diag/graph rule
        return [(_flip(atom), k) for atom, k in
                _compose_atoms(_flip(b), _flip(a), m, same_map, routes)]
    if a.kind == DIAG and b.kind == GRAPH:
        return [(Atom(GRAPH, b.degree, b.twist + a.twist,
                      b.shift + a.shift), 1)]
    if a.kind == GRAPH and b.kind == DIAG:
        # twisting downstairs pulls back through the degree-d map
        return [(Atom(GRAPH, a.degree, a.twist + a.degree * b.twist,
                      a.shift + b.shift), 1)]
    if a.kind == GRAPH and b.kind == TGRAPH:
        if a.degree != b.degree or not same_map:
            raise UnsupportedComposition(
                "graph and transposed graph of different maps")
        excess = excess_intersection(a.degree, m)
        sym = exterior_algebra(excess.dual())
        routes.append((excess, sym))
        return [(Atom(DIAG, 0, a.twist + b.twist + s.twist,
                      a.shift + b.shift + s.shift), mlt)
                for s, mlt in sym.terms]
    raise UnsupportedComposition(
        f"no composition rule for {a.kind} followed by {b.kind}")


# ---------------------------------------------------------------------------
# Hochschild action, Chern character, Euler pairing

def _require_scalar(*pairs):
    """Raise UnsupportedHHShape for the first pair whose log Hochschild
    homology is not one-dimensional in degree 0, as its `scalar` slot
    says; a pair without cohomology tables is refused as in `hkr`."""
    for pair in pairs:
        _model(pair)
        if not pair.scalar:
            raise UnsupportedHHShape(
                f"{clip(format_pair(pair))} has log Hochschild homology "
                f"beyond degree 0")


def signed_count(expr, sign=-1):
    """Atom count weighted by sign ** shift (the shift sign is -1)."""
    return sum(m * sign ** (a.shift % 2) for a, m in expr.terms)


def hh_action(expr, beta, trace=None):
    """Scalar action of the kernel on degree-zero log Hochschild classes.

    Only defined for diagonal kernels on pairs whose log Hochschild
    homology is one-dimensional in degree 0; richer pairs or graph-shaped
    kernels raise UnsupportedHHShape.  The four-step symbolic chain (unit
    insertion, class insertion, adjoint exchange, counit) collapses to the
    signed atom count times the input scalar.
    """
    if not expr.is_diagonal():
        raise UnsupportedHHShape(
            "scalar action is only defined for diagonal kernels")
    return _hh_chain(expr, beta, trace)


def _hh_chain(expr, beta, trace):
    """`hh_action`'s chain on a kernel known to be diagonal."""
    _require_scalar(expr.source, expr.target)
    value = beta * signed_count(expr)
    if trace is not None:
        trace.extend(printable(lambda: [
            "unit: 1 in HH_0 of " + format_pair(expr.target),
            f"beta: insert scalar {beta}",
            "exchange: move the Serre kernel across the adjoint",
            f"counit: {_signed_sum(expr)} -> {value}"]))
    return value


def chern_log(expr, trace=None):
    """Log Chern character, by the chain the kernel picks: a diagonal
    endo-kernel runs `hh_action`'s on the unit, any other kernel between
    scalar pairs is its signed atom count (a t(graph) atom has none)."""
    if expr.source == expr.target and expr.is_diagonal():
        return _hh_chain(expr, 1, trace)
    _require_scalar(expr.source, expr.target)
    if any(a.kind == TGRAPH for a, _ in expr.terms):
        raise UnsupportedHHShape(
            "transposed graphs have no supported expansion chain")
    value = signed_count(expr)
    if trace is not None:
        trace.extend(printable(lambda: [
            f"additivity: {_signed_sum(expr)} -> {value}"]))
    return value


def euler_pairing(left, right_, trace=None):
    """Log Euler pairing of two kernels with the same source and target:
    the Chern-type scalar of compose(left, right_adjoint(right_)).

    The signed atom count is that scalar only in the scalar regime, so a
    pair outside it raises UnsupportedHHShape, and one without cohomology
    tables NoToricModel, as in `hh_action`; kernels on different pairs
    raise ValueError, as `+` does.
    """
    if (left.source, left.target) != (right_.source, right_.target):
        raise ValueError("can only pair kernels with matching pairs")
    _require_scalar(left.source, left.target)
    adj = right_adjoint(right_)
    # compose's lines go between the adjoint and additivity lines
    composed = None if trace is None else []
    composite = compose(left, adj, composed)
    value = signed_count(composite)
    if trace is not None:
        trace.extend(printable(lambda: [
            f"adjoint: R({format_kernel(right_)}) = {format_kernel(adj)}",
            *composed,
            f"additivity: {_signed_sum(composite)} -> {value}"]))
    return value


# ---------------------------------------------------------------------------
# law checks used by the verification suite and property tests

def serre_kernel(pair):
    return diag_kernel(pair, *log_serre(pair))


def adjoint_exchange_check(expr):
    """Identity S_target then right adjoint == left adjoint then S_source,
    in atom normal form."""
    lhs = compose(serre_kernel(expr.target), right_adjoint(expr))
    rhs = compose(left_adjoint(expr), serre_kernel(expr.source))
    return lhs == rhs


def involution_check(expr):
    return left_adjoint(right_adjoint(expr)) == expr


def bicategory_law_check(a, b, c):
    """Associativity and two-sided unit laws on composable kernels."""
    assoc = compose(compose(a, b), c) == compose(a, compose(b, c))
    unit_a = diag_kernel(a.source)
    unit_b = diag_kernel(c.target)
    units = (compose(unit_a, a) == a and compose(c, unit_b) == c)
    return assoc and units


# ---------------------------------------------------------------------------
# formatting and parsing (the CLI grammar)

def format_bundle(twist):
    return "O" if twist == 0 else f"O({twist})"


def _summand(twist, shift):
    text = format_bundle(twist)
    return text if shift == 0 else f"{text}[{shift}]"


def _bundle_text(terms):
    """A split bundle's (Summand, multiplicity) terms, sorted by shift then
    twist; a multiplicity m > 1 prints once, as m*summand."""
    return " + ".join(
        _summand(*s) if m == 1 else f"{m}*{_summand(*s)}"
        for s, m in sorted(terms, key=lambda tm: (tm[0].shift, tm[0].twist))
    ) or "0"


def _signed_sum(expr):
    """The signed terms, sorted by shift then twist; a multiplicity m > 1
    prints once, as m*(+1) or m*(-1)."""
    parts = []
    for atom, mult in sorted(expr.terms,
                             key=lambda tm: (tm[0].shift, tm[0].twist)):
        sign = -1 if atom.shift % 2 else 1
        parts.append(str(sign) if mult == 1 else f"{mult}*({sign:+d})")
    return " + ".join(parts) or "0"


def format_atom(atom):
    if atom.kind == DIAG:
        return f"diag({format_bundle(atom.twist)},{atom.shift})"
    inner = (f"graph(deg={atom.degree},{format_bundle(atom.twist)},"
             f"{atom.shift})")
    return inner if atom.kind == GRAPH else f"t({inner})"


def format_kernel(expr):
    """The grammar's text of a kernel; a multiplicity m > 1 prints once,
    as m*atom."""
    return "+".join(format_atom(a) if m == 1 else f"{m}*{format_atom(a)}"
                    for a, m in expr.terms) or "0"


# One term: an optional N*, a run of t( layers, a diag or graph atom with
# its twist and shift, and the closing parens, with whitespace allowed
# where the grammar's separators are; a term is valid only when its closing
# parens number its t( layers.
_TERM_RE = re.compile(r"""
    \s* (?: (?P<mult>\d+) \s* \* )? \s*
    (?P<open> (?: t\( \s* )* )
    (?: diag\( O (?: \( (?P<dtwist>-?\d+) \) )? , (?P<dshift>-?\d+) \)
      | graph\(deg= (?P<deg>\d+)
        (?: , O (?: \( (?P<gtwist>-?\d+) \) )? , (?P<gshift>-?\d+) )? \) )
    (?P<close> (?: \s* \) )* ) \s*""", re.VERBOSE)


def parse_kernel(text, source, target):
    """Parse an expression `term ("+" term)*`, a term being `atom` or
    `N*atom` (N >= 1 copies), or `0` for the kernel with no terms (as
    `format_kernel` prints it), against the grammar, attaching the given
    source and target pairs.

    No `+` occurs inside a term (integers are -?digits, counts are
    digits), so the terms are the pieces between the `+`s, and each is
    read by one match of `_TERM_RE`.  Text off the grammar raises a
    ValueError that ends with `KERNEL_GRAMMAR`."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError(f"empty kernel expression\n{KERNEL_GRAMMAR}")
    if text == "0":
        return KernelExpr(source, target, ())
    terms = []
    for part in text.split("+"):
        m = _TERM_RE.fullmatch(part)
        if not m or m["open"].count("(") != m["close"].count(")"):
            raise ValueError(f"cannot parse term {quote(part)}\n"
                             f"{KERNEL_GRAMMAR}")
        try:
            mult = read_int(m["mult"] or "1")
            if m["deg"] is None:
                atom = Atom(DIAG, 0, read_int(m["dtwist"] or "0"),
                            read_int(m["dshift"]))
            else:
                atom = Atom(GRAPH, read_int(m["deg"]),
                            read_int(m["gtwist"] or "0"),
                            read_int(m["gshift"] or "0"))
        except ValueError as exc:
            raise ValueError(f"{exc}\n{KERNEL_GRAMMAR}") from None
        if mult < 1:
            raise ValueError(f"multiplicity {mult} is not an integer >= 1"
                             f"\n{KERNEL_GRAMMAR}")
        terms.append((_flip(atom) if m["open"].count("(") % 2 else atom,
                      mult))
    return KernelExpr(source, target, tuple(terms))
