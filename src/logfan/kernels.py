"""Symbolic calculus of strong kernels between log pairs.

A kernel is a formal nonnegative-integer combination of atoms:

* ``diag(L, s)``      — diagonal pushforward of O(L)[s] on a pair X;
* ``graph(deg=d, L, s)`` — graph pushforward along a degree-d map
  f: (P^1, pt) -> (P^m, H), twisted and shifted;
* ``t(graph(...))``   — the transposed (flipped) graph, going the other way.

Equality is normal-form equality (`cohomology.normal_form`, as for bundles).
Composition, adjoints, the excess-intersection route for graph-vs-transpose,
and the Hochschild scalar action are all closed-form rewrites on atoms; the
unsupported shapes raise named errors instead of guessing.

Each rule is written once; its mirror image comes from transposition,
flipping a kernel across the product (Huybrechts, *Fourier-Mukai
Transforms in Algebraic Geometry*, 2006, Prop. 5.9):

* composition reverses, transpose(compose(e, f)) ==
  compose(transpose(f), transpose(e)), so diag then t(graph) and t(graph)
  then diag are the graph-then-diag and diag-then-graph rules, flipped;
* the adjoints swap, L(E) = R(E^T)^T, so only the right adjoint has
  atom formulas.

The scalar regime (log Hochschild homology one-dimensional, in degree 0)
has a closed form: (P^n, H) and (P^1, pt) are scalar, a pointed curve
(C_g, pt) only when g = 0, and (A^1, 0) is refused as `hkr` refuses it.

Twist/shift bookkeeping uses the dual convention (L[s])^v = L^{-1}[-s].
"""

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
import re
from typing import NamedTuple

from .cohomology import normal_form
from .errors import (FormalityUnavailable, UnsupportedComposition,
                     UnsupportedHHShape)
# hkr_homology is not called here; it stays importable as
# kernels.hkr_homology, a binding bench/test_bench.py reads
from .hkr import _space_of, hkr_homology, log_serre  # noqa: F401
from .logproduct import LogPair, format_pair

DIAG = "diag"
GRAPH = "graph"
TGRAPH = "tgraph"
_FLIP = {DIAG: DIAG, GRAPH: TGRAPH, TGRAPH: GRAPH}
# the (first, second) kinds composed by flipping the mirrored rule
_MIRRORED = {(DIAG, TGRAPH), (TGRAPH, DIAG)}


class Atom(NamedTuple):
    kind: str
    degree: int  # map degree for (t)graph atoms, 0 for diag
    twist: int
    shift: int


def _flip(atom):
    """The atom flipped across the product (diag is symmetric)."""
    return Atom(_FLIP[atom.kind], atom.degree, atom.twist, atom.shift)


@dataclass(frozen=True)
class KernelExpr:
    """Formal sum of atoms from `source` to `target`, in normal form."""
    source: LogPair
    target: LogPair
    terms: tuple  # ((Atom, multiplicity), ...)

    def __post_init__(self):
        terms = normal_form(self.terms)
        for atom, _ in terms:
            self._check_atom(atom)
        object.__setattr__(self, "terms", terms)

    def _check_atom(self, atom):
        if atom.kind == DIAG:
            if self.source != self.target:
                raise ValueError("diagonal atoms need source == target")
        elif atom.kind == GRAPH:
            if self.source.kind != "P1:pt":
                raise ValueError("graph atoms start at P1:pt")
            if atom.degree < 1:
                raise ValueError("graph atoms need degree >= 1")
        elif atom.kind == TGRAPH:
            if self.target.kind != "P1:pt":
                raise ValueError("transposed graph atoms end at P1:pt")
            if atom.degree < 1:
                raise ValueError("graph atoms need degree >= 1")
        else:
            raise ValueError(f"unknown atom kind {atom.kind!r}")

    def __add__(self, other):
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("can only add kernels with matching pairs")
        return KernelExpr(self.source, self.target,
                          self.terms + other.terms)

    def shifted(self, n):
        return KernelExpr(self.source, self.target, tuple(
            (Atom(a.kind, a.degree, a.twist, a.shift + n), m)
            for a, m in self.terms))

    def is_diagonal(self):
        return all(a.kind == DIAG for a, _ in self.terms)


def diag_kernel(pair, twist=0, shift=0, mult=1):
    return KernelExpr(pair, pair, ((Atom(DIAG, 0, twist, shift), mult),))


def graph_kernel(source, target, degree, twist=0, shift=0, mult=1):
    return KernelExpr(source, target,
                      ((Atom(GRAPH, degree, twist, shift), mult),))


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
    """Excess data for the self-intersection of a degree-`degree` graph
    inside P^1 x P^m.

    Returns (sub_degrees, ambient_degrees, splits, excess_degrees) where the
    degree lists describe split bundles on P^1: the tangent complex of the
    graph inside the tangent complex of the ambient product restricted to
    it.  The route is only usable when the sub-bundle splits off, detected
    by multiset containment of the degree lists; otherwise
    FormalityUnavailable is raised by the caller via splits=False.
    """
    sub = [2, 1, 1]
    ambient = sorted([2, 1] + [degree] * m, reverse=True)
    need, have = Counter(sub), Counter(ambient)
    splits = not need - have
    excess = sorted((have - need).elements(), reverse=True) if splits \
        else None
    return sub, ambient, splits, excess


def sym_decomposition(excess_degrees):
    """Diagonal atoms of Sym(E^v[1]) = (+)_q wedge^q(E^v)[q] for a split
    excess bundle with the given degrees: list of (twist, shift, mult)."""
    r = len(excess_degrees)
    terms = normal_form(((-sum(subset), q), 1) for q in range(r + 1)
                        for subset in combinations(excess_degrees, q))
    return [(t, s, m) for (t, s), m in terms]


def compose(first, second, trace=None):
    """Kernel of the composite functor: `first` from X to Y, then `second`
    from Y to Z.  Bilinear over atoms; graph-followed-by-transposed-graph
    of the same map routes through the excess bundle, everything without a
    supported route raises UnsupportedComposition."""
    if first.target != second.source:
        raise UnsupportedComposition(
            f"cannot compose: middle pairs {format_pair(first.target)} and "
            f"{format_pair(second.source)} differ")
    m = first.target.dim
    same_map = first.source == second.target
    terms = []
    for a, ma in first.terms:
        for b, mb in second.terms:
            for atom, mult in _compose_atoms(a, b, m, same_map, trace):
                terms.append((atom, ma * mb * mult))
    return KernelExpr(first.source, second.target, tuple(terms))


def _compose_atoms(a, b, m, same_map, trace):
    """Atoms of `a` then `b` through a middle pair of dimension `m`;
    `same_map` (the composite goes from a pair to itself) gates the excess
    route."""
    if a.kind == DIAG and b.kind == DIAG:
        return [(Atom(DIAG, 0, a.twist + b.twist, a.shift + b.shift), 1)]
    if (a.kind, b.kind) in _MIRRORED:
        # transpose(a then b) is flip(b) then flip(a): a diag/graph rule
        return [(_flip(atom), k) for atom, k in
                _compose_atoms(_flip(b), _flip(a), m, same_map, trace)]
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
        sub, ambient, splits, excess = excess_intersection(a.degree, m)
        if not splits:
            raise FormalityUnavailable(
                f"tangent sub-bundle {_degs(sub)} does not split off "
                f"{_degs(ambient)}; no formality route")
        _emit(trace, f"excess: {_degs(excess)}")
        parts = sym_decomposition(excess)
        _emit(trace, "sym: " + " + ".join(
            _summand(t, s)
            for t, s, mlt in sorted(parts, key=lambda p: p[1])
            for _ in range(mlt)))
        return [(Atom(DIAG, 0, a.twist + b.twist + t,
                      a.shift + b.shift + s), mlt)
                for t, s, mlt in parts]
    raise UnsupportedComposition(
        f"no composition rule for {a.kind} followed by {b.kind}")


# ---------------------------------------------------------------------------
# Hochschild action, Chern character, Euler pairing

def _scalar_regime(pair):
    """Whether log Hochschild homology is one-dimensional in degree 0:
    (P^n, H), (P^1, pt) and (C_0, pt); a pair without cohomology tables
    is refused as `hkr` refuses it."""
    _space_of(pair)
    return pair.kind != "Cg:pt" or pair.param == 0


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
    for pair in (expr.source, expr.target):
        if not _scalar_regime(pair):
            raise UnsupportedHHShape(
                f"{format_pair(pair)} has log Hochschild homology beyond "
                f"degree 0")
    _emit(trace, "unit: 1 in HH_0 of " + format_pair(expr.target))
    _emit(trace, f"beta: insert scalar {beta}")
    _emit(trace, "exchange: move the Serre kernel across the adjoint")
    value = beta * signed_count(expr)
    _emit(trace, "counit: " + _signed_sum(expr) + f" -> {value}")
    return value


def chern_log(expr, trace=None):
    """Log Chern character of a diagonal kernel: hh_action on the unit."""
    return hh_action(expr, 1, trace)


def chern_log_expansion(expr, trace=None):
    """Chern-type scalar of a graph-shaped kernel out of (P^1, pt), where
    the one-dimensional Hochschild homology of the source supplies the
    scalar: the signed atom count."""
    if expr.source.kind != "P1:pt":
        raise UnsupportedHHShape("expansion needs source (P^1, pt)")
    if not _scalar_regime(expr.target):
        raise UnsupportedHHShape(
            f"{format_pair(expr.target)} is outside the scalar regime")
    if any(a.kind == TGRAPH for a, _ in expr.terms):
        raise UnsupportedHHShape(
            "transposed graphs have no supported expansion chain")
    value = signed_count(expr)
    _emit(trace, "additivity: " + _signed_sum(expr) + f" -> {value}")
    return value


def euler_pairing(left, right_, trace=None):
    """Log Euler pairing of two kernels with the same source and target:
    the Chern-type scalar of compose(left, right_adjoint(right_))."""
    adj = right_adjoint(right_)
    _emit(trace, f"adjoint: R({format_kernel(right_)}) = "
                 f"{format_kernel(adj)}")
    composite = compose(left, adj, trace)
    value = signed_count(composite)
    _emit(trace, "additivity: " + _signed_sum(composite) + f" -> {value}")
    return value


# ---------------------------------------------------------------------------
# law checks used by the verification suite and property tests

def serre_kernel(pair):
    s = log_serre(pair)
    return diag_kernel(pair, s.twist, s.shift)


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


def _degs(degrees):
    parts = []
    for deg in degrees:
        parts.append(format_bundle(deg))
    return " + ".join(parts) if parts else "0"


def _emit(trace, line):
    if trace is not None:
        trace.append(line)


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


_BUNDLE_RE = r"O(?:\((-?\d+)\))?"
_DIAG_RE = re.compile(rf"^diag\(({_BUNDLE_RE}),(-?\d+)\)$")
_GRAPH_RE = re.compile(
    rf"^graph\(deg=(\d+)(?:,({_BUNDLE_RE}),(-?\d+))?\)$")


def _parse_bundle(text):
    m = re.fullmatch(_BUNDLE_RE, text)
    if not m:
        raise ValueError(f"cannot parse bundle {text!r}")
    return int(m.group(1)) if m.group(1) is not None else 0


def parse_atom(text):
    text = text.strip()
    flips = 0
    while text.startswith("t(") and text.endswith(")"):
        text = text[2:-1].strip()
        flips += 1
    m = _DIAG_RE.match(text)
    if m:
        atom = Atom(DIAG, 0, _parse_bundle(m.group(1)), int(m.group(3)))
    else:
        m = _GRAPH_RE.match(text)
        if not m:
            raise ValueError(f"cannot parse atom {text!r}")
        twist = _parse_bundle(m.group(2)) if m.group(2) else 0
        shift = int(m.group(4)) if m.group(4) else 0
        atom = Atom(GRAPH, int(m.group(1)), twist, shift)
    return _flip(atom) if flips % 2 else atom


def _split_top_level(text):
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "+" and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _parse_term(text):
    """(atom, multiplicity) of `atom` or `N*atom` with N >= 1."""
    count, star, atom = text.rpartition("*")
    count = count.strip()
    if star and not (count.isdecimal() and int(count) >= 1):
        raise ValueError(f"multiplicity {count!r} is not an integer >= 1")
    return parse_atom(atom), int(count) if star else 1


def parse_kernel(text, source, target):
    """Parse an expression `term ("+" term)*`, a term being `atom` or
    `N*atom` (N >= 1 copies), against the grammar, attaching the given
    source and target pairs."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty kernel expression")
    return KernelExpr(source, target, tuple(
        _parse_term(p) for p in _split_top_level(text)))
