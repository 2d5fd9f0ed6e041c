"""Named error types shared across the package, the kernel grammar the
CLI prints, the two sides of Python's digit limit for ints (`printable`
for the text the package prints, `read_int` for the digits the grammars
read), `quote`, which bounds the malformed input a usage error echoes,
and `clip`, which bounds a number or name an error message holds.

Every operation that can fail raises one of these, so callers (and the CLI)
can distinguish computation errors from bugs.
"""

import sys

# The kernel expression grammar, printed by `--help` and after a kernel
# that fails to parse; it lives here so that the CLI can print it without
# importing the kernel calculus.
KERNEL_GRAMMAR = ('atom := "diag(" bundle "," shift ")" | '
                  '"graph(deg=" int ["," bundle "," shift] ")" | '
                  '"t(" atom ")"; term := [mult "*"] atom; '
                  'expr := term ("+" term)* | "0"; '
                  'bundle := "O" | "O(" int ")"; '
                  'mult := int >= 1')


# The longest malformed input that a usage error quotes whole (`quote`)
QUOTE_LIMIT = 60


class LogfanError(Exception):
    """Base class for all named computation errors."""


class InvalidCone(LogfanError):
    """Cone rays are linearly dependent or otherwise not simplicial."""


class CenterNotInFan(LogfanError):
    """Requested subdivision center is not a cone of the fan."""


class RankMismatch(LogfanError):
    """Lattice map shape does not match the ambient ranks."""


class TooFewFactors(LogfanError):
    """A log product needs at least one factor."""


class NoToricModel(LogfanError):
    """The pair has no fan (positive-genus curve)."""


class NotABuildingSetOrder(LogfanError):
    """A prefix of the requested blow-up order is not a building set."""


class EmptyProjection(LogfanError):
    """Projection onto an empty set of factors."""


class AmbiguousDegree(LogfanError):
    """Curve cohomology depends on the bundle, not only on its degree."""


class WedgeOutOfRange(LogfanError):
    """Exterior power index outside 0..rank."""


class UnsupportedComposition(LogfanError):
    """Kernel atom combination with no closed composition rule."""


class UnsupportedHHShape(LogfanError):
    """Hochschild table is richer than the scalar regime."""


class FormalityUnavailable(LogfanError):
    """Tangent inclusion does not split; the formal recipe must not proceed."""


class ResultTooLarge(LogfanError):
    """A result has more digits than Python converts an int to text."""


class TooManyCones(LogfanError):
    """A log product would have more maximal cones than the documented cap."""


class DimensionTooLarge(LogfanError):
    """A cohomology or Hochschild table of P^n, an exterior algebra or a
    fan whose dimension or rank is above the documented cap."""


class TwistTooLarge(LogfanError):
    """A cohomology table of P^n with a twist above the documented cap."""


class TooManySolves(LogfanError):
    """The pairwise face check would need more exact solves than the
    documented cap."""


class TooMuchWallWork(LogfanError):
    """The face check of a pure fan would need more elimination work on
    its walls than the documented cap."""


class FanSchemaError(ValueError):
    """Fan data off the JSON schema: JSON text nested too deeply to read or
    holding an integer past Python's digit limit, a missing key, an entry
    of the wrong type or length, a ray index outside the ray list, a cone
    listed twice, an unknown label kind, a label on a ray no cone holds or
    a second label on one ray.
    It is a ValueError and not a LogfanError, so the CLI reports it as a
    usage error (exit 2)."""


def digit_limit(verb):
    """The text naming Python's digit limit for `verb` ("printing" or
    "reading") an int, without the digits."""
    return (f"an integer has more than {sys.get_int_max_str_digits()} "
            f"digits, Python's limit for {verb} one")


def printable(build, fallback=None):
    """The text `build()`, where Python's ValueError for printing an int
    past its digit limit is ResultTooLarge, or the text `fallback` when
    one is given: an error message built from a number computed from the
    input, such as a sum, gives the fallback, which leaves the number
    out."""
    try:
        return build()
    except ValueError as exc:
        if fallback is not None:
            return fallback
        raise ResultTooLarge(digit_limit("printing")) from exc


def clip(value):
    """`str(value)` when it has up to QUOTE_LIMIT characters; longer text
    is cut to its first QUOTE_LIMIT characters and its length, so that a
    number or pair name an error names stays one short line.  An int past
    Python's digit limit raises ValueError, as `str` does."""
    text = str(value)
    if len(text) <= QUOTE_LIMIT:
        return text
    return f"{text[:QUOTE_LIMIT]}... ({len(text)} characters)"


def quote(value):
    """`repr(value)` for malformed input `value` whose text, the string
    itself or the repr of any other value, has up to QUOTE_LIMIT
    characters; longer text is quoted by its first QUOTE_LIMIT characters
    and its length, so that a usage error stays one short line."""
    if not isinstance(value, str):
        return clip(repr(value))
    if len(value) <= QUOTE_LIMIT:
        return repr(value)
    return f"{value[:QUOTE_LIMIT]!r}... ({len(value)} characters)"


def read_int(digits):
    """`int(digits)` for a digit group a grammar matched, the reading twin
    of `printable`: more digits than Python reads as an int raise a
    ValueError that names the limit and does not repeat the digits."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(digit_limit("reading")) from None
