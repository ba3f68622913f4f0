"""Exception types shared across the package."""


class SpanVError(Exception):
    """Base class for errors raised by this package."""


class ShapeMismatch(SpanVError):
    """A table or matrix does not have the expected shape."""


class NegativeSize(SpanVError):
    """A finite set was given a factor below zero."""


class TableOutOfRange(SpanVError):
    """A function table names a position outside its codomain."""


class CodMismatch(SpanVError):
    """Two arrows were chained but the middle objects differ."""


class FeetMismatch(SpanVError):
    """Two spans were combined but their feet do not line up."""


class NotMonic(SpanVError):
    """A unique-map search needs an injective leg and found none."""


class UnsupportedBackend(SpanVError):
    """The chosen backend does not implement the requested operation."""


class InvalidBackend(SpanVError):
    """A backend was constructed with parameters it cannot work with."""


class FamMismatch(SpanVError):
    """Two indexed families disagree on their index set or entries."""


class ComponentShapeError(SpanVError):
    """A component morphism has the wrong domain or codomain."""


class TriangleViolation(SpanVError):
    """An apex map fails to commute with the span legs."""


class FactorizationViolation(SpanVError):
    """An apex map fails to carry components to equal components."""


class BoundaryMismatch(SpanVError):
    """Two 2-cells were stacked but their boundaries differ."""


class PasteError(SpanVError):
    """No structural isomorphism bridges two adjacent boundaries.

    Carries the offending pair of 1-cells and a decoded counterexample
    signature whose multiplicities differ between the two sides.
    """

    def __init__(self, msg, left=None, right=None, counterexample=None):
        super().__init__(msg)
        self.left = left
        self.right = right
        self.counterexample = counterexample


class NotFirm(SpanVError):
    """A Morita context is missing a required invertible composite."""


class NotInvertible(SpanVError):
    """A morphism that must have an inverse has none."""


class NotBimodule(SpanVError):
    """A candidate endomorphism is not linear and colinear as required."""


class NotAGroupoid(SpanVError):
    """Composition, identity or inverse tables violate the groupoid laws."""


class NotOverX2(SpanVError):
    """A structure does not have the square-of-a-set shape expected here."""


class OutOfBounds(SpanVError):
    """A search or a demo parameter exceeds the configured size bounds."""


class OutputError(SpanVError):
    """An output file cannot be written, or a written demo fails its own checks."""


class ParseError(SpanVError):
    """An input file is not syntactically valid."""


class SchemaError(SpanVError):
    """An input file parses but does not match the expected schema."""
