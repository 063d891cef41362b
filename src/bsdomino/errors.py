"""Exception types shared across the package."""


class BsDominoError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BsDominoError):
    """Malformed textual input (word syntax, map spec, tileset file).

    The message names the offending token and, when known, its place
    (a character offset or a line number).
    """


class BadRange(BsDominoError):
    """An index range with lower bound above upper bound."""


class OutsideDomain(BsDominoError):
    """A point that does not belong to the domain of a piecewise map."""


class OutsidePiece(BsDominoError):
    """A point that does not lie in the square of the requested piece."""


class OrbitTooShort(BsDominoError):
    """An orbit that does not reach every level a patch spans."""


class EnumerationTooLarge(BsDominoError):
    """Tile enumeration would exceed the configured candidate cap."""
