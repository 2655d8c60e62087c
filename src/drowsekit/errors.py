"""Exception hierarchy.

Every error carries a stable ``code`` string so callers (and the CLI) can
branch or report without string-matching messages. A subclass's code is
its class name.
"""

from __future__ import annotations


class DrowsekitError(Exception):
    """Base class for all toolkit errors."""

    code = "Error"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__


class _AtRow:
    """Mixin for an error a loader may find in one data row: ``row`` is its
    1-based number, or None when the error was found elsewhere."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        super().__init__(message)


# ---- session / labeling -------------------------------------------------

class InvalidRating(_AtRow, DrowsekitError):
    pass


# ---- ingestion ----------------------------------------------------------

class IngestError(DrowsekitError):
    pass


class MissingHeader(IngestError):
    pass


class WrongColumnSet(IngestError):
    pass


class NonNumericValue(_AtRow, IngestError):
    pass


class NonFiniteValue(_AtRow, IngestError):
    pass


class InconsistentRowLength(_AtRow, IngestError):
    pass


class NonUniformTimestep(IngestError):
    pass


class EmptyFile(IngestError):
    pass


class GapInIntervals(_AtRow, IngestError):
    pass


class MissingRater(_AtRow, IngestError):
    pass


class InvalidEncoding(IngestError):
    pass


class DuplicateSessionId(IngestError):
    pass


class DuplicateSessionFiles(IngestError):
    """A manifest entry that lists a file an earlier entry already lists."""


class UnsafeSessionId(IngestError):
    """A session id that is not a plain file-name part (``features`` names files by it)."""


# ---- spectral -----------------------------------------------------------

class DegeneratePower(DrowsekitError):
    pass


class NonFinitePower(DrowsekitError):
    """A band or total power that is not finite: a sample so large that its
    Welch PSD overflows float64."""


# ---- statistics ---------------------------------------------------------

class TooFewSamples(DrowsekitError):
    pass


class NeedTwoGroups(DrowsekitError):
    pass


class NonFiniteSample(DrowsekitError):
    pass


# ---- synthesis ----------------------------------------------------------

class InvalidSpec(DrowsekitError):
    pass
