"""Exception hierarchy.

Every error carries a stable ``code`` string so callers (and the CLI) can
branch or report without string-matching messages.
"""

from __future__ import annotations


class DrowsekitError(Exception):
    """Base class for all toolkit errors."""

    code = "Error"


# ---- session / labeling -------------------------------------------------

class InvalidRating(DrowsekitError):
    code = "InvalidRating"


# ---- ingestion ----------------------------------------------------------

class IngestError(DrowsekitError):
    code = "IngestError"


class MissingHeader(IngestError):
    code = "MissingHeader"


class WrongColumnSet(IngestError):
    code = "WrongColumnSet"


class NonNumericValue(IngestError):
    code = "NonNumericValue"

    def __init__(self, row: int, message: str = ""):
        self.row = row
        super().__init__(message or f"non-numeric value in data row {row}")


class NonFiniteValue(IngestError):
    code = "NonFiniteValue"

    def __init__(self, row: int, message: str = ""):
        self.row = row
        super().__init__(message or f"NaN or infinite value in data row {row}")


class InconsistentRowLength(IngestError):
    code = "InconsistentRowLength"

    def __init__(self, row: int, message: str = ""):
        self.row = row
        super().__init__(message or f"wrong field count in data row {row}")


class NonUniformTimestep(IngestError):
    code = "NonUniformTimestep"


class EmptyFile(IngestError):
    code = "EmptyFile"


class GapInIntervals(IngestError):
    code = "GapInIntervals"


class MissingRater(IngestError):
    code = "MissingRater"


class InvalidEncoding(IngestError):
    code = "InvalidEncoding"


class DuplicateSessionId(IngestError):
    code = "DuplicateSessionId"


class UnsafeSessionId(IngestError):
    """A session id that is not a plain file-name part (``features`` names files by it)."""

    code = "UnsafeSessionId"


# ---- spectral -----------------------------------------------------------

class TooShort(DrowsekitError):
    code = "TooShort"


class DegeneratePower(DrowsekitError):
    code = "DegeneratePower"


# ---- vehicle ------------------------------------------------------------

class InvalidTelemetryRate(DrowsekitError):
    code = "InvalidTelemetryRate"


# ---- statistics ---------------------------------------------------------

class TooFewSamples(DrowsekitError):
    code = "TooFewSamples"


class ZeroVariance(DrowsekitError):
    code = "ZeroVariance"


class EmptySample(DrowsekitError):
    code = "EmptySample"


class NeedTwoGroups(DrowsekitError):
    code = "NeedTwoGroups"


class NonFiniteSample(DrowsekitError):
    code = "NonFiniteSample"


# ---- synthesis ----------------------------------------------------------

class InvalidSpec(DrowsekitError):
    code = "InvalidSpec"
