from drowsekit import errors

# every error class with the code the CLI prints for it
CODES = {
    "DrowsekitError": "Error",
    "InvalidRating": "InvalidRating",
    "IngestError": "IngestError",
    "MissingHeader": "MissingHeader",
    "WrongColumnSet": "WrongColumnSet",
    "NonNumericValue": "NonNumericValue",
    "NonFiniteValue": "NonFiniteValue",
    "InconsistentRowLength": "InconsistentRowLength",
    "NonUniformTimestep": "NonUniformTimestep",
    "EmptyFile": "EmptyFile",
    "GapInIntervals": "GapInIntervals",
    "MissingRater": "MissingRater",
    "InvalidEncoding": "InvalidEncoding",
    "DuplicateSessionId": "DuplicateSessionId",
    "DuplicateSessionFiles": "DuplicateSessionFiles",
    "UnsafeSessionId": "UnsafeSessionId",
    "DegeneratePower": "DegeneratePower",
    "NonFinitePower": "NonFinitePower",
    "TooFewSamples": "TooFewSamples",
    "NeedTwoGroups": "NeedTwoGroups",
    "NonFiniteSample": "NonFiniteSample",
    "InvalidSpec": "InvalidSpec",
}


def test_every_error_class_has_its_code():
    found = {name: cls.code for name, cls in vars(errors).items()
             if isinstance(cls, type) and issubclass(cls, errors.DrowsekitError)}
    assert found == CODES

