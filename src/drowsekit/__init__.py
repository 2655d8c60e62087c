"""Drowsiness-separation analysis toolkit.

Ingests EEG sessions, vehicle telemetry, and observer drowsiness ratings;
extracts spectral and vehicle features; and quantifies alert-vs-drowsy
separation per feature with nonparametric statistics.
"""

from .errors import DrowsekitError
from .features import FeatureMatrix
from .preprocess import (
    ArtifactVerdict,
    DenoiseSummary,
    Epoch,
    EpochSet,
    FilterKernel,
    FilterKind,
    artifact_decision,
    denoise_epochs,
    denoise_summary,
    design_fir,
    epoch_signal,
    filter_epoch,
)
from .session import (
    BinaryState,
    EegRecording,
    OrdInterval,
    OrdLabelTrack,
    Session,
    VehicleTelemetry,
    Violation,
    majority_label,
    validate_session,
)
from .spectral import (
    BANDS,
    Band,
    PsdEstimate,
    band_power,
    eeg_feature_names,
    extract_features,
    relative_band_power,
    welch_psd,
)
from .stats import (
    SeparationReport,
    TestMethod,
    TestResult,
    exact_rank_sum_p,
    ks_normal_test,
    rank_sum_test,
    separation_report,
)
from .synthgen import SynthSpec, generate_session
from .vehicle import interval_aggregate

__version__ = "0.1.0"

__all__ = [
    "ArtifactVerdict",
    "BANDS",
    "Band",
    "BinaryState",
    "DenoiseSummary",
    "DrowsekitError",
    "EegRecording",
    "Epoch",
    "EpochSet",
    "FeatureMatrix",
    "FilterKernel",
    "FilterKind",
    "OrdInterval",
    "OrdLabelTrack",
    "PsdEstimate",
    "SeparationReport",
    "Session",
    "SynthSpec",
    "TestMethod",
    "TestResult",
    "VehicleTelemetry",
    "Violation",
    "artifact_decision",
    "band_power",
    "denoise_epochs",
    "denoise_summary",
    "design_fir",
    "eeg_feature_names",
    "epoch_signal",
    "exact_rank_sum_p",
    "extract_features",
    "filter_epoch",
    "generate_session",
    "interval_aggregate",
    "ks_normal_test",
    "majority_label",
    "rank_sum_test",
    "relative_band_power",
    "separation_report",
    "validate_session",
    "welch_psd",
]
