"""Drowsiness-separation analysis toolkit.

Ingests EEG sessions, vehicle telemetry, and observer drowsiness ratings;
extracts spectral and vehicle features; and quantifies alert-vs-drowsy
separation per feature with nonparametric statistics. The pipeline lives
in the submodules (``drowsekit.pipeline``, ``drowsekit.stats``, ...); the
package root exports only the synthetic-session generator.
"""

from .synthgen import SynthSpec, generate_session

__version__ = "0.1.0"

__all__ = ["SynthSpec", "generate_session"]
