"""Index substrate: suffix arrays, BWT, FM-Index (1-step and k-step)."""

from .fmindex import FMIndex

__all__ = ["FMIndex"]
