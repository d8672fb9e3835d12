"""Index substrate: suffix arrays, BWT, the FM-Index and the Eq. 2 k-step size model."""

from .fmindex import FMIndex

__all__ = ["FMIndex"]
