"""Genome-analysis applications: alignment, assembly, annotation, compression."""

from .alignment import ReadAligner, alignment_accuracy
from .annotation import AnnotationCounters, ExactWordAnnotator, words_from_reference
from .assembly import AssemblyCounters, OverlapAssembler, n50
from .compression import CompressionCounters, ReferenceCompressor
from .pipeline import WorkCounters, default_breakdown_model

__all__ = [
    "AnnotationCounters",
    "AssemblyCounters",
    "CompressionCounters",
    "ExactWordAnnotator",
    "OverlapAssembler",
    "ReadAligner",
    "ReferenceCompressor",
    "WorkCounters",
    "alignment_accuracy",
    "default_breakdown_model",
    "n50",
    "words_from_reference",
]
