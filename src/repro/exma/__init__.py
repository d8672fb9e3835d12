"""EXMA core: table, learned/MTL indexes, search, CHAIN/BΔI compression."""

from . import bdi, chain
from .learned_index import NaiveLearnedIndex
from .mtl_index import MTLIndex
from .search import ExmaSearch
from .table import ExmaTable

__all__ = ["ExmaSearch", "ExmaTable", "MTLIndex", "NaiveLearnedIndex", "bdi", "chain"]
