"""k-step FM-Index: search k DNA symbols per iteration.

The k-step FM-Index (Chacon et al., reference [36] of the paper) enlarges
the alphabet from :math:`\\Sigma` to :math:`\\Sigma^k` so each backward
search iteration consumes a k-mer instead of a single symbol, cutting the
number of memory accesses per query from ``2|Q|`` to ``2|Q|/k``.  The cost
is an exponentially growing Occ table — Eq. 2 of the paper, reproduced by
:func:`kstep_size_bytes`.  The paper sizes this prior-work substrate
analytically, so only the size model lives here: Fig. 6(b) and
``repro-exma info`` read it.
"""

from __future__ import annotations

import math

#: Alphabet size used by the paper's size formula (A, C, G, T).
SIGMA = 4


def kstep_size_bytes(
    genome_length: int, k: int, bucket_width: int = 64
) -> int:
    """Eq. 2 of the paper: k-step FM-Index size in bytes.

    ``F = ceil(log2 |G|) * |G| * |Sigma|^k / (8 d) + |G| * ceil(log2(|Sigma|^k + 1)) / 8``
    """
    if genome_length <= 0:
        raise ValueError("genome_length must be positive")
    if k <= 0:
        raise ValueError("k must be positive")
    if bucket_width <= 0:
        raise ValueError("bucket_width must be positive")
    log_g = math.ceil(math.log2(genome_length))
    markers = log_g * genome_length * (SIGMA**k) / (8 * bucket_width)
    bwt = genome_length * math.ceil(math.log2(SIGMA**k + 1)) / 8
    return int(markers + bwt)
