"""EXMA reproduction: a genomics accelerator for exact-matching (HPCA 2021).

The package is organised bottom-up:

* :mod:`repro.genome` — DNA alphabet, synthetic references, read simulators,
  FASTA I/O.
* :mod:`repro.index` — suffix arrays, BWT, the 1-step FM-Index and the
  Eq. 2 size model of the k-step FM-Index.
* :mod:`repro.lisa` — LISA: IP-BWT plus a recursive-model learned index.
* :mod:`repro.exma` — the paper's contribution: the EXMA table, the naive
  and MTL learned indexes, EXMA search, CHAIN and BΔI compression.
* :mod:`repro.engine` — the batched multi-backend query engine: a
  :class:`~repro.engine.engine.QueryEngine` advancing whole query batches
  in lockstep through a registered search backend, with (k-mer, pos)
  request coalescing feeding the hardware model.
* :mod:`repro.hw` — DDR4 timing/energy, caches, the scheduling CAM,
  FR-FCFS / 2-stage schedulers and the PE-array inference engine.
* :mod:`repro.accel` — the trace-driven EXMA accelerator model, analytic
  baselines (CPU, GPU, FPGA, ASIC, MEDAL, FindeR) and metrics.
* :mod:`repro.apps` — read alignment, assembly, annotation and
  reference-based compression plus the pipeline time/energy models.
* :mod:`repro.experiments` — one entry point per table/figure of the
  paper's evaluation.
* :mod:`repro.serving` — the always-on multi-tenant query service.

Each subpackage's ``__init__`` names only what some reader outside it
imports through the package path; everything else is imported from its
defining module.  Importing ``repro`` imports no subpackage.
"""

__version__ = "1.0.0"
