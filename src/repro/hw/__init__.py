"""Hardware substrate: DRAM, caches, CAM, schedulers, PE arrays, energy."""
