"""Cell-array working-set policy: chunk sizes and memory-mapped spill.

Full-geometry sweeps (8 channels x 2 pseudo channels x 16 banks x 16384
rows) evaluate cell populations over coordinate cross-products far
larger than any one bank.  Materializing those arrays whole-device is
what used to pin peak RSS to the sweep size; instead, the vectorized
engines stream **bank-sized chunks** through a fixed working set:

- :func:`repro.config.cells_chunk_elems` bounds how many population
  elements one evaluation chunk may hold (``HBMSIM_CELLS_CHUNK``);
  chunk boundaries always fall on whole-combo blocks
  (:func:`chunk_combo_blocks`), so every chunk is a contiguous slice
  of the full batch and — because all
  population kernels are elementwise with per-combo seed-chain prefixes
  — bit-identical to the same slice of an all-at-once evaluation
  (asserted in ``tests/core/test_chunked_population.py``).
- :func:`allocate_cells` places the *persistent* outputs (per-row
  threshold matrices, assembled result grids) either in ordinary memory
  or, with ``HBMSIM_CELLS_MMAP`` enabled, in an unlinked temp-file
  memory map the OS can page out — RSS stays flat even when the
  logical arrays do not.

Both knobs are parsed by :mod:`repro.config`.
"""

from __future__ import annotations

import tempfile
from typing import List, Tuple

import numpy as np

from repro.config import cells_mmap_enabled


def allocate_cells(shape: Tuple[int, ...], dtype: object) -> np.ndarray:
    """Allocate a persistent cell array under the spill policy.

    With ``HBMSIM_CELLS_MMAP`` off this is ``np.empty`` (unchanged
    behaviour).  With it on, the array lives in an *unlinked* temporary
    file mapping: identical numerics and indexing, but the pages are
    file-backed, so the OS can evict cold chunks instead of swapping —
    the device-scale threshold matrices stop counting against a flat
    RSS budget.  The backing file is deleted up-front; the mapping dies
    with the array (no cleanup path, no leak on crash).
    """
    if not cells_mmap_enabled():
        return np.empty(shape, dtype=dtype)
    handle = tempfile.TemporaryFile(prefix="hbmsim-cells-")
    try:
        return np.memmap(handle, dtype=dtype, mode="w+", shape=shape)
    finally:
        # np.memmap holds its own reference to the mapping; the Python
        # file object is safe to close (the unlinked inode lives on
        # until the mapping is dropped).
        handle.close()


def chunk_combo_blocks(n_combos: int, rows_per_combo: int,
                       chunk_elems: int) -> List[Tuple[int, int]]:
    """Split a rows-fastest combo batch into whole-combo chunk ranges.

    Returns ``[(start, stop), ...]`` combo-index ranges covering
    ``range(n_combos)`` in order, each holding at least one combo and at
    most ``chunk_elems // rows_per_combo`` of them (always at least one
    — a single combo larger than the bound still evaluates; the bound
    is a working-set target, not a hard split of seed-chain blocks).
    """
    if n_combos <= 0:
        return []
    if rows_per_combo <= 0:
        raise ValueError("rows_per_combo must be positive")
    per_chunk = max(1, chunk_elems // rows_per_combo)
    return [(start, min(start + per_chunk, n_combos))
            for start in range(0, n_combos, per_chunk)]
