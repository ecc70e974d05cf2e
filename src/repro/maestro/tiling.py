"""L2 tiling analysis: DRAM traffic and tile-switch counts per dataflow.

The L2 buffer is partitioned between the dataflow's *stationary* operand
tile (kept as large as possible) and double-buffered stream blocks for the
other two operands.  All functions are vectorised: ``m, n, k`` and
``capacity_elems`` broadcast together.  Tiling never depends on the PE
count, so for the oracle's (64 PE x 12 buffer) grid the cost model runs it
at ``(batch, 1, 12)`` — once per buffer size, not once per grid point.

Traffic formulas follow the classic tiled-GEMM reload counts:

* the stationary operand is read from DRAM exactly once;
* a streamed operand is re-read once per stationary-tile sweep over the
  dimension it does not share with the stationary operand;
* partial sums cost a C read+write per extra reduction (K) tile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataflow import Dataflow

__all__ = ["TilingAnalysis", "analyze_tiling"]


@dataclass
class TilingAnalysis:
    """Vectorised tiling result (all fields broadcast numpy arrays).

    ``dram_elems``  — total DRAM traffic in elements (A + B + C).
    ``switches``    — number of L2 tile phases (drives L2 pipeline overhead).
    ``traffic_a/b/c`` — per-operand DRAM traffic in elements.
    """

    traffic_a: np.ndarray
    traffic_b: np.ndarray
    traffic_c: np.ndarray
    switches: np.ndarray

    @property
    def dram_elems(self) -> np.ndarray:
        return self.traffic_a + self.traffic_b + self.traffic_c


def _ceil_div(a, b):
    return -(-np.asarray(a, dtype=np.int64) // np.asarray(b, dtype=np.int64))


def _partial_sum_traffic(m, n, k, tile_k):
    """C traffic: write-once if K fits in one tile, else read+write per extra
    K tile (partials spill to DRAM)."""
    k_tiles = _ceil_div(k, tile_k)
    return m * n * (2 * k_tiles - 1)


def analyze_tiling(dataflow: Dataflow, m, n, k, capacity_elems) -> TilingAnalysis:
    """Compute DRAM traffic and switch counts for one dataflow.

    Parameters
    ----------
    dataflow:
        Which operand is stationary (decides tile priorities / loop order).
    m, n, k:
        GEMM dimensions (broadcastable arrays).
    capacity_elems:
        L2 capacity in *elements* (broadcastable array).
    """
    m = np.asarray(m, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    cap = np.maximum(np.asarray(capacity_elems, dtype=np.int64), 4)
    m, n, k, cap = np.broadcast_arrays(m, n, k, cap)

    half = np.maximum(cap // 2, 1)
    dataflow = Dataflow.from_any(dataflow)

    if dataflow is Dataflow.WEIGHT_STATIONARY:
        # Stationary B (K x N): keep full K columns if possible.
        tile_k = np.minimum(k, np.maximum(half, 1))
        tile_n = np.clip(half // np.maximum(tile_k, 1), 1, n)
        # Stream A/C in blocks of tile_m rows, double buffered.
        row_cost = 2 * (tile_k + tile_n)
        tile_m = np.clip(half // np.maximum(row_cost, 1), 1, m)
        traffic_a = m * k * _ceil_div(n, tile_n)
        traffic_b = k * n
        traffic_c = _partial_sum_traffic(m, n, k, tile_k)
        switches = _ceil_div(k, tile_k) * _ceil_div(n, tile_n) * _ceil_div(m, tile_m)

    elif dataflow is Dataflow.OUTPUT_STATIONARY:
        # Stationary C (M x N): near-square output tile.
        side = np.maximum(np.sqrt(half.astype(np.float64)).astype(np.int64), 1)
        tile_m = np.clip(side, 1, m)
        tile_n = np.clip(half // np.maximum(tile_m, 1), 1, n)
        row_cost = 2 * (tile_m + tile_n)
        tile_kk = np.clip(half // np.maximum(row_cost, 1), 1, k)
        traffic_a = m * k * _ceil_div(n, tile_n)
        traffic_b = k * n * _ceil_div(m, tile_m)
        traffic_c = m * n  # accumulated in place, written once
        switches = _ceil_div(m, tile_m) * _ceil_div(n, tile_n) * _ceil_div(k, tile_kk)

    elif dataflow is Dataflow.ROW_STATIONARY:
        # Stationary A (M x K): keep full rows if possible.
        tile_m = np.minimum(m, np.maximum(half, 1))
        tile_k = np.clip(half // np.maximum(tile_m, 1), 1, k)
        row_cost = 2 * (tile_m + tile_k)
        tile_n = np.clip(half // np.maximum(row_cost, 1), 1, n)
        traffic_a = m * k
        traffic_b = k * n * _ceil_div(m, tile_m)
        traffic_c = _partial_sum_traffic(m, n, k, tile_k)
        switches = _ceil_div(m, tile_m) * _ceil_div(k, tile_k) * _ceil_div(n, tile_n)

    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unhandled dataflow {dataflow}")

    return TilingAnalysis(traffic_a=traffic_a.astype(np.float64),
                          traffic_b=traffic_b.astype(np.float64),
                          traffic_c=traffic_c.astype(np.float64),
                          switches=switches.astype(np.float64))
