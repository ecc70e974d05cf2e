"""The allocator policy set at ``import repro``.

A training step or batched forward allocates and frees numpy temporaries
of a few MiB each.  Under glibc's defaults every one of them is a fresh
``mmap`` that faults its pages in on first touch and is unmapped on free,
so the next step faults them all in again.  With the policy in place the
freed blocks stay in the heap and later steps reuse them without a fault.
"""

from __future__ import annotations

import platform
import resource

import numpy as np
import pytest

import repro  # noqa: F401  (sets the policy)

pytestmark = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the policy is glibc-only")

# Below numpy's 4 MiB hugepage cut, so the count does not depend on the
# host's transparent-hugepage setting.
STEP_MIB = (0.75, 3, 0.75, 3)
STEP_PAGES = int(sum(STEP_MIB) * 256)          # 4 KiB pages per step
STEPS = 50

# Minor faults of the calling thread where the platform counts them per
# thread, so other threads of the test process cannot add to the count.
_WHO = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)


def _step() -> None:
    arrays = [np.empty(int(mib * (1 << 20)) // 8) for mib in STEP_MIB]
    for array in arrays:
        array.fill(1.0)


def test_freed_temporaries_are_reused_without_page_faults():
    _step()                                    # grow the heap once
    before = resource.getrusage(_WHO).ru_minflt
    for _ in range(STEPS):
        _step()
    faults = resource.getrusage(_WHO).ru_minflt - before
    # Without the policy every step faults all of its pages in again
    # (~STEPS * STEP_PAGES in total).
    assert faults < STEP_PAGES, faults
