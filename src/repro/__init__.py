"""Reproduction of **AIRCHITECT v2** (Seo, Ramachandran et al., DATE 2025).

Learning the hardware accelerator design space through unified
representations: an encoder-decoder transformer with contrastive stage-1
training and Unified-Ordinal-Vector output heads, plus every substrate the
paper depends on (MAESTRO-style cost model, Scale-Sim systolic model,
ConfuciuX/GAMMA/BO search, GANDSE/VAESA/AIRCHITECT-v1 baselines, a
105-model workload zoo) — all in pure numpy.

Quickstart::

    import numpy as np
    from repro.dse import DSEProblem, generate_random_dataset
    from repro.core import ModelConfig, AirchitectV2, Stage1Trainer, Stage2Trainer

    rng = np.random.default_rng(0)
    problem = DSEProblem()
    data = generate_random_dataset(problem, 4000, rng)
    model = AirchitectV2(ModelConfig(), problem, rng)
    Stage1Trainer(model).train(data)
    Stage2Trainer(model).train(data)
    pe_idx, l2_idx = model.predict_indices(data.inputs[:8])

See README.md for the architecture and the experiment index.
"""

__version__ = "1.0.0"


def _set_allocator_policy() -> None:
    """Keep numpy's MiB-sized temporaries in the heap between steps.

    glibc serves any block above ``M_MMAP_THRESHOLD`` (128 KiB until its
    dynamic threshold has grown) with a fresh ``mmap`` and trims the
    heap top above ``M_TRIM_THRESHOLD``, so every training step and
    batched forward returned its temporaries to the OS on free and paid
    one page fault per 4 KiB to touch them again on the next step.
    Pinning both at the ceilings glibc's own dynamic rule would reach on
    64-bit (32 MiB, and twice that for the trim) keeps those pages
    mapped; the arrays and every computed value are unchanged.
    """
    import ctypes
    import platform

    if platform.libc_ver()[0] != "glibc":
        return
    m_trim_threshold, m_mmap_threshold = -1, -3      # <malloc.h>
    libc = ctypes.CDLL(None)
    libc.mallopt(m_mmap_threshold, 32 << 20)
    libc.mallopt(m_trim_threshold, 64 << 20)


_set_allocator_policy()

from . import analysis, baselines, core, dse, faults, maestro, nn, registry
from . import scalesim, search, train, uov, workloads

__all__ = ["analysis", "baselines", "core", "dse", "faults", "maestro", "nn",
           "registry", "scalesim", "search", "train", "uov", "workloads",
           "__version__"]
