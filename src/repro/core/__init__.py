"""Distance-generalized core decomposition — the paper's primary contribution.

Public entry points:

* :func:`repro.core.core_decomposition` — unified facade (algorithm dispatch).
* :func:`repro.core.h_bz`, :func:`repro.core.h_lb`, :func:`repro.core.h_lb_ub`
  — the three exact algorithms of §4.
* :func:`repro.core.classic_core_decomposition` — classic k-core (h = 1).
* Bounds: :func:`repro.core.lower_bound_lb1`, :func:`repro.core.lower_bound_lb2`,
  :func:`repro.core.upper_bound`, :func:`repro.core.improve_lb`.
* Oracles: :func:`repro.core.naive_core_decomposition`,
  :func:`repro.core.naive_kh_core`.
"""

from repro.core.backends import (
    BACKENDS,
    AliveMask,
    CSREngine,
    DictEngine,
    NumpyEngine,
    numpy_available,
    resolve_engine,
)
from repro.core.result import CoreDecomposition
from repro.core.classic import classic_core_decomposition, classic_core_indices
from repro.core.naive import (
    naive_core_decomposition,
    naive_core_index_by_membership,
    naive_kh_core,
)
from repro.core.bounds import (
    lower_bound_lb1,
    lower_bound_lb2,
    upper_bound,
    improve_lb,
)
from repro.core.hbz import h_bz
from repro.core.hlb import h_lb
from repro.core.hlbub import h_lb_ub, build_partitions
from repro.core.parallel import EXECUTORS, chunk_plan, compute_h_degrees, map_batches
from repro.core.decomposition import (
    ALGORITHMS,
    core_decomposition,
    core_decomposition_with_report,
)
from repro.core.spectrum import VertexSpectrum, core_spectrum

__all__ = [
    "BACKENDS",
    "AliveMask",
    "CSREngine",
    "DictEngine",
    "NumpyEngine",
    "numpy_available",
    "resolve_engine",
    "CoreDecomposition",
    "classic_core_decomposition",
    "classic_core_indices",
    "naive_core_decomposition",
    "naive_core_index_by_membership",
    "naive_kh_core",
    "lower_bound_lb1",
    "lower_bound_lb2",
    "upper_bound",
    "improve_lb",
    "h_bz",
    "h_lb",
    "h_lb_ub",
    "build_partitions",
    "compute_h_degrees",
    "chunk_plan",
    "map_batches",
    "ALGORITHMS",
    "EXECUTORS",
    "core_decomposition",
    "core_decomposition_with_report",
    "VertexSpectrum",
    "core_spectrum",
]
