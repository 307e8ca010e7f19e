"""Exact spectral invariants of squared distance matrices of complete
multipartite graphs: spectrum, inertia, energy and spectral radius from
closed forms, verified against an independent dense eigensolver."""

from .charpoly import (
    FactoredCharPoly,
    IntPolynomial,
    Sign,
    char_poly_factored,
    det_delta_exact,
    lambda_s1_sign,
)
from .errors import SqDistError
from .partitions import (
    Partition,
    Verdict,
    canonicalize,
    complete_split,
    elementary_chain,
    enumerate_class,
    enumerate_partitions,
    majorizes,
    parse_partition,
    split_h,
    turan,
    turan_h,
)
from .spectrum import (
    EnergyReport,
    InertiaTriple,
    SpectrumReport,
    energy,
    full_spectrum,
    inertia,
    secular_roots,
    spectral_radius_root,
)
from .extremal import (
    ChainReport,
    ScanReport,
    scan_energy,
    scan_energy_h,
    scan_radius,
    verify_chain_monotone,
)

__version__ = "0.1.0"
