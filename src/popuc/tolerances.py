"""Central numerical tolerance record.

Every module pulls its thresholds from one ``Tolerances`` instance so the
test suite and the command line tool agree on what "passes".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    residual: float = 1e-10          # root / identity residual bound
    unimodular: float = 1e-12        # slack on |z| = 1 for circle points
    node_separation: float = 1e-12   # minimum pairwise node distance
    weight_sum: float = 1e-9         # slack on sum of weights = 1
    spectrum_radius: float = 1e-7    # eigenvalue radius slack before a spectrum is rejected
    verblunsky_margin: float = 1e-12 # strictness margin for |a| < 1
    monic: float = 1e-9              # slack on a leading coefficient of 1 (``verblunsky_from_polys``)
    # pass bounds of ``popuc check``
    orthogonality: float = 1e-8          # weighted Gram matrix versus diag(h)
    paraorthogonality: float = 1e-10     # Phi_{N+1}^* + omega Phi_{N+1}
    mirror_relations: float = 1e-10      # reflected CMV factors
    persymmetry_identities: float = 1e-8 # weight, modulus and phase forms


DEFAULT = Tolerances()

# Structural bounds: each has one value in use, so none is a settable field.
SELF_DUAL_DEFECT = 1e-10    # mirror defect below which data counts as self-dual
NODE_PRODUCT_DRIFT = 1e-8   # slack on z_0 ... z_N = (-1)^N / omega for given nodes
RECOVERED_DEFECT = 1e-8     # mirror defect allowed on recovered coefficient data
