"""Numerical bounds, one module constant each.

Every module imports the bounds it reads from here, so the test suite and
the command line tool agree on what "passes".
"""

RESIDUAL = 1e-10            # root / identity residual bound
UNIMODULAR = 1e-12          # slack on |z| = 1 for circle points; seam slack below 2 pi, read by ``wrap_angles``
NODE_SEPARATION = 1e-12     # minimum pairwise node distance
WEIGHT_SUM = 1e-9           # slack on sum of weights = 1
SPECTRUM_RADIUS = 1e-7      # eigenvalue radius slack before a spectrum is rejected
VERBLUNSKY_MARGIN = 1e-12   # strictness margin for |a| < 1
EIGEN_CLUSTER = 1e-6        # cos theta gap below which eigenvectors of (U + U^H)/2 are split again on U

# pass bounds of ``popuc check``
ORTHOGONALITY = 1e-8            # weighted Gram matrix versus diag(h)
PARAORTHOGONALITY = 1e-10       # Phi_{N+1}^* + omega Phi_{N+1}
MIRROR_RELATIONS = 1e-10        # reflected CMV factors
PERSYMMETRY_IDENTITIES = 1e-8   # weight, modulus and phase forms

SELF_DUAL_DEFECT = 1e-10    # mirror defect below which data counts as self-dual
NODE_PRODUCT_DRIFT = 1e-8   # slack on z_0 ... z_N = (-1)^N / omega for given nodes
RECOVERED_DEFECT = 1e-8     # mirror defect allowed on recovered coefficient data

# ``persymmetric_sign_pattern``
TRANSPORT_RESIDUAL = 1e-8   # eigenvector and transport residual, relative to max(1, max |psi|)
SIGN_SLACK = 1e-6           # distance of a quasi-reflection eigenvalue from +1 or -1

# ``krawtchouk_family``
KRAWTCHOUK_DEGENERATE = 1e-4  # |1 + omega| below which the family degenerates
KRAWTCHOUK_REMAINDER = 1e-8   # remainder of each ladder division by (w - omega), relative
KRAWTCHOUK_CLOSURE = 1e-6     # distance of the dropped node candidate from omega
KRAWTCHOUK_HALF_SINE = 1e-12  # |sin(theta / 2)| below which a node counts as z = 1
