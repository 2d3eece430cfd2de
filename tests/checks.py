"""Checks that only the tests call, kept beside the exact oracle.

No command of the package runs these, so they live here and not in
``skewdiv``: the package holds what a command runs, and ``test_imports``
fails on a public name there that no code in the package reads.

* :func:`second_bianchi_residual` checks the engine's curvature against a
  law every Levi-Civita connection obeys.  It forms all n^4 R^m_ijs jets,
  so it is not a verify verdict; the exact oracle (``exact_oracle.py``)
  checks the Riemann tensor itself.
* :func:`extract_derivative` reads one partial derivative out of a jet.
* :func:`violation_bracket` is the sign law of the warped family's
  violation (see :mod:`skewdiv.warped`).
"""

from typing import Sequence

import numpy as np

from skewdiv.errors import OrderExceededError
from skewdiv.geometry import IdentityResidual, MetricJets, cov_derivative, residual
from skewdiv.jets import Jet, contract, jet_space, partials
from skewdiv.warped import WarpedSpec


def second_bianchi_residual(mj: MetricJets) -> IdentityResidual:
    """Residual of the contracted second Bianchi identity (jet order >= 3).

    div Ric = (1/2) dR holds for every Levi-Civita connection; a nonzero
    residual beyond rounding indicates a convention or implementation bug.
    Its lhs is max_k |div Ric - 1/2 dR|_k and its one term max_k |dR|_k;
    over a batch, one of each per point.
    """
    mj.require_order(3, "the second Bianchi identity")
    n = mj.dim
    pairs = jet_space(n, mj.order - 2).pairs
    ric = np.einsum("...iijsZ->...jsZ", mj.riemann_up(mj.order - 2))
    dscal = partials(contract("js,js->", mj.ginv, ric, pairs), n, mj.batch)[..., 0]
    divric = np.einsum("...ij,...ijk->...k", mj.ginv_val, cov_derivative(ric, mj.gamma)[..., 0])
    gap = np.max(np.abs(divric - 0.5 * dscal), axis=-1)
    return residual("second-bianchi", mj.points, gap, 0.0, (np.max(np.abs(dscal), axis=-1),))


def extract_derivative(j: Jet, alpha: Sequence[int]) -> float:
    """Partial derivative d^alpha of the jet's field at the base point."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != j.nvars:
        raise ValueError(f"multi-index has {len(alpha)} slots, jet has {j.nvars}")
    if any(a < 0 for a in alpha):
        raise ValueError("multi-index entries must be nonnegative")
    if sum(alpha) > j.order:
        raise OrderExceededError(
            f"derivative order {sum(alpha)} exceeds jet order {j.order}"
        )
    idx = j.space.index[alpha]
    return float(j.c[idx] * j.space.factorial[idx])


def violation_bracket(spec: WarpedSpec, r: float) -> float:
    """The sign-determining factor 4 phi_dot^2/phi^2 - phi_dd/phi."""
    p0, p1, p2 = spec.phi_jet(r).c[:3].tolist()
    p2 *= 2.0
    return 4.0 * p1**2 / p0**2 - p2 / p0
