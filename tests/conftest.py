import time

import numpy as np
import pytest

from skewdiv.ptensor import PointAnalysis
from skewdiv.scenarios import random_scenario

SESSION_T0 = time.perf_counter()


def session_elapsed() -> float:
    return time.perf_counter() - SESSION_T0


def bochner_dim3_rhs(an: PointAnalysis):
    """The dimension-3 right side of the Bochner balance, which ``bochner_residual`` reduces to:

    |grad P|^2 + 2 <P, grad div P> + R |P|^2 - 2 R_js P_sk P_jk.
    """
    curv = an.mj.curvature
    p_mixed = np.einsum("...jb,...bc->...jc", an.mj.ginv_val, an.P_val)
    ric_quad = np.einsum("...js,...sc,...jc->...", curv.ricci, an.P_up, p_mixed)
    t_div = 2.0 * np.einsum("...jk,...jk->...", an.P_up, an.nabla_div_P_val)
    return an.nabla_p_norm_sq + t_div + curv.scalar * an.p_norm_sq - 2.0 * ric_quad


def pytest_collection_modifyitems(session, config, items):
    # The whole-suite runtime criterion must observe everything else first.
    items.sort(key=lambda it: it.name == "test_criterion_10_full_suite_runtime")


class ScenarioBatch:
    """A random scenario with its grid points and cached point analyses."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.spec = scenario.spec()
        self.points = scenario.grid_points()
        self.analyses = [PointAnalysis(self.spec, pt) for pt in self.points]


@pytest.fixture(scope="session")
def random_pool():
    """50 seeded random scenarios per dimension (n = 3 and n = 4), analyzed.

    Shared across the acceptance criteria that sweep random scenarios; the
    build time is recorded so runtime budgets can account for it.
    """
    t0 = time.perf_counter()
    batches = []
    for dim in (3, 4):
        for seed in range(50):
            batches.append(ScenarioBatch(random_scenario(1000 + seed, dim)))
    build_time = time.perf_counter() - t0
    return batches, build_time
