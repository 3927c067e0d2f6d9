import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import osbk

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def circle_spec():
    return osbk.spec_for(osbk.circle())


@pytest.fixture(scope="session")
def cheb_spec():
    return osbk.spec_for(osbk.chebyshev_curve())


@pytest.fixture(scope="session")
def torus_spec():
    return osbk.spec_for(osbk.sphere_torus())


@pytest.fixture(scope="session")
def ft_graph():
    # F = q1^2 q2 + q1 q2^2, the running homogeneous-cubic example
    return osbk.GeneratingGraph(osbk.Poly(2, {(2, 1): 1.0, (1, 2): 1.0}))


@pytest.fixture(scope="session")
def ft_spec(ft_graph):
    return osbk.spec_for(ft_graph)


@pytest.fixture(scope="session")
def quartic_spec():
    # the benchmark's quartic table: q1^2 q2 + q1 q2^2 + 0.1 q1^4 on the box (-3, 3)
    return osbk.spec_for(osbk.GeneratingGraph(osbk.Poly(2, {(2, 1): 1.0, (1, 2): 1.0, (4, 0): 0.1}), (-3.0, 3.0)))


@pytest.fixture(scope="session")
def ell2():
    return osbk.SymplecticEllipsoid((1.0, 2.0))


@pytest.fixture(scope="session")
def lagrangian_plane_curve():
    # circle inside the Lagrangian (x1, x2) plane of R^4: omega vanishes on all chords
    return osbk.spec_for(
        osbk.TrigImmersion(
            1,
            [
                [((1,), 1.0, 0.0)],
                [],
                [((1,), 0.0, 1.0)],
                [],
            ],
        )
    )


def random_symplectic(d: int, rng: np.random.Generator, translate: bool = True) -> "osbk.AffineSymplectic":
    """Random affine symplectic map of R^{2d} (shear x shear x diagonal, interleaved)."""
    B = rng.normal(size=(d, d))
    B = 0.5 * (B + B.T)
    C = rng.normal(size=(d, d))
    C = 0.5 * (C + C.T)
    M = np.eye(d) + 0.3 * rng.normal(size=(d, d))
    I = np.eye(d)
    Z = np.zeros((d, d))
    S1 = np.block([[I, B], [Z, I]])
    S2 = np.block([[I, Z], [C, I]])
    S3 = np.block([[M, Z], [Z, np.linalg.inv(M).T]])
    Sb = S1 @ S2 @ S3
    # permute block layout (x1..xd, y1..yd) into the interleaved convention
    P = np.zeros((2 * d, 2 * d))
    for i in range(d):
        P[2 * i, i] = 1.0
        P[2 * i + 1, d + i] = 1.0
    S = P @ Sb @ P.T
    b = rng.normal(size=2 * d) if translate else np.zeros(2 * d)
    return osbk.AffineSymplectic(S, b)
