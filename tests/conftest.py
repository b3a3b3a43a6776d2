import numpy as np
import pytest

from crackqc.bifurcation import orientation, trace_curve
from crackqc.material import validate

# The third-party packages in pyproject.toml's [project] dependencies.
DEPENDENCIES = {"numpy", "scipy", "mpmath"}


@pytest.fixture
def params():
    """Reference parameter set used throughout: k1=4, k2=0.4, k3=20, c=0.5."""
    return validate(4.0, 0.4, 20.0, 0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_params(rng, u_cut=0.5):
    """A random admissible parameter set away from the marginal boundary."""
    k1 = rng.uniform(0.5, 8.0)
    k2 = rng.uniform(0.05, 1.5)
    k3 = rng.uniform(1.0, 50.0)
    return validate(k1, k2, k3, u_cut)


# Traces at the edges of `trace_curve`'s range, by name, with the (stop,
# kink_splits) each gives for the exact model at the reference set: one
# row, a step split at u_cut that still ends at s_max, a broken bond, and
# the reversed orientation.
EDGE_TRACES = {
    "one-row": (lambda eq: trace_curve(eq, 0.0), ("s_max", 0)),
    "kink": (lambda eq: trace_curve(eq, 3.2, 1e-2), ("s_max", 1)),
    "broken": (lambda eq: trace_curve(eq, 50.0, 1e-2), ("broken", 1)),
    "reversed": (lambda eq: trace_curve(eq, 2.0, 1e-2,
                                        sign=-orientation(eq)), ("s_max", 0)),
}
