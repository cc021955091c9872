import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")


@pytest.fixture
def svd_calls(monkeypatch):
    """Leading shapes of the stacks passed to np.linalg.svd during a test."""
    calls = []
    real = np.linalg.svd

    def counting(a, *args, **kw):
        calls.append(np.shape(a)[:-2])
        return real(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls
