import pytest

from paddle_lab import build_model, model_from_dict, model_to_dict


@pytest.fixture(scope="session")
def default_model():
    return build_model()


@pytest.fixture(scope="session")
def with_sigma0():
    """Factory: default model with one field overridden (usually sigma0)."""
    base = model_to_dict(build_model())

    def make(sigma0, **extra):
        return model_from_dict({**base, "sigma0": sigma0, **extra})

    return make
