import pytest


@pytest.fixture(scope="session")
def built_models():
    """(name, model) of every model in ``builder_golden.json``, built once per
    session; the builders are deterministic."""
    from test_builder_golden import _built

    return list(_built())
