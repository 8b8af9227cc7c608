import pytest


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(items):
    """Move the tests that read trained models to the end of the session,
    keeping their order, so every other test runs while the models train
    (see ``training_cells`` in test_acceptance.py)."""
    items.sort(key=lambda item: "training_cells" in item.fixturenames)
