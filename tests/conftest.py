"""Fixtures shared by the test modules."""

import pytest


def _same_json(blob, expected, name=""):
    # fails with the first differing offset: pytest's own diff of two long
    # texts takes minutes
    if blob != expected:
        at = next((i for i, (x, y) in enumerate(zip(blob, expected)) if x != y),
                  min(len(blob), len(expected)))
        pytest.fail(f"{name}: JSON differs at offset {at}:"
                    f" {blob[at - 40 : at + 40]!r} != {expected[at - 40 : at + 40]!r}")


@pytest.fixture
def same_json():
    """same_json(blob, expected, name=""): fail unless the two texts are
    equal byte for byte, reporting the first offset where they differ."""
    return _same_json
