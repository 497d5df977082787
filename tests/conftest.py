import pytest

import oracles


@pytest.fixture(autouse=True)
def _fixed_normals_consumed(monkeypatch):
    """A draw made from ``oracles._FixedNormals`` uses every normal given."""
    made = []
    monkeypatch.setattr(oracles._FixedNormals, "made", made)
    yield
    left = [normals.left.size for normals in made]
    assert not any(left), f"normals left unused by a fixed-normals draw: {left}"
