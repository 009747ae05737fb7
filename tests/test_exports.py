"""The package's public names."""
import cherednik


def test_every_exported_name_resolves():
    missing = [name for name in cherednik.__all__ if not hasattr(cherednik, name)]
    assert not missing, f"names in cherednik.__all__ that do not resolve: {missing}"
    assert len(set(cherednik.__all__)) == len(cherednik.__all__)
