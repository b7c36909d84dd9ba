"""Every command of the golden manifest (``tests/golden.py``) gives the
recorded exit code and bytes."""

from golden import MANIFEST, first_difference, manifest_lines


def test_every_command_matches_the_golden_manifest():
    diff = first_difference(manifest_lines(), MANIFEST.read_text(encoding="utf-8").splitlines())
    assert diff is None, diff
