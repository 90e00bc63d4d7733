"""`scripts/make_test_fixtures.py` regenerates `tests/data` byte for byte.

The script is run from a copy of the repository layout whose `src` links
to this checkout's sources, so it writes into a temp tree, never into
`tests/data`.  Its own assertions (the designed witness sets, minimum view
counts and dc picks) run against the current program on the way.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data"


def _files(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_script_rewrites_the_committed_fixtures(tmp_path):
    (tmp_path / "scripts").mkdir()
    shutil.copy(REPO / "scripts" / "make_test_fixtures.py", tmp_path / "scripts")
    (tmp_path / "src").symlink_to(REPO / "src", target_is_directory=True)
    result = subprocess.run(
        [sys.executable, "-B", str(tmp_path / "scripts" / "make_test_fixtures.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    written = _files(tmp_path / "tests" / "data")
    assert written.keys() == _files(DATA).keys()
    for name, content in _files(DATA).items():
        assert written[name] == content, name
