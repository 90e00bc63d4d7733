"""Each command imports only what it runs.  These tests start fresh
interpreters, since this test process has long since imported everything."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(script: str, *args: str) -> str:
    """Run `script` in a fresh interpreter with egoview importable and
    return what it prints; it signals a broken contract by failing an assert."""
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_imports_no_command_module():
    _run(
        "import sys\n"
        "import egoview.cli\n"
        "loaded = {'egoview.evaluate', 'egoview.services', 'egoview.synthesis'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
    )


def test_eval_runs_without_numpy(tmp_path, data_dir):
    _run(
        "import sys\n"
        "import egoview.cli\n"
        "code = egoview.cli.main(sys.argv[1:])\n"
        "assert code == 0, code\n"
        "unwanted = {'numpy', 'orjson', 'egoview.corpus', 'egoview.geometry',\n"
        "            'egoview.scene', 'egoview.solvability'}\n"
        "loaded = unwanted & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n",
        "eval",
        "--gold", str(data_dir / "eval_gold.jsonl"),
        "--pred", str(data_dir / "eval_pred.jsonl"),
        "--out", str(tmp_path / "eval.report.json"),
    )
    assert (tmp_path / "eval.report.json").is_file()


_PRINT_LOADED = (
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'egoview'))\n"
)


def test_solvability_imports_what_the_benchmark_probe_imports(tmp_path, data_dir):
    """The probe behind `setup_s` imports egoview.cli and egoview.corpus;
    the solvability command loads those modules and egoview.solvability,
    nothing else."""
    probe = _run("import sys\nimport egoview.cli\nimport egoview.corpus\n" + _PRINT_LOADED)
    command = _run(
        "import sys\n"
        "import egoview.cli\n"
        "code = egoview.cli.main(sys.argv[1:])\n"
        "assert code == 0, code\n" + _PRINT_LOADED,
        "solvability",
        "--scenes", str(data_dir / "scenes"),
        "--instructions", str(data_dir / "instructions_solvability.jsonl"),
        "--out", str(tmp_path / "report.json"),
    )
    probe_modules = set(ast.literal_eval(probe))
    command_modules = set(ast.literal_eval(command.splitlines()[-1]))
    assert {"egoview.corpus", "egoview.scene"} <= probe_modules
    assert "egoview.solvability" not in probe_modules
    assert command_modules == probe_modules | {"egoview.solvability"}


def test_synthesize_loads_no_corpus(tmp_path, data_dir):
    """`records` writes composed questions, so synthesize never loads the
    triplet module."""
    _run(
        "import sys\n"
        "import egoview.cli\n"
        "code = egoview.cli.main(sys.argv[1:])\n"
        "assert code == 0, code\n"
        "assert 'egoview.corpus' not in sys.modules\n",
        "synthesize",
        "--scenes", str(data_dir / "scenes"),
        "--questions", str(data_dir / "questions.jsonl"),
        "--out", str(tmp_path / "composed.jsonl"),
        "--stub",
    )
    assert (tmp_path / "composed.jsonl").is_file()


def test_package_import_loads_no_numpy():
    _run(
        "import sys\n"
        "import egoview\n"
        "assert 'numpy' not in sys.modules\n"
    )


@pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"]], ids=" ".join)
def test_help_loads_no_numpy(argv):
    """Building the parser imports no command's modules, so help prints
    without numpy."""
    out = _run(
        "import sys\n"
        "import egoview.cli\n"
        "try:\n"
        "    egoview.cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "else:\n"
        "    raise AssertionError('help did not exit')\n"
        "assert 'numpy' not in sys.modules\n",
        *argv,
    )
    assert out.startswith("usage: egoview ")
