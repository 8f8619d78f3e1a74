"""Every gaplab command in the README's sh blocks runs and exits 0."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _docs_pass():
    spec = importlib.util.spec_from_file_location("docs_pass", ROOT / "benchmark" / "docs_pass.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_commands_exit_zero(tmp_path):
    results = _docs_pass().run_documented_commands(str(ROOT / "README.md"), str(tmp_path))
    assert results, "the README documents no gaplab command"
    failed = {r["command"]: (r["exit"], r["stderr"]) for r in results if r["exit"] != 0}
    assert not failed
