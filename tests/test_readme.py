"""Every gaplab command in the README's sh blocks runs and exits 0, and every name it cites exists."""

import importlib.util
import re
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


def test_readme_names_what_exists():
    # Every module attribute and benchmark file the prose cites is still there.
    text = (ROOT / "README.md").read_text()
    cited = re.findall(r"`(rtm|spectral|sparse_oracle|simulator|protocols)\.([A-Za-z_][\w.]*)`", text)
    assert cited, "the README cites no module attribute"
    for module, path in cited:
        found = importlib.import_module(f"gaplab.{module}")
        for name in path.split("."):
            assert hasattr(found, name), f"{module}.{path}"
            found = getattr(found, name)
    for bench in set(re.findall(r"BENCH_\w+\.json", text)):
        assert (ROOT / bench).is_file(), bench
