"""Run every ``gaplab`` command the README documents, in-process, once.

Commands are read from the README's ``sh`` code blocks, so the pass
follows the documentation as it stands.  Instance files the commands
name are written to a temporary directory first.  A command passes when
``gaplab.cli.main`` returns exit code 0; the README's own examples are
not retargeted to make them pass.  A command that raises counts as
failing, with the traceback in its ``stderr``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import tempfile
import time
import traceback

from gaplab import cli

# Contents for the instance files the README's commands refer to, each
# in one of the instance shapes the README documents.
INSTANCE_FILES = {
    "matrix.json": {"kind": "rtm", "machine": "unary_counter", "input": "11", "space": 4},
    "gram.json": {"dim": 2, "rows": [[2, 1], [1, 1]]},
    "instance.json": {"dim": 2, "rows": [[2, 1], [1, 1]]},
}

_SH_BLOCK = re.compile(r"```sh\n(.*?)```", re.DOTALL)


def readme_commands(readme_path: str) -> list[list[str]]:
    """argv lists (without the program name) of the README's gaplab commands."""
    with open(readme_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    commands = []
    for block in _SH_BLOCK.findall(text):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["gaplab"]:
                commands.append(words[1:])
    return commands


def run_documented_commands(readme_path: str, tmp_parent: str) -> list[dict]:
    """Run each command once; report its name, exit code, pass flag and seconds."""
    results = []
    with tempfile.TemporaryDirectory(dir=tmp_parent) as tmp:
        for fname, spec in INSTANCE_FILES.items():
            with open(os.path.join(tmp, fname), "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
        for argv in readme_commands(readme_path):
            args = [os.path.join(tmp, a) if a in INSTANCE_FILES else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(args)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # a crash fails this command, not the pass
                    traceback.print_exc()
                    code = "exception"
            seconds = time.perf_counter() - start
            results.append({
                "command": "gaplab " + " ".join(argv),
                "exit": code,
                "passed": code == 0,
                "seconds": seconds,
                "stderr": err.getvalue().strip(),
            })
    return results
