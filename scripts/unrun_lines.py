#!/usr/bin/env python3
"""Print every executable line under src/ that the Tier-1 tests never run.

The tests run in a child interpreter whose PYTHONPATH starts with a
temporary directory holding a ``sitecustomize`` module. Every interpreter
that starts with that path, the CLI subprocesses the tests start included,
imports it at start-up: it traces the lines of the files under src/ and
writes the ones it saw when the interpreter exits. Forked pool workers
leave through ``os._exit``, which skips that write, so lines that only a
worker runs are reported as never run.

Hypothesis draws from seed 0, so the listing is the same on every run;
extra arguments come after it, so ``--hypothesis-seed=N`` overrides it.

Usage: python scripts/unrun_lines.py [extra pytest arguments]
Uses the standard library only; the exit status is that of the test run.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

TRACER = """\
import atexit, os, sys, threading

_PREFIX = {src!r} + os.sep
_seen = set()


def _local(frame, event, arg):
    if event == "line":
        _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if not frame.f_code.co_filename.startswith(_PREFIX):
        return None
    _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _write():
    with open(os.path.join({out!r}, f"{{os.getpid()}}.txt"), "w") as fh:
        fh.writelines(f"{{name}}\\t{{line}}\\n" for name, line in _seen)


sys.settrace(_global)
threading.settrace(_global)
atexit.register(_write)
"""


def executable_lines(path: Path) -> set[int]:
    """The line numbers that start an instruction in the module or in any code object inside it."""
    lines: set[int] = set()
    codes = [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tracer_dir, tempfile.TemporaryDirectory() as out:
        Path(tracer_dir, "sitecustomize.py").write_text(TRACER.format(src=str(SRC), out=out))
        path = os.pathsep.join(filter(None, (tracer_dir, str(SRC), os.environ.get("PYTHONPATH"))))
        command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--hypothesis-seed=0",
                   *sys.argv[1:]]
        status = subprocess.run(command, cwd=ROOT, env=dict(os.environ, PYTHONPATH=path)).returncode
        ran: set[tuple[Path, int]] = set()
        for record in Path(out).glob("*.txt"):
            for entry in record.read_text().splitlines():
                name, line = entry.split("\t")
                ran.add((Path(name).resolve(), int(line)))
    unrun = [(path, line) for path in sorted(SRC.rglob("*.py"))
             for line in sorted(executable_lines(path)) if (path.resolve(), line) not in ran]
    for path, line in unrun:
        text = path.read_text().splitlines()[line - 1].strip()
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(unrun)} executable lines under src/ never ran")
    return status


if __name__ == "__main__":
    sys.exit(main())
