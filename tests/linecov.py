"""Line coverage of src/ as a pytest plugin on the standard library's
sys.settrace, so it needs no coverage package:

    PYTHONPATH=src:tests python -m pytest -p linecov -q

At the end of the run it prints how many of the lines in src/ that carry
bytecode the run executed, then lists the others by file.  A line carries
bytecode when some code object compiled from the file maps an instruction
to it, so blank lines, comments, a function's docstring and a bare else:
do not count.  Tracing about doubles the suite's run time.
"""

import sys
import threading
import types
from itertools import groupby
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_PREFIX = str(SRC) + "/"

_hits: dict[str, set[int]] = {}   # file name -> the line numbers that ran
_seen: dict[types.CodeType, bool] = {}  # code object -> whether it is in src/


def _line(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    inside = _seen.get(code)
    if inside is None:
        inside = _seen[code] = code.co_filename.startswith(_PREFIX)
    if not inside:
        return None
    _hits.setdefault(code.co_filename, set()).add(frame.f_lineno)
    return _line


def _code_lines(code: types.CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _ranges(lines) -> str:
    """'3-5, 9' for [3, 4, 5, 9]."""
    runs = [[n for _, n in run] for _, run in
            groupby(enumerate(sorted(lines)), lambda kn: kn[1] - kn[0])]
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)


def pytest_configure(config):
    threading.settrace(_call)
    sys.settrace(_call)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    ran = total = 0
    missed = []
    for path in sorted(SRC.rglob("*.py")):
        lines = _code_lines(compile(path.read_text(), str(path), "exec"))
        hit = _hits.get(str(path), set()) & lines
        ran, total = ran + len(hit), total + len(lines)
        if lines - hit:
            missed.append(f"  {path.relative_to(SRC)}: {_ranges(lines - hit)}")
    terminalreporter.write_line(
        f"linecov: {ran} of {total} lines with bytecode in src/ ran")
    for line in missed:
        terminalreporter.write_line(line)
