"""README's library quickstart and command lines, run as written."""

import contextlib
import io
import os
import re
import shlex

from solsurf import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def quickstart_block():
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quickstart_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quickstart_block(), README, "exec"), {})
    # the three printed figures, within the sizes the comments give
    hyperboloid, h_est, h_dev = (float(v) for v in out.getvalue().split())
    assert hyperboloid < 1e-9
    assert abs(h_est - 0.8) < 1e-3
    assert h_dev < 1e-5
    with open(tmp_path / "patch.obj") as fh:
        assert sum(line.startswith("v ") for line in fh) == 41 * 41


def command_lines():
    """Each `solsurf ...` line of the Command line section, with its
    backslash continuations joined."""
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = []
    for block in re.findall(r"```\n(.*?)```", section, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("solsurf "):
                lines.append(line)
    return lines


def test_command_lines_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = command_lines()
    assert len(lines) == 7
    for line in lines:
        # the documented exit code: 2 where the line says so, else 0
        want = 2 if "exits 2" in line else 0
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(shlex.split(line, comments=True)[1:])
        assert code == want, line
    for name in ("patch.obj", "report.json", "erf.ply"):
        assert (tmp_path / name).stat().st_size > 0, name


def layout_modules():
    """The module names that README's Layout block lists under
    src/solsurf/, in their order."""
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Layout", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    assert block.startswith("src/solsurf/\n")
    return re.findall(r"^  (\S+\.py) ", block, re.M)


def test_layout_lists_every_module():
    # a module enters and leaves the package with its line in the Layout
    # block; the package's __init__.py and __main__.py are not listed
    package = os.path.join(os.path.dirname(README), "src", "solsurf")
    modules = sorted(name for name in os.listdir(package)
                     if name.endswith(".py") and not name.startswith("__"))
    listed = layout_modules()
    assert len(listed) == len(set(listed)), listed
    assert sorted(listed) == modules
