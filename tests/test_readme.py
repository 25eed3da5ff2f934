"""README's library quickstart, run as written."""

import contextlib
import io
import os
import re

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
