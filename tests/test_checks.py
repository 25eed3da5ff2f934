"""The check battery of solsurf.checks: the library call gives the
command line's checks, and README's table of the checks is CHECKS."""

import contextlib
import io
import json
import os

import pytest

from solsurf import (DomainRect, WeierstrassData, battery, main, parse,
                     sample_surface)
from solsurf.checks import CHECKS

README = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

# (target, lambda, perturb): each target, and verify's injected defect
CASES = [("h3", 0.8, False), ("e3-limit", 0.001, False),
         ("e3-direct", 1.0, False), ("h3", 1.0, True)]


@pytest.mark.parametrize("target,lam,perturb", CASES,
                         ids=["%s%s" % (t, " --perturb" if p else "")
                              for t, _, p in CASES])
def test_library_battery_is_the_report(tmp_path, target, lam, perturb):
    report = tmp_path / "report.json"
    argv = ["verify" if perturb else "generate", "--eta", "1+0.2*z",
            "--psi", "z^2", "--lambda", repr(lam), "--target", target,
            "--domain", "-0.5:0.5:-0.5:0.5", "--res", "33",
            "--report", str(report)] + (["--perturb"] if perturb else [])
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    with open(report) as fh:
        reported = json.load(fh)["checks"]

    data = WeierstrassData(eta=parse("1+0.2*z"), psi=parse("z^2"), z0=0j,
                           lam=lam)
    patch = sample_surface(data, DomainRect(-0.5, 0.5, -0.5, 0.5, 33, 33),
                           target, tol=1e-8)
    checks = battery(patch, perturb=perturb)
    assert json.dumps(checks, sort_keys=True) == \
        json.dumps(reported, sort_keys=True)
    assert code == (2 if perturb else 0)
    # the checks that carry worst are the ones the table says do
    for name, check in checks.items():
        assert ("worst" in check) == CHECKS[name][2], name


def readme_table():
    """{name: (threshold text, need text, worst text)} from README's table
    of the checks."""
    with open(README) as fh:
        section = fh.read().split("\n## Checks", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
        if line.startswith("| `"):
            rows[cells[0]] = tuple(cells[1:])
    return rows


def test_readme_table_is_the_code_table():
    rows = readme_table()
    assert sorted(rows) == sorted(CHECKS)
    for name, (threshold, need, worst) in CHECKS.items():
        text, need_text, worst_text = rows[name]
        # a formula is compared at a few values of tol and lambda
        for tol, lam in ((1e-8, 1.0), (1e-3, -0.25), (1e-12, 1e-4)):
            want = threshold(tol, lam) if callable(threshold) else threshold
            got = eval(text.replace("lambda", "lam"),
                       {"max": max, "abs": abs, "tol": tol, "lam": lam})
            assert got == want, name
        assert need_text == str(need), name
        assert worst_text == ("yes" if worst else "no"), name
