"""The names other code reads from ddce: the package root's six calls of a
run, the README's "Library use" block, and every `module.attr` the
benchmark under sweepbench/ times or calls (a missing one would only show
as a rise in its trace.missing_functions)."""

import os
import re

import ddce
from helpers import ROOT, run_python

ROOT_API = ["default_config", "load_config", "run_trial", "snr_sweep", "with_overrides", "write_csv"]

# What sweepbench/ reads, in a fresh interpreter that imports ddce the way
# its common.import_ddce does: replay.py's NEEDS and WRAPPED on the
# submodules, setup_child.py's two root calls and common.py's CLI entry.
BENCHMARK_NAMES = """
import json, sys
sys.path.insert(0, "sweepbench")
import ddce
import ddce.cli
import replay

dotted = {f for group in replay.NEEDS.values() for f in group}
dotted |= {f"{module}.{attr}" for module, attr, _ in replay.WRAPPED}
dotted |= {"load_config", "snr_sweep", "cli.main"}


def resolves(name):
    obj = ddce
    for part in name.split("."):
        obj = getattr(obj, part, None)
    return callable(obj)


print(json.dumps({"checked": len(dotted), "missing": sorted(n for n in dotted if not resolves(n))}))
"""


def test_the_root_exports_the_calls_of_a_run():
    assert sorted(ddce.__all__) == ROOT_API
    assert all(callable(getattr(ddce, name)) for name in ddce.__all__)


def test_every_name_the_benchmark_reads_resolves():
    got = run_python(BENCHMARK_NAMES)
    assert got["missing"] == [] and got["checked"] > 20


def test_the_readme_library_block_runs(tmp_path, monkeypatch):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("\n## Library use\n", 1)[1]
    [block] = re.findall(r"^```python\n(.*?)^```$", section.split("\n## ", 1)[0], re.S | re.M)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    with open(tmp_path / "sweep.csv", encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 1 + 3 * 2  # a header, 3 SNRs x 2 estimators
