"""Golden reports: `compute` and `decompose` reports, timings removed, must
stay byte-identical to the frozen files in tests/golden/.

A change that is meant to leave every reported number alone is checked by
this test.  A change that does mean to alter a report regenerates the files
with ``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

import json
import sys
from pathlib import Path

import pytest

from hhwb.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DUAL = str(ROOT / "fixtures" / "dual_numbers.json")
QUIVER = str(ROOT / "fixtures" / "quiver_a2.json")
# k[z]/z^2 with |z| = -1: its levels span several degrees, so this case pins
# the multi-degree block paths that D and the quiver (all degree 0) skip
ODD = str(ROOT / "fixtures" / "odd_negative_dual.json")

# a report holds the input's hash, not its path
CASES = {
    "compute_dual_squared_swap": [
        "compute", DUAL, "--twist", "perm:2:(1 2)", "--max-level", "6",
        "--degrees=-5..0"],
    "decompose_dual_n3_modular": [
        "decompose", DUAL, "--n", "3", "--max-level", "3", "--degrees=-2..0"],
    "decompose_dual_n3_exact": [
        "decompose", DUAL, "--n", "3", "--max-level", "3", "--degrees=-2..0",
        "--mode", "exact"],
    "decompose_quiver_n3": ["decompose", QUIVER, "--n", "3"],
    "decompose_dual_n2_positive": [
        "decompose", DUAL, "--n", "2", "--max-level", "3", "--degrees=-1..1"],
    "decompose_odd_negative_n3": [
        "decompose", ODD, "--n", "3", "--max-level", "3", "--degrees=-2..0"],
}


def report_text(argv, out: Path) -> str:
    """The report of one run, without its timings, as sorted indented JSON."""
    code = main(argv + ["--out", str(out)])
    assert code == 0, f"exit {code}"
    rep = json.loads(out.read_bytes())
    del rep["timings"]
    return json.dumps(rep, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    want = (GOLDEN / f"{name}.json").read_text()
    assert report_text(CASES[name], tmp_path / "report.json") == want


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            text = report_text(argv, Path(tmp) / "report.json")
            (GOLDEN / f"{name}.json").write_text(text)
            print(f"wrote {name}", file=sys.stderr)
