"""Start-up: importing the command-line front end, and running a verb,
loads only the code that verb executes.

Each check runs in a fresh interpreter started with -S, so that no
site-packages start-up file has imported anything before hhwb does.
"""

import json
import subprocess
import sys
from pathlib import Path

from test_hochschild import periodic_resolution_dims

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
DUAL = str(ROOT / "fixtures" / "dual_numbers.json")

# No verb executes these, except hhwb.decomposition, which only decompose
# and series do, and hhwb.functors, which only validate does, on a file
# with functors.  hhwb.chainmaps loads when a chain map is first named,
# hhwb.bases when an exact basis is first needed.  hashlib would load
# OpenSSL for the input's SHA-256.
NOT_AT_IMPORT = ["dataclasses", "inspect", "tempfile", "hhwb.decomposition",
                 "hhwb.kunneth", "hhwb.contraction", "hhwb.chainmaps",
                 "hhwb.functors", "hhwb.bases", "hashlib", "_hashlib"]
# Rational arithmetic and what it brings along: an integral input keeps
# its coefficients in ints, so only a coefficient that is not one loads it.
NUMBERS = ["fractions", "decimal", "_decimal", "numbers"]

SCRIPT = """
import json, sys
src, out, dual, *watched = sys.argv[1:]
sys.path.insert(0, src)
import hhwb.cli as cli
report = {"at_import": [m for m in watched if m in sys.modules]}
# argparse imports its help-formatting modules when it first builds a
# parser, and main builds one on every call
cli.build_parser()
before = set(sys.modules)
common = ["--max-level", "2", "--degrees=-1..0"]
report["compute"] = cli.main(["compute", dual, "--twist", "perm:2:(1 2)",
                              *common, "--out", out + "/compute.json"])
report["decompose"] = cli.main(["decompose", dual, "--n", "2", *common,
                                "--out", out + "/decompose.json"])
report["added"] = sorted(set(sys.modules) - before)
report["cached"] = cli.main(["compute", dual, *common, "--out",
                             out + "/cached.json", "--cache-dir",
                             out + "/cache"])
report["fractions_before_halves"] = "fractions" in sys.modules
report["halves"] = cli.main(["compute", out + "/halves.json", "--max-level",
                             "4", "--degrees=-3..0", "--out",
                             out + "/halves_report.json"])
report["fractions_after_halves"] = "fractions" in sys.modules
before = set(sys.modules)
report["validate"] = cli.main(["validate", out + "/functors.json"])
report["validated"] = sorted(set(sys.modules) - before)
report["bases"] = "hhwb.bases" in sys.modules
print(json.dumps(report))
"""


def test_each_verb_loads_only_what_it_executes(tmp_path):
    # the dual numbers with their functor x -> -x
    data = json.loads(Path(DUAL).read_text())
    data["functors"] = [{"name": "minus", "obj_map": {"*": "*"},
                         "hom_map": {"1": [{"basis": "1", "num": 1}],
                                     "x": [{"basis": "x", "num": -1}]}}]
    (tmp_path / "functors.json").write_text(json.dumps(data))
    # k[x]/x^3 on the basis 1, x, y = 2x^2: one coefficient is 1/2
    (tmp_path / "halves.json").write_text(json.dumps({
        "name": "halves", "objects": ["*"],
        "homs": [{"name": b, "src": "*", "tgt": "*"} for b in "1xy"],
        "units": {"*": "1"},
        "compose": [{"g": "x", "f": "x",
                     "result": [{"basis": "y", "num": 1, "den": 2}]}]}))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT, SRC, str(tmp_path), DUAL,
         *NOT_AT_IMPORT, *NUMBERS],
        capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["at_import"] == []
    assert (report["compute"], report["decompose"]) == (0, 0)
    # decompose's chain permutations hold their rows in an array, which
    # imports collections.abc; neither verb reads a functor's algebra or an
    # exact basis, and on an integral input neither loads rational
    # arithmetic
    assert report["added"] == ["array", "collections.abc",
                               "hhwb.decomposition"]
    assert not {"hhwb.functors", "hhwb.bases"} & set(report["added"])
    assert not {"hashlib", "_hashlib"} & set(report["added"])
    assert not set(NUMBERS) & set(report["added"])
    # the cache still writes its entry, importing tempfile when it does
    assert report["cached"] == 0
    entries = list((tmp_path / "cache").iterdir())
    assert len(entries) == 1 and entries[0].suffix == ".json"
    # a coefficient 1/2 loads fractions, and the answer is still that of
    # k[x]/x^3
    assert report["fractions_before_halves"] is False
    assert report["halves"] == 0
    assert report["fractions_after_halves"] is True
    halves = json.loads((tmp_path / "halves_report.json").read_text())
    assert [halves["results"][str(-n)]["dim"] for n in range(4)] == \
        periodic_resolution_dims(3, 3)
    # validate checks the file's functors with hhwb.functors, and no verb
    # here has needed an exact basis
    assert report["validate"] == 0
    assert "hhwb.functors" in report["validated"]
    assert report["bases"] is False


def test_kunneth_does_not_load_decomposition():
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import hhwb.kunneth; "
         "print('hhwb.decomposition' in sys.modules)", SRC],
        capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False"]
