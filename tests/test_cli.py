import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hhwb import cli, decomposition
from hhwb.cli import EXIT_INTERNAL, main
from hhwb.dgcore import identity_functor
from hhwb.hochschild import build_complex, total_homology
from hhwb.qlinalg import EXACT, StructuralError

from conftest import square_zero_with_diff

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GROUND = str(FIXTURES / "ground_field.json")
DUAL = str(FIXTURES / "dual_numbers.json")
QUIVER = str(FIXTURES / "quiver_a2.json")
BROKEN = str(FIXTURES / "broken_nonassociative.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- validate ---------------------------------------------------------------


def test_validate_good_fixtures(capsys):
    for path in (GROUND, DUAL, QUIVER):
        code, out, _ = run(capsys, "validate", path)
        assert code == 0
        assert "ok" in out


def test_validate_broken_fixture(capsys):
    code, out, _ = run(capsys, "validate", BROKEN)
    assert code == 1
    assert "associativity" in out


def test_validate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "line" in err


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/does/not/exist.json")
    assert code == 2


# -- compute ----------------------------------------------------------------


def test_compute_ground_field(capsys):
    rep = run_json(capsys, "compute", GROUND, "--mode", "exact",
                   "--max-level", "3", "--degrees=-2..0")
    dims = {int(k): v["dim"] for k, v in rep["results"].items()}
    assert dims == {0: 1, -1: 0, -2: 0}
    assert all(v["certificate"] == "exact" for v in rep["results"].values())


def test_compute_dual_numbers(capsys):
    rep = run_json(capsys, "compute", DUAL, "--mode", "exact",
                   "--max-level", "5", "--degrees=-4..0")
    dims = {int(k): v["dim"] for k, v in rep["results"].items()}
    assert dims == {0: 2, -1: 1, -2: 1, -3: 1, -4: 1}


def test_compute_quiver(capsys):
    rep = run_json(capsys, "compute", QUIVER, "--mode", "exact",
                   "--max-level", "4", "--degrees=-3..0")
    dims = {int(k): v["dim"] for k, v in rep["results"].items()}
    assert dims == {0: 2, -1: 0, -2: 0, -3: 0}


def test_compute_modular_reports_primes(capsys):
    rep = run_json(capsys, "compute", DUAL, "--max-level", "3",
                   "--degrees=-1..0")
    for v in rep["results"].values():
        assert v["mode"] == "modular"
        assert len(v["primes"]) == 2
        assert v["agreed"]


def test_compute_with_permutation_twist(capsys):
    rep = run_json(capsys, "compute", DUAL, "--mode", "exact",
                   "--max-level", "4", "--degrees=-3..0",
                   "--twist", "perm:2:(1 2)")
    dims = {int(k): v["dim"] for k, v in rep["results"].items()}
    assert dims == {0: 2, -1: 1, -2: 1, -3: 1}


def test_compute_bad_twist(capsys):
    code, _, err = run(capsys, "compute", DUAL, "--twist", "perm:2:(1 3)")
    assert code == 2


@pytest.mark.parametrize("twist,cycle", [
    ("perm:3:(1 -2)", "(1 -2)"),
    ("perm:3:(1 1)", "(1 1)"),
    ("perm:3:(123)", "(123)"),
    ("perm:3:(1 2)(2 3)", "(2 3)"),
    ("perm:3:(1 a)", "(1 a)"),
], ids=["negative", "repeated", "out-of-range", "repeated-across",
        "not-a-number"])
def test_bad_twist_cycle_exits_2_naming_the_cycle(capsys, twist, cycle):
    code, out, err = run(capsys, "compute", DUAL, "--twist", twist)
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and f"cycle {cycle}" in line


def test_compute_bad_degree_range(capsys):
    code, _, err = run(capsys, "compute", DUAL, "--degrees", "zero")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["compute", DUAL, "--twist", "perm:0:()"],
    ["compute", DUAL, "--max-level", "-1"],
    ["decompose", DUAL, "--n", "0"],
    ["decompose", DUAL, "--n", "-1"],
    ["series", "--dims", "0:1", "--n", "-1"],
    ["series", "--dims", "0:2,0:1", "--n", "2"],
], ids=["twist-no-factor", "max-level-negative", "decompose-n-zero",
        "decompose-n-negative", "series-n-negative", "series-dims-repeated"])
def test_bad_option_exits_2_without_a_traceback(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2, err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_compute_out_and_csv(tmp_path, capsys):
    out = tmp_path / "report.json"
    csv = tmp_path / "table.csv"
    code, _, err = run(capsys, "compute", GROUND, "--mode", "exact",
                       "--max-level", "2", "--degrees=-1..0",
                       "--out", str(out), "--csv", str(csv))
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["results"]["0"]["dim"] == 1
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "degree,dim,certificate"
    assert lines[1] == "0,1,exact"
    assert lines[2] == "-1,0,exact"


def test_compute_cache_is_byte_identical(tmp_path, capsys):
    cdir = tmp_path / "cache"
    args = ["compute", DUAL, "--mode", "exact", "--max-level", "3",
            "--degrees=-2..0", "--cache-dir", str(cdir)]
    code1, out1, _ = run(capsys, *args)
    cached_files = list(cdir.glob("*.json"))
    assert code1 == 0 and len(cached_files) == 1
    code2, out2, _ = run(capsys, *args)
    assert code2 == 0
    assert out1 == out2
    # different options miss the cache
    code3, _, _ = run(capsys, "compute", DUAL, "--mode", "exact",
                      "--max-level", "2", "--degrees=-1..0",
                      "--cache-dir", str(cdir))
    assert code3 == 0
    assert len(list(cdir.glob("*.json"))) == 2


def test_input_sha256_is_the_sha256_of_the_input_bytes(capsys):
    import hashlib

    rep = run_json(capsys, "compute", DUAL, "--max-level", "1",
                   "--degrees=0..0")
    with open(DUAL, "rb") as fh:
        assert rep["input_sha256"] == hashlib.sha256(fh.read()).hexdigest()


def test_cache_key_includes_version(tmp_path, capsys, monkeypatch):
    cdir = tmp_path / "cache"
    args = ["compute", GROUND, "--mode", "exact", "--max-level", "2",
            "--degrees=0..0", "--cache-dir", str(cdir)]
    assert run(capsys, *args)[0] == 0
    monkeypatch.setattr(cli, "__version__", cli.__version__ + ".post1")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert json.loads(out)["version"] == cli.__version__
    assert len(list(cdir.glob("*.json"))) == 2


def test_an_entry_cached_by_other_source_is_a_miss(tmp_path, capsys,
                                                   monkeypatch):
    cdir = tmp_path / "cache"
    args = ["compute", GROUND, "--mode", "exact", "--max-level", "2",
            "--degrees=0..0", "--cache-dir", str(cdir)]
    source_digest = cli.source_digest
    monkeypatch.setattr(cli, "source_digest", lambda: "0" * 64)
    assert run(capsys, *args)[0] == 0
    (entry,) = cdir.glob("*.json")
    stale = json.loads(entry.read_bytes())
    stale["results"]["0"]["dim"] = 99
    entry.write_bytes(cli.report_bytes(stale))
    assert json.loads(run(capsys, *args)[1])["results"]["0"]["dim"] == 99
    monkeypatch.setattr(cli, "source_digest", source_digest)
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert json.loads(out)["results"]["0"]["dim"] == 1
    assert len(list(cdir.glob("*.json"))) == 2


@pytest.mark.parametrize("argv", [
    ["compute", DUAL, "--mode", "exact", "--max-level", "3",
     "--degrees=-2..0"],
    ["decompose", DUAL, "--n", "2", "--max-level", "3", "--degrees=-1..0"],
], ids=["compute", "decompose"])
def test_truncated_cache_entry_is_a_miss(tmp_path, capsys, argv):
    cdir = tmp_path / "cache"
    args = argv + ["--cache-dir", str(cdir)]
    code1, out1, _ = run(capsys, *args)
    (entry,) = cdir.glob("*.json")
    entry.write_bytes(entry.read_bytes()[:40])
    code2, out2, err2 = run(capsys, *args)
    assert code1 == code2 == 0, err2
    first, second = json.loads(out1), json.loads(out2)
    for rep in (first, second):
        rep["timings"].pop("wall_seconds")
    assert first == second
    assert json.loads(entry.read_bytes()) == json.loads(out2)


def test_cache_dir_from_env(tmp_path, capsys, monkeypatch):
    cdir = tmp_path / "envcache"
    monkeypatch.setenv("HHWB_CACHE_DIR", str(cdir))
    code, _, _ = run(capsys, "compute", GROUND, "--mode", "exact",
                     "--max-level", "2", "--degrees=0..0")
    assert code == 0
    assert len(list(cdir.glob("*.json"))) == 1


def test_compute_loads_neither_decomposition_nor_kunneth(tmp_path):
    script = (
        "import json, sys\n"
        "from hhwb.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "                               if m.startswith('hhwb'))]))\n")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script, "compute", DUAL, "--twist",
         "perm:2:(1 2)", "--max-level", "2", "--degrees=-1..0",
         "--out", str(tmp_path / "report.json"),
         "--cache-dir", str(tmp_path / "cache")],
        env=env, capture_output=True, text=True, check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert "hhwb.hochschild" in modules
    assert "hhwb.decomposition" not in modules
    assert "hhwb.kunneth" not in modules


def test_compute_reads_json_diff_entries(tmp_path, capsys):
    # T = conftest.square_zero_with_diff, d(u) = v, written as JSON
    data = {
        "name": "T",
        "objects": ["*"],
        "homs": [{"name": "1", "src": "*", "tgt": "*", "degree": 0},
                 {"name": "u", "src": "*", "tgt": "*", "degree": 0},
                 {"name": "v", "src": "*", "tgt": "*", "degree": 1}],
        "units": {"*": "1"},
        "compose": [{"g": g, "f": f, "result": []}
                    for g in ("u", "v") for f in ("u", "v")],
        "diff": [{"basis": "u", "result": [{"basis": "v", "num": 1}]}],
    }
    argv = ["--mode", "exact", "--max-level", "4", "--degrees=-3..1"]
    dims = {}
    for name, diff in (("T", data["diff"]), ("T0", [])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(data, diff=diff)))
        rep = run_json(capsys, "compute", str(path), *argv)
        dims[name] = {int(k): v["dim"] for k, v in rep["results"].items()}
    c = square_zero_with_diff()
    sc = build_complex(c, identity_functor(c), 4)
    assert dims["T"] == total_homology(sc, range(-3, 2), EXACT).dims()
    assert dims["T"] != dims["T0"]  # so the diff entry was read


@pytest.mark.parametrize("verb,argv", [
    ("compute", []),
    ("decompose", ["--n", "2"]),
])
def test_invalid_category_exits_1_with_no_report(tmp_path, capsys, verb,
                                                 argv):
    cdir, out = tmp_path / "cache", tmp_path / "report.json"
    code, stdout, err = run(capsys, verb, BROKEN, *argv, "--max-level", "2",
                            "--degrees=-1..0", "--cache-dir", str(cdir),
                            "--out", str(out))
    assert code == cli.EXIT_MISMATCH == 1
    assert "associativity fails" in err
    assert "Traceback" not in err
    assert stdout == ""
    assert not out.exists()
    assert not list(cdir.glob("*.json"))


# -- decompose --------------------------------------------------------------


def test_decompose_ground_field(capsys):
    rep = run_json(capsys, "decompose", GROUND, "--n", "5", "--mode", "exact",
                   "--max-level", "2", "--degrees=0..0")
    assert rep["results"]["lhs_totals"] == {"0": 7}
    assert rep["results"]["verdicts"] == {"0": "Equal"}


def test_decompose_dual_numbers(capsys):
    rep = run_json(capsys, "decompose", DUAL, "--n", "2", "--mode", "exact",
                   "--max-level", "4", "--degrees=-3..0")
    assert rep["results"]["lhs_totals"] == \
        {"0": 5, "-1": 3, "-2": 3, "-3": 4}
    assert all(v == "Equal" for v in rep["results"]["verdicts"].values())


def test_decompose_heuristic_exit_code(capsys):
    # degree -2 is beyond the max-level-2 certificate window
    code, out, _ = run(capsys, "decompose", DUAL, "--n", "2",
                       "--mode", "exact", "--max-level", "2",
                       "--degrees=-2..0")
    assert code == 3
    rep = json.loads(out)
    assert rep["results"]["verdicts"]["-2"] == "Heuristic"
    assert rep["results"]["verdicts"]["0"] == "Equal"


def test_decompose_cache_hit_is_byte_identical(tmp_path, capsys,
                                               monkeypatch):
    cdir = tmp_path / "cache"

    def decompose(csv):
        code, out, err = run(capsys, "decompose", DUAL, "--n", "2",
                             "--max-level", "3", "--degrees=-2..0",
                             "--cache-dir", str(cdir), "--csv", str(csv))
        return code, out, csv.read_text()

    first = decompose(tmp_path / "first.csv")

    def crash(*args, **kwargs):
        raise AssertionError("a cache hit runs no decomposition")

    monkeypatch.setattr(decomposition, "verify_decomposition", crash)
    second = decompose(tmp_path / "second.csv")
    assert first == second  # exit code, payload (timings and all), CSV
    assert first[0] == 0
    assert first[2].splitlines()[1] == "0,5,5,Equal"
    assert len(list(cdir.glob("*.json"))) == 1


def test_mismatch_verdict_exits_1(tmp_path, capsys, monkeypatch):
    rhs_dims = decomposition.rhs_dims

    def one_too_many(h, n, **kwargs):
        out = rhs_dims(h, n, **kwargs)
        out[0] += 1
        return out

    monkeypatch.setattr(decomposition, "rhs_dims", one_too_many)
    csv = tmp_path / "table.csv"
    code, out, err = run(capsys, "decompose", DUAL, "--n", "2",
                         "--max-level", "3", "--degrees=-2..0",
                         "--csv", str(csv))
    assert code == cli.EXIT_MISMATCH == 1, err
    res = json.loads(out)["results"]
    assert res["verdicts"] == {"0": "Mismatch", "-1": "Equal", "-2": "Equal"}
    assert res["lhs_totals"]["0"] == 5 and res["rhs_totals"]["0"] == 6
    assert csv.read_text().splitlines() == [
        "degree,lhs,rhs,verdict", "0,5,6,Mismatch", "-1,3,3,Equal",
        "-2,3,3,Equal"]


@pytest.mark.parametrize("verb,argv,code", [
    ("compute", [], 0),
    ("decompose", ["--n", "2"], 3),
])
def test_max_level_zero_defaults_to_degree_zero(capsys, verb, argv, code):
    # without --degrees, max level 0 reads degree 0 alone, as --degrees=0..0
    # does; there it is uncertified, so decompose exits 3
    got, out, err = run(capsys, verb, DUAL, "--max-level", "0", *argv)
    assert got == code, err
    rep = json.loads(out)
    assert rep["options"]["degrees"] == [0]
    res = rep["results"]
    assert list(res["verdicts"] if verb == "decompose" else res) == ["0"]


@pytest.mark.parametrize("mode", ["exact", "modular"])
@pytest.mark.parametrize("n,total", [(2, 5), (3, 10)])
def test_decompose_multi_object_quiver(capsys, mode, n, total):
    rep = run_json(capsys, "decompose", QUIVER, "--n", str(n),
                   "--mode", mode)
    res = rep["results"]
    assert res["lhs_totals"]["0"] == res["rhs_totals"]["0"] == total
    assert res["lhs_totals"] == res["rhs_totals"]
    assert set(res["verdicts"].values()) == {"Equal"}
    assert all(res["agreed"].values())


@pytest.mark.parametrize("exc", [StructuralError("broken"),
                                 RuntimeError("bug")],
                         ids=["structural", "other"])
def test_internal_error_is_not_a_mismatch(capsys, monkeypatch, exc):
    def crash(*args, **kwargs):
        raise exc

    monkeypatch.setattr(decomposition, "verify_decomposition", crash)
    code, out, err = run(capsys, "decompose", GROUND, "--n", "2",
                         "--max-level", "2", "--degrees=0..0")
    assert code == EXIT_INTERNAL == 4
    assert out == ""
    assert str(exc) in err


@pytest.fixture
def odd_dual_path(tmp_path):
    # E = k[y]/y^2 with |y| = 1 (conftest.odd_dual): its homology lives in
    # degrees 0 and 1, and no degree bound certifies any degree
    path = tmp_path / "E.json"
    path.write_text(json.dumps({
        "name": "E",
        "objects": ["*"],
        "homs": [{"name": "1", "src": "*", "tgt": "*", "degree": 0},
                 {"name": "y", "src": "*", "tgt": "*", "degree": 1}],
        "units": {"*": "1"},
        "compose": [{"g": "y", "f": "y", "result": []}],
        "diff": [],
    }))
    return str(path)


def test_decompose_positive_degrees_of_an_odd_generator(odd_dual_path,
                                                        capsys):
    code, out, err = run(capsys, "decompose", odd_dual_path, "--n", "2",
                         "--max-level", "4", "--degrees=-1..1")
    assert code == cli.EXIT_INCONCLUSIVE == 3, err
    verdicts = json.loads(out)["results"]["verdicts"]
    assert verdicts == {"1": "Heuristic", "0": "Heuristic", "-1": "Heuristic"}


def test_uncomputed_total_is_null_not_zero(odd_dual_path, tmp_path, capsys):
    # no λ certifies any degree of E, so no invariants are computed: the
    # left totals are null in the report and empty in the CSV, not 0
    # against a nonzero right side
    csv = tmp_path / "table.csv"
    code, out, err = run(capsys, "decompose", odd_dual_path, "--n", "2",
                         "--max-level", "4", "--degrees=-2..1",
                         "--csv", str(csv))
    assert code == cli.EXIT_INCONCLUSIVE == 3, err
    res = json.loads(out)["results"]
    assert res["lhs_totals"] == {"1": None, "0": None, "-1": None, "-2": None}
    assert res["rhs_totals"]["0"] == 20 and res["rhs_totals"]["1"] == 30
    assert set(res["verdicts"].values()) == {"Heuristic"}
    lines = csv.read_text().splitlines()
    assert lines[0] == "degree,lhs,rhs,verdict"
    assert lines[1:3] == ["1,,30,Heuristic", "0,,20,Heuristic"]


def test_decompose_positive_degree_of_dual_numbers(capsys):
    res = run_json(capsys, "decompose", DUAL, "--n", "2",
                   "--degrees=-1..1")["results"]
    assert res["lhs_totals"] == {"1": 0, "0": 5, "-1": 3}
    assert res["rhs_totals"] == res["lhs_totals"]
    assert res["verdicts"] == {"1": "Equal", "0": "Equal", "-1": "Equal"}


@pytest.mark.parametrize("fail", [None, KeyboardInterrupt],
                         ids=["returns", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_restores_garbage_collection(capsys, monkeypatch, fail, enabled):
    import gc

    seen = []

    def verb(args):
        seen.append(gc.isenabled())
        if fail:
            raise fail
        return 0

    monkeypatch.setattr(cli, "cmd_series", verb)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if fail:
            with pytest.raises(fail):
                main(["series", "--dims", "0:1", "--n", "1"])
        else:
            assert main(["series", "--dims", "0:1", "--n", "1"]) == 0
        assert seen == [False]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# -- the primes cross-check exact ranks ----------------------------------------

P1, P2 = 1048583, 1048589  # the default primes


def truncated_cube_file(tmp_path, den):
    """k[x]/x^3 on the basis 1, x, y = den·x^2, so x∘x = y / den."""
    path = tmp_path / f"cube-{den}.json"
    path.write_text(json.dumps({
        "name": "cube",
        "objects": ["*"],
        "homs": [{"name": b, "src": "*", "tgt": "*"} for b in ("1", "x", "y")],
        "units": {"*": "1"},
        "compose": [{"g": "x", "f": "x",
                     "result": [{"basis": "y", "num": 1, "den": den}]}],
        "diff": [],
    }))
    return str(path)


def test_a_prime_that_divides_a_denominator_checks_nothing(tmp_path, capsys):
    # the first default prime divides the structure constant 1/1048583, so
    # it is missing from every degree whose ranks see it
    cube = truncated_cube_file(tmp_path, P1)
    rep = run_json(capsys, "compute", cube, "--max-level", "4",
                   "--degrees=-3..0")
    res = rep["results"]
    assert {k: v["dim"] for k, v in res.items()} == \
        {"0": 3, "-1": 2, "-2": 2, "-3": 2}
    assert {k: v["primes"] for k, v in res.items()} == \
        {"0": [P1, P2], "-1": [P2], "-2": [P2], "-3": [P2]}
    assert all(v["agreed"] for v in res.values())
    rep = run_json(capsys, "decompose", cube, "--n", "2", "--max-level", "3",
                   "--degrees=-1..0")
    res = rep["results"]
    integral = run_json(capsys, "decompose", truncated_cube_file(tmp_path, 1),
                        "--n", "2", "--max-level", "3", "--degrees=-1..0")
    assert res["agreed"] == integral["results"]["agreed"] == \
        {"0": True, "-1": True}
    assert res["primes"] == {"0": [P2], "-1": [P2]}
    assert integral["results"]["primes"] == {"0": [P1, P2], "-1": [P1, P2]}
    assert res["lhs_totals"] == integral["results"]["lhs_totals"]
    assert set(res["verdicts"].values()) == {"Equal"}


@pytest.mark.parametrize("mode", ["modular", "exact"])
def test_primes_that_rank_short_change_no_dim(capsys, mode):
    # d(y) = P1·P2·x vanishes mod both default primes, which agree with
    # each other on ranks too low; every dim is the rank over Q all the same
    rep = run_json(capsys, "compute", str(FIXTURES / "cone_unlucky_primes.json"),
                   "--max-level", "4", "--degrees=-2..0", "--mode", mode)
    res = rep["results"]
    assert {k: v["dim"] for k, v in res.items()} == {"0": 1, "-1": 0, "-2": 0}
    assert {v["certificate"] for v in res.values()} == {"exact"}
    assert {v["agreed"] for v in res.values()} == {mode == "exact"}


@pytest.mark.parametrize("workload", ["compute-modular", "decompose"])
def test_seeded_workloads_primes_give_the_exact_rank(tmp_path, capsys,
                                                      workload):
    # the bench's own check (mode, certificates, `agreed`, dims) passes here
    # before it can fail a benchmark run
    import sys
    sys.path.insert(0, str(FIXTURES.parent / "bench"))
    try:
        from workloads import check, generate
    finally:
        sys.path.pop(0)
    rep = run_json(capsys, *generate(workload, 1, str(FIXTURES), str(tmp_path)))
    assert check(workload, 0, rep) == ""
    res = rep["results"]
    if workload == "decompose":
        agreed = res["agreed"].values()
        assert all(v == [P1, P2] for v in res["primes"].values())
    else:
        agreed = [v["agreed"] for v in res.values()]
        assert all(v["primes"] == [P1, P2] for v in res.values())
    assert list(agreed) and all(agreed)


# -- series -----------------------------------------------------------------


def test_series_partition_count(capsys):
    rep = run_json(capsys, "series", "--dims", "0:1", "--n", "6")
    assert rep["results"] == {"0": 11}


def test_series_dual_numbers(capsys):
    rep = run_json(capsys, "series", "--dims", "0:2,-1:1,-2:1,-3:1",
                   "--n", "2")
    assert rep["results"]["0"] == 5
    assert rep["results"]["-1"] == 3
    assert rep["results"]["-2"] == 3
    assert rep["results"]["-3"] == 4


def test_series_empty_dims(capsys):
    rep = run_json(capsys, "series", "--dims", "", "--n", "1")
    assert rep["results"] == {}


def test_series_mixed_sign_contract(capsys):
    code, _, err = run(capsys, "series", "--dims", "1:1,-1:1", "--n", "2")
    assert code == 1
    code, out, _ = run(capsys, "series", "--dims", "1:1,-1:1", "--n", "2",
                       "--allow-truncated")
    assert code == 0
