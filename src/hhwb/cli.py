"""Command-line front end: validate inputs, compute homology, verify the
decomposition, and expand the symmetric-power series, with a
content-addressed result cache."""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
import time

from . import __version__
from .dgcore import (
    BasisInfo,
    DgCategory,
    DgFunctor,
    Permutation,
    coeff,
    identity_functor,
    permutation_functor,
    tensor_power,
    validate_category,
)
from .hochschild import build_complex, total_homology
from .qlinalg import EXACT, MODULAR, RankMode, StructuralError

# hashlib loads OpenSSL, which adds about 3.5 MB and 3 ms to every run for
# one digest; CPython's own lean module computes the same SHA-256
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


class InputError(Exception):
    """Malformed input file or options (exit code 2)."""


# -- input parsing ----------------------------------------------------------


def _put(table: dict, key, value, what: str) -> None:
    """table[key] = value, where the input may define `key` only once."""
    if key in table:
        raise InputError(f"{what} {key!r} given twice")
    table[key] = value


def _lincomb(entries, where: str) -> dict:
    if not isinstance(entries, list):
        raise InputError(f"{where}: linear combination must be a list")
    out = {}
    for e in entries:
        try:
            _put(out, e["basis"],
                 coeff(_int(e["num"]), _int(e.get("den", 1))),
                 f"{where}: basis")
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{where}: bad term {e!r} ({exc})")
    return {b: c for b, c in out.items() if c}


def _str(x) -> str:
    """x, which the input must give as a string: the name of an object, a
    basis morphism, a category or a functor."""
    if not isinstance(x, str):
        raise TypeError(f"{x!r} is not a string")
    return x


def _int(x) -> int:
    """x, which the input must give as a JSON integer: a degree, or a
    coefficient's numerator or denominator."""
    if type(x) is not int:
        raise TypeError(f"{x!r} is not an integer")
    return x


def _section(data: dict, key: str, kind: type, required: bool):
    """data[key], which must be a JSON array (kind list) or object (kind
    dict); an absent optional key reads as an empty one."""
    if key not in data:
        if required:
            raise InputError(f"missing top-level key {key!r}")
        return kind()
    if not isinstance(data[key], kind):
        raise InputError(f"top-level key {key!r} must be a JSON "
                         f"{'array' if kind is list else 'object'}")
    return data[key]


def category_from_dict(data: dict) -> DgCategory:
    objects = _section(data, "objects", list, True)
    homs = _section(data, "homs", list, True)
    units = _section(data, "units", dict, True)
    try:
        objects = [_str(o) for o in objects]
        units = {o: _str(u) for o, u in units.items()}
    except TypeError as exc:
        raise InputError(f"bad objects or units ({exc})")
    try:
        name = _str(data.get("name", "category"))
    except TypeError as exc:
        raise InputError(f"bad category name ({exc})")
    basis = {}
    for h in homs:
        try:
            _put(basis, _str(h["name"]), BasisInfo(
                _str(h["src"]), _str(h["tgt"]), _int(h.get("degree", 0))),
                 "hom")
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad hom entry {h!r} ({exc})")
    compose = {}
    for entry in _section(data, "compose", list, False):
        try:
            key = (_str(entry["g"]), _str(entry["f"]))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad compose entry {entry!r} ({exc})")
        _put(compose, key, _lincomb(entry.get("result", []),
                                    f"compose {key[0]}∘{key[1]}"), "compose")
    diff = {}
    for entry in _section(data, "diff", list, False):
        try:
            b = _str(entry["basis"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad diff entry {entry!r} ({exc})")
        _put(diff, b, _lincomb(entry.get("result", []), f"diff {b}"), "diff")
    try:
        return DgCategory(objects=objects, basis=basis, units=units,
                          compose=compose, diff=diff, name=name)
    except (ValueError, KeyError) as exc:
        raise InputError(f"category construction failed: {exc}")


def functor_from_dict(c: DgCategory, data: dict) -> DgFunctor:
    try:
        obj_map, hom_map = data["obj_map"], data["hom_map"]
        if not (isinstance(obj_map, dict) and isinstance(hom_map, dict)):
            raise TypeError("obj_map and hom_map must be JSON objects")
        hom_map = {b: _lincomb(v, f"functor hom {b}")
                   for b, v in hom_map.items()}
        name = _str(data.get("name", "functor"))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad functor entry ({exc})")
    return DgFunctor(c, c, obj_map, hom_map, name=name)


def _json_object(pairs: list) -> dict:
    """A JSON object as a dict, each key given once."""
    out = {}
    for key, value in pairs:
        _put(out, key, value, "JSON object key")
    return out


def load_input(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    try:
        data = json.loads(raw, object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be an object")
    return raw, data


def parse_twist(s: str | None) -> Permutation | None:
    """The permutation of the tensor factors that --twist names, or None
    for the identity twist of the category itself."""
    if s is None or s == "identity":
        return None
    m = re.fullmatch(r"perm:(\d+):(.*)", s)
    if not m:
        raise InputError(f"bad twist {s!r}; expected perm:<n>:<cycles>")
    n = int(m.group(1))
    if n < 1:
        raise InputError(f"bad twist {s!r}: needs at least one tensor factor")
    rest = m.group(2).strip()
    if re.sub(r"\([^)]*\)", "", rest).strip():
        raise InputError(f"bad cycle notation in twist {s!r}")
    cycles, seen = [], set()
    for grp in re.findall(r"\(([^)]*)\)", rest):
        # each entry an integer in 1..n, and none in two places, so that
        # the cycles are disjoint and name one permutation
        cycle = []
        for x in grp.replace(",", " ").split():
            i = int(x) if x.isdecimal() else 0
            if not 1 <= i <= n:
                raise InputError(f"bad twist {s!r}: cycle ({grp}) has entry "
                                 f"{x}, not one of 1..{n}")
            if i in seen:
                raise InputError(f"bad twist {s!r}: cycle ({grp}) repeats "
                                 f"entry {x}")
            seen.add(i)
            cycle.append(i)
        if cycle:
            cycles.append(tuple(cycle))
    return Permutation.from_cycles(n, cycles)


def parse_degrees(s: str | None, max_level: int) -> list:
    """The degrees a..b, highest first; by default 0 down to 1 - max_level,
    and degree 0 alone at max level 0."""
    if s is None:
        return list(range(0, -max(max_level, 1), -1))
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", s.strip())
    if not m:
        raise InputError(f"bad degree range {s!r}; expected a..b")
    a, b = int(m.group(1)), int(m.group(2))
    lo, hi = min(a, b), max(a, b)
    return list(range(hi, lo - 1, -1))


def parse_dims(s: str) -> dict:
    out = {}
    if not s.strip():
        return out
    for part in s.split(","):
        m = re.fullmatch(r"\s*(-?\d+)\s*:\s*(\d+)\s*", part)
        if not m:
            raise InputError(f"bad dims entry {part!r}; expected deg:dim")
        _put(out, int(m.group(1)), int(m.group(2)), "dims degree")
    return out


# -- cache ------------------------------------------------------------------


def cache_dir(args) -> str | None:
    return args.cache_dir or os.environ.get("HHWB_CACHE_DIR")


def source_digest() -> str:
    """SHA-256 of hhwb's own source files, so that an entry that other code
    cached is a miss even where the version is the same."""
    here = os.path.dirname(os.path.abspath(__file__))
    h = sha256()
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def cache_key(input_sha: str, options: dict) -> str:
    blob = json.dumps({"input": input_sha, "options": options,
                       "version": __version__, "source": source_digest()},
                      sort_keys=True).encode()
    return sha256(blob).hexdigest()


def cache_get(cdir: str | None, key: str) -> tuple | None:
    """(payload, report) of a cache hit, else None.  An entry that cannot be
    read or parsed is a miss."""
    if not cdir:
        return None
    path = os.path.join(cdir, key + ".json")
    try:
        with open(path, "rb") as fh:
            payload = fh.read()
        return payload, json.loads(payload)
    except (OSError, ValueError):
        return None


def cache_put(cdir: str | None, key: str, payload: bytes):
    if not cdir:
        return
    import tempfile  # only here: it adds to every start-up

    os.makedirs(cdir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cdir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, os.path.join(cdir, key + ".json"))
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


# -- output -----------------------------------------------------------------


def emit(payload: bytes, args, csv_rows, csv_header):
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode())
        sys.stdout.write("\n")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(csv_header + "\n")
            for row in csv_rows:
                # a value that was not computed (null) is an empty cell
                fh.write(",".join("" if x is None else str(x) for x in row)
                         + "\n")


def report_bytes(report: dict) -> bytes:
    return json.dumps(report, indent=2, sort_keys=True).encode()


def base_report(input_sha: str, options: dict, started: float) -> dict:
    return {
        "tool": "hhwb",
        "version": __version__,
        "input_sha256": input_sha,
        "options": options,
        "timings": {"wall_seconds": round(time.monotonic() - started, 3)},
    }


# -- commands ---------------------------------------------------------------


def cmd_validate(args) -> int:
    # imported here, not at the top, so that compute does not load it
    from .functors import validate_functor

    raw, data = load_input(args.path)
    cat = category_from_dict(data)
    diags = validate_category(cat)
    for fdata in _section(data, "functors", list, False):
        f = functor_from_dict(cat, fdata)
        diags += [f"functor {f.name}: {d}" for d in validate_functor(f)]
    if diags:
        for d in diags:
            print(d)
        return EXIT_MISMATCH
    print(f"{cat.name}: ok ({len(cat.basis)} basis morphisms, "
          f"{len(cat.objects)} objects)")
    return EXIT_OK


def _common_options(args, command: str) -> tuple[dict, RankMode]:
    """The options that key the cache, and the rank mode; a bad option is
    an InputError here, before any work."""
    if args.max_level < 0:
        raise InputError(f"--max-level {args.max_level} is negative")
    return {
        "command": command,
        "max_level": args.max_level,
        "normalized": args.normalized,
        "mode": args.mode,
        "degrees": parse_degrees(args.degrees, args.max_level),
    }, EXACT if args.mode == "exact" else MODULAR


def _report_verb(args, own_options, run, table) -> int:
    """compute and decompose: load the input, check the common options and
    then the verb's own, own_options() being the dict of them that joins
    the cache key.  On a cache miss validate the category, run the verb,
    whose run(category, options, mode) gives the report's results, and
    cache the report.  table(results) gives the CSV header, the CSV rows
    and the exit code, for a cached report as for a fresh one."""
    started = time.monotonic()
    raw, data = load_input(args.path)
    options, mode = _common_options(args, args.command)
    options.update(own_options())
    input_sha = sha256(raw).hexdigest()
    cdir = cache_dir(args)
    # the key reads every source file, so only a run that caches makes it
    key = cache_key(input_sha, options) if cdir else None
    hit = cache_get(cdir, key)
    if hit is not None:
        payload, rep = hit
    else:
        cat = category_from_dict(data)
        diags = validate_category(cat)
        if diags:
            for d in diags:
                print(d, file=sys.stderr)
            return EXIT_MISMATCH
        results = run(cat, options, mode)
        rep = base_report(input_sha, options, started)
        rep["results"] = results
        payload = report_bytes(rep)
        cache_put(cdir, key, payload)
    header, rows, code = table(rep["results"])
    emit(payload, args, rows, header)
    return code


def cmd_compute(args) -> int:
    def own_options():
        parse_twist(args.twist)  # a bad twist fails here, before any work
        return {"twist": args.twist or "identity"}

    def run(cat, options, mode):
        perm = parse_twist(options["twist"])
        if perm is None:
            twist = identity_functor(cat)
        else:
            power = tensor_power(cat, perm.n)
            cat, twist = power, permutation_functor(cat, perm.n, perm, power)
        sc = build_complex(cat, twist, options["max_level"],
                           options["normalized"])
        summary = total_homology(sc, options["degrees"], mode=mode)
        return {str(k): dict(r._asdict(), primes=list(r.primes) or None)
                for k, r in summary.degrees.items()}

    def table(results):
        return "degree,dim,certificate", [
            (k, results[k]["dim"], results[k]["certificate"])
            for k in sorted(results, key=int, reverse=True)], EXIT_OK

    return _report_verb(args, own_options, run, table)


def cmd_decompose(args) -> int:
    def own_options():
        if args.n < 1:
            raise InputError(f"--n {args.n}: decompose needs n >= 1")
        return {"n": args.n}

    def run(cat, options, mode):
        # imported here, not at the top, so that compute does not load it
        from .decomposition import verify_decomposition
        return verify_decomposition(
            cat, options["n"], options["degrees"], options["max_level"],
            options["normalized"], mode).to_dict()

    def table(results):
        verdicts = results["verdicts"]
        rows = [(k, results["lhs_totals"][k], results["rhs_totals"][k],
                 verdicts[k])
                for k in sorted(verdicts, key=int, reverse=True)]
        kinds = set(verdicts.values())
        code = (EXIT_MISMATCH if "Mismatch" in kinds
                else EXIT_INCONCLUSIVE if "Heuristic" in kinds else EXIT_OK)
        return "degree,lhs,rhs,verdict", rows, code

    return _report_verb(args, own_options, run, table)


def cmd_series(args) -> int:
    started = time.monotonic()
    from .decomposition import rhs_dims
    if args.n < 0:
        raise InputError(f"--n {args.n} is negative")
    h = parse_dims(args.dims)
    support = [k for k, d in h.items() if d]
    if support and min(support) < 0 < max(support) and not args.allow_truncated:
        print("mixed-sign degrees; pass --allow-truncated to proceed",
              file=sys.stderr)
        return EXIT_MISMATCH
    dims = rhs_dims(h, args.n, allow_truncated=args.allow_truncated)
    rep = {
        "tool": "hhwb",
        "version": __version__,
        "options": {"command": "series", "dims": {str(k): v
                                                  for k, v in sorted(h.items())},
                    "n": args.n},
        "results": {str(k): v for k, v in sorted(dims.items(), reverse=True)},
        "timings": {"wall_seconds": round(time.monotonic() - started, 3)},
    }
    rows = sorted(dims.items(), reverse=True)
    emit(report_bytes(rep), args, rows, "degree,dim")
    return EXIT_OK


# -- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hhwb",
                                description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("path", help="category description (JSON)")
        sp.add_argument("--max-level", type=int, default=5)
        norm = sp.add_mutually_exclusive_group()
        norm.add_argument("--normalized", dest="normalized",
                          action="store_true", default=True)
        norm.add_argument("--full", dest="normalized", action="store_false")
        sp.add_argument("--mode", choices=["exact", "modular"],
                        default="modular")
        sp.add_argument("--degrees", default=None, help="range a..b")
        sp.add_argument("--out", default=None, help="write JSON report here")
        sp.add_argument("--csv", default=None, help="write a CSV table here")
        sp.add_argument("--cache-dir", default=None)

    v = sub.add_parser("validate", help="check a category file")
    v.add_argument("path")
    v.set_defaults(func=cmd_validate)

    c = sub.add_parser("compute", help="twisted Hochschild homology")
    common(c)
    c.add_argument("--twist", default=None,
                   help="identity (default) or perm:<n>:<cycles>")
    c.set_defaults(func=cmd_compute)

    d = sub.add_parser("decompose", help="verify the symmetric-power "
                                         "decomposition")
    common(d)
    d.add_argument("--n", type=int, required=True)
    d.set_defaults(func=cmd_decompose)

    s = sub.add_parser("series", help="expand the super-symmetric-power "
                                      "series")
    s.add_argument("--dims", required=True, help='e.g. "0:2,-1:1"')
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--allow-truncated", action="store_true")
    s.add_argument("--out", default=None)
    s.add_argument("--csv", default=None)
    s.set_defaults(func=cmd_series)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a verb builds many long-lived containers and next to no reference
    # cycles, so cyclic collection would only rescan them; it is paused for
    # the verb and restored however the verb ends
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except StructuralError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        import traceback  # only on this path: it adds to every start-up

        traceback.print_exc()
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
