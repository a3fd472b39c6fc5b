"""Run one hhwb command in this process and write its timestamps as JSON.

    python3 bench/child.py OUT.json TRACE -- <hhwb arguments>

The stamps are CLOCK_MONOTONIC readings, comparable with the parent's:
``setup`` when the parsed input has passed ``validate_category`` and ``end``
when ``hhwb.cli.main`` has returned, i.e. the report is written.  With
TRACE=1 the public calls listed in ``tracer.TARGETS`` are wrapped and the
spans and counts are written as well.
"""

import json
import os
import sys
import time


def main() -> int:
    out_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    started = time.monotonic()
    from hhwb import cli

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"hhwb imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 70
    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    stamps = {"start": started}
    validate = cli.validate_category

    def stamped_validate(category):
        result = validate(category)
        stamps.setdefault("setup", time.monotonic())
        return result

    cli.validate_category = stamped_validate
    code = cli.main(argv)
    stamps["end"] = time.monotonic()
    record = {"run_id": os.getpid(), "stamps": stamps, "code": code}
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counts"] = tracer.counts
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
