"""Run one qvlab command line, or the cli-mix set-up, under the tracer.

    python3 perfbench/cli_child.py --trace-out spans.jsonl --op c0.1 -- check stationarity ...
    python3 perfbench/cli_child.py --trace-out spans.jsonl --op setup --setup -- SPEC...

The benchmark starts this in place of ``python -m qvlab.cli`` for traced
cli-mix runs. Stdout, stderr and the exit code are qvlab's own; the spans
go to --trace-out when the command ends.
"""

import argparse
import os
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--op", required=True)
    parser.add_argument("--setup", action="store_true",
                        help="only import qvlab and parse the field specs given after --")
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest

    import qvlab.cli
    from qvlab import fields
    from tracer import Tracer, write_records

    tracer = Tracer()
    tracer.install()
    tracer.set_op(args.op)
    try:
        if args.setup:
            tracer.span("setup", "op", lambda: [fields.parse_field_spec(s) for s in rest])
            code = 0
        else:
            workers = int(os.environ.get("QVLAB_WORKERS", "1") or 1)
            code = tracer.span("cli.main", "op", qvlab.cli.main, rest, attrs={"workers": workers})
    finally:
        tracer.uninstall()
        write_records(args.trace_out, tracer.records)
    return code


if __name__ == "__main__":
    sys.exit(main())
