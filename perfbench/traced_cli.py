"""Run one `ebmvar` CLI command with every public function traced.

    python3 perfbench/traced_cli.py SPANS_JSON RUN_ID [ebmvar arguments...]

The spans go to SPANS_JSON when the command ends; the exit code is the
command's own.
"""

from __future__ import annotations

import sys

from tracer import Recorder, install


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    import ebmvar.cli

    recorder = Recorder(run_id)
    install(recorder)
    try:
        return ebmvar.cli.main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
