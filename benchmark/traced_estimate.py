"""One traced `surveyblend` CLI process, started by benchmark/run.py.

    python3 benchmark/traced_estimate.py SPANS_JSON estimate --config ... --output-dir ...

Times ``import surveyblend.cli`` as a root span, installs the tracing
wrappers, runs ``surveyblend.cli.main`` on the remaining arguments and
writes the spans and counts to SPANS_JSON before exiting with the CLI's
exit code. ``PYTHONPATH`` must point at the checkout's ``src``.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import surveyblend
    import surveyblend.cli

    tracer.span("cli.import", start, time.perf_counter())
    tracer.install(surveyblend)
    code = surveyblend.cli.main(cli_args)
    spans, counts = tracer.take()
    Path(spans_path).write_text(json.dumps({"spans": spans, "counts": counts, "exit_code": code}))
    return code


if __name__ == "__main__":
    sys.exit(main())
