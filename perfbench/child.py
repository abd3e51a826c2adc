"""One `twosticks` CLI call in a fresh interpreter, as a user runs it.

    python3 perfbench/child.py RESULT_JSON SPANS_NPZ|- -- <twosticks arguments>

Writes to RESULT_JSON the CLOCK_MONOTONIC instants at which `twosticks.cli`
became importable and at which `main` returned, the exit code, and the peak
resident memory.  With a SPANS_NPZ path instead of `-`, the layer wrappers
of `spans.py` are installed after the import and the spans are saved there.
Only the standard library is imported before `twosticks.cli`, so the setup
time the parent derives is the import cost a user pays.
"""

import sys
import time

from twosticks.cli import main

imported = time.monotonic()


def _run(spans_path: str, argv: list) -> int:
    if spans_path == "-":
        return main(argv)
    from spans import Tracer  # perfbench/spans.py, next to this file

    tracer = Tracer()
    tracer.install()
    try:
        return main(argv)
    finally:
        tracer.uninstall()
        dim = int(argv[argv.index("--dim") + 1]) if "--dim" in argv else 3
        tracer.save(spans_path, dim)


if __name__ == "__main__":
    result_path, spans_path, sep, *cli_argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: child.py RESULT_JSON SPANS_NPZ|- -- <twosticks arguments>")
    try:
        code = _run(spans_path, cli_argv)
    except Exception:  # the call failed; the parent scores it by the exit code
        import traceback

        traceback.print_exc()
        code = 70
    done = time.monotonic()

    import json  # imported after the timed part, like traceback above
    import resource

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"imported": imported, "done": done, "code": code, "rss_mb": rss_mb}, fh)
    sys.exit(code)
