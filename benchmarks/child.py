"""Set-up time of one benchmark op in a fresh interpreter.

    python benchmarks/child.py ARGV...

Times from before ``import orbituse`` to the end of one in-process
``orbituse.cli.main(ARGV)`` and prints {"seconds": ..., "exit": ...}.
Only the standard library is imported before the clock starts, so set-up
time includes every import the package triggers.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def setup(argv: list[str]) -> None:
    start = time.perf_counter()
    import orbituse.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = orbituse.cli.main(argv)
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "exit": code}))


if __name__ == "__main__":
    setup(sys.argv[1:])
