"""Run every golden digest case without pytest.

Usage, from the repository root, under any supported interpreter:

    PYTHONPATH=src python tests/run_goldens.py

Prints one line per case and exits 1 if any digest differs.
"""

import os
import platform
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from golden_cases import RUN_OUT_COMMS, TABLES, run_digests  # noqa: E402


def main() -> int:
    failed = total = 0
    for table, (build, golden) in TABLES.items():
        for key in sorted(golden):
            with tempfile.TemporaryDirectory() as directory:
                got, report = run_digests(build(*key), directory)
            ok = got == golden[key] and (table != "run_out" or report.n_comms == RUN_OUT_COMMS)
            total += 1
            failed += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {table} {key}")
    print(f"python {platform.python_version()}: {total - failed}/{total} golden cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
