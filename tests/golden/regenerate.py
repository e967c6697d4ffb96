"""Rewrite the golden recipe outputs under tests/golden/.

Run from the repository root, and only when a change is meant to move the
numbers:

    python tests/golden/regenerate.py

Each case of tests/test_golden.py is rerun through the CLI and its output
files are copied here, observables thinned to every 8th row.  A change that
regenerates them lists every field that moved, and by how much.
"""
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from test_golden import CASES, GOLDEN, run_case, thinned  # noqa: E402


def main():
    for case in CASES:
        dest = GOLDEN / case.name
        with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
            out = Path(tmp)
            run_case(case, out)
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir(parents=True)
            for path in sorted(out.iterdir()):
                text = path.read_text()
                if path.name.startswith("observables"):
                    text = thinned(text)
                (dest / path.name).write_text(text)
        print(f"golden: wrote {dest}")


if __name__ == "__main__":
    main()
