"""Rewrite the golden recipe outputs under tests/golden/, or report what moved.

Run from the repository root, and only when a change is meant to move the
numbers:

    python tests/golden/regenerate.py            # rewrite the golden files
    python tests/golden/regenerate.py --report   # compare only; writes nothing

Each case of tests/test_golden.py is rerun through the CLI.  Without
--report its output files are copied here, observables thinned to every
8th row.  With --report every field of the fresh outputs is compared with
the committed file in the scale and bound test_golden.py uses, and each
field that moved is printed as err / scale beside its bound.  A change that
regenerates the files lists every field that moved, and by how much.
"""
import argparse
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from test_golden import CASES, GOLDEN, compare_case, run_case, thinned  # noqa: E402


def report(case, out: Path) -> int:
    """Print each moved field of case; return how many exceed their bound."""
    try:
        fields = compare_case(case, out)
    except AssertionError as exc:
        print(f"{case.name}: layout differs from the golden files: {exc}")
        return 1
    moved = [(name, m) for name, m in fields if m.err > 0.0]
    over = 0
    for name, m in moved:
        rel = m.err / m.scale if m.scale > 0.0 else float("inf")
        flag = "" if m.err <= m.tol * m.scale else "  OUT OF BOUND"
        over += bool(flag)
        print(f"{case.name}/{name} {m.field}: {rel:.2e} of scale {m.scale:.6g} "
              f"(bound {m.tol:g}){flag}")
    print(f"{case.name}: {len(moved)} of {len(fields)} fields moved, {over} out of bound")
    return over


def write(case, out: Path):
    dest = GOLDEN / case.name
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    for path in sorted(out.iterdir()):
        text = path.read_text()
        if path.name.startswith("observables"):
            text = thinned(text)
        (dest / path.name).write_text(text)
    print(f"golden: wrote {dest}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--report", action="store_true",
                    help="compare fresh outputs with the golden files; write nothing")
    args = ap.parse_args(argv)
    over = 0
    for case in CASES:
        with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
            out = Path(tmp)
            run_case(case, out)
            if args.report:
                over += report(case, out)
            else:
                write(case, out)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
