"""The CSV layout of every output file: numbers as %.17g, which round-trips
every double and prints every integer up to 2^53 (not beyond) as itself.
A nan or inf is never written."""
from pathlib import Path

__all__ = ["FMT", "write_csv"]

FMT = "{:.17g}"


def write_csv(path, header: str, *columns):
    """Write the header line(s), then the equal-length columns as comma-separated
    rows in one str.format call; plain numbers (as from ndarray.tolist()) format fastest.
    Raises ValueError, before anything is written, if a value is not finite."""
    n, k = len(columns[0]), len(columns)
    flat = [None] * (n * k)
    for j, col in enumerate(columns):
        flat[j::k] = col
    body = ((",".join([FMT] * k) + "\n") * n).format(*flat)
    if "nan" in body or "inf" in body:
        raise ValueError(f"{path} would hold a nan or inf value")
    Path(path).write_text(header + "\n" + body)
