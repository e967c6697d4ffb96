"""The CSV layout of every output file: numbers as %.17g, which round-trips
every double and prints every integer up to 2^53 (not beyond) as itself."""
from pathlib import Path

__all__ = ["FMT", "write_csv"]

FMT = "{:.17g}"


def write_csv(path, header: str, *columns):
    """Write the header line(s), then the equal-length columns as comma-separated
    rows in one str.format call; plain numbers (as from ndarray.tolist()) format fastest."""
    n, k = len(columns[0]), len(columns)
    flat = [None] * (n * k)
    for j, col in enumerate(columns):
        flat[j::k] = col
    Path(path).write_text(header + "\n" + ((",".join([FMT] * k) + "\n") * n).format(*flat))
