import math
import sys

from varosc.output import write_csv


def test_write_csv_round_trips_integers_and_floats(tmp_path):
    ints = [0, 1, -7, 10**15 + 1, 2**52 - 1, 2**52, 2**53]
    floats = [-0.0, 0.0, 5e-324, -2.5e-310, 1.0 / 3.0, -math.pi * 1e300, sys.float_info.max]
    path = tmp_path / "t.csv"
    write_csv(path, "# note=1\nn,value", ints, floats)
    lines = path.read_text().splitlines()
    assert lines[:2] == ["# note=1", "n,value"] and len(lines) == 2 + len(ints)
    for line, n, x in zip(lines[2:], ints, floats):
        n_str, x_str = line.split(",")
        assert n_str == str(n)
        assert float(x_str).hex() == x.hex()  # bit-exact, the sign of zero included
