"""Check that a run's results.csv and results.json hold the same rows.

Usage: python tests/rows_agree.py RUN_DIR [RUN_DIR ...]

Stdlib only, and independent of both writers: results.csv is read with
``csv`` and results.json with ``json``. Each JSON row's keys must be the
CSV header, in order, and each value must agree with its CSV field: a
null is an empty field, a number equals the float of its field, and text
is the same text. Prints one line per directory; exits 1 at a mismatch.
"""

import csv
import json
import os
import sys


def mismatch(run_dir):
    """The first way the two files disagree, or None."""
    with open(os.path.join(run_dir, "results.csv"), newline="") as fh:
        header, *fields = csv.reader(fh)
    with open(os.path.join(run_dir, "results.json")) as fh:
        rows = json.load(fh)["rows"]
    if len(fields) != len(rows):
        return f"{len(fields)} CSV rows against {len(rows)} JSON rows"
    for i, (line, row) in enumerate(zip(fields, rows), 1):
        if list(row) != header or len(line) != len(header):
            return f"row {i}: JSON keys {list(row)}, {len(line)} fields, header {header}"
        for key, field, value in zip(header, line, row.values()):
            if value is None:
                same = field == ""
            elif isinstance(value, (int, float)):
                same = field != "" and float(field) == value
            else:
                same = field == value
            if not same:
                return f"row {i}, {key}: CSV {field!r} against JSON {value!r}"
    return None


def main(run_dirs):
    failed = False
    for run_dir in run_dirs:
        problem = mismatch(run_dir)
        failed = failed or problem is not None
        print(f"{run_dir}: {problem or 'results.csv and results.json agree'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
