"""
Exporting count sequences through the command line
==================================================

The chesscount CLI prints single counts, whole triangles, and coefficient
tables in csv, tsv, json, or b-file form.  This script drives the CLI
in-process and reads one of its b-files back.
"""

import json
import tempfile
from pathlib import Path

from chesscount import anassas
from chesscount.cli import main

# A single count.  Same as: chesscount count bishop 8 2
print("count bishop 8 2:")
main(["count", "bishop", "8", "2"])

# The p-refined anassa count: pieces strictly below the main diagonal.
print("\ncount anassa 5 3 --below 1:")
main(["count", "anassa", "5", "3", "--below", "1"])

# Triangles stream row by row.  Same as: chesscount table anassa 4
print("\ntable anassa 4:")
main(["table", "anassa", "4"])

# b-files number a flattened sequence one term per line, the exchange
# format used for integer-sequence archives.
out = Path(tempfile.mkdtemp()) / "anassa.txt"
main(["table", "anassa", "6", "--format", "bfile", "--out", str(out)])
text = out.read_text()
print("\nfirst b-file lines:")
for line in text.splitlines()[:6]:
    print(" ", line)

# Round trip: the values read back are the flattened triangle, and the
# running index starts at 0.
entries = [line.split() for line in text.splitlines() if not line.startswith("#")]
assert [int(index) for index, _ in entries] == list(range(len(entries)))
values = [int(value) for _, value in entries]
assert values[:3] == [1, 1, 1]
flat = [anassas(m, k) for m in range(7) for k in range(m + 1)]
assert values == flat
print("b-file round trip matches anassas(m, k) flattened")

# Coefficient vectors come out as exact rationals, json included.
print("\ncoeffs bishop 2 --format json:")
main(["coeffs", "bishop", "2", "--format", "json"])

# json output round trips through the standard library.
table_json = out.with_name("table.json")
main(["table", "anassa", "3", "--format", "json", "--out", str(table_json)])
payload = json.loads(table_json.read_text())
assert payload["rows"][-1] == [1, 9, 22, 14]
print("\njson table payload rows:", payload["rows"])

# Self-check suites bundle the cross-validations from demos 02-04.
print("\nverify coeffs:")
exit_code = main(["verify", "coeffs", "--k-max", "3"])
assert exit_code == 0
