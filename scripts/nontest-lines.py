#!/usr/bin/env python3
"""Count the non-test lines of every crate: for each file under
`crates/*/src`, the lines before its first `#[cfg(test)]`, skipping blank
lines and lines that start with `//` (comments and doc comments).

Prints the count per crate and the total. Run from the repository root:

    python3 scripts/nontest-lines.py
"""

import pathlib

counts = {}
for path in sorted(pathlib.Path("crates").glob("*/src/**/*.rs")):
    n = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("#[cfg(test)]"):
            break
        if line and not line.startswith("//"):
            n += 1
    crate = path.parts[1]
    counts[crate] = counts.get(crate, 0) + n

for crate, n in counts.items():
    print(f"{crate:8} {n:6}")
print(f"{'total':8} {sum(counts.values()):6}")
