#!/usr/bin/env python3
"""Counts the lines of code under each path: non-blank lines whose first
non-space characters are not `//`.

    python3 scripts/counted_lines.py src/market src/dp
    python3 scripts/counted_lines.py --self-test

A path may be a file or a directory; a directory counts every C++ source
below it (.h, .hpp, .cc, .cpp), not its CMakeLists.txt.  Prints one
`<count> <path>` line per path, then `<sum> total` when more than one path
is given.  A `/* ... */` block and a line of code that ends in a `//`
comment both count, as do preprocessor lines.
"""

import os
import sys
import tempfile

SOURCE_SUFFIXES = (".h", ".hpp", ".cc", ".cpp")


def counted(text):
    """The counted lines of one file's text."""
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.lstrip().startswith("//"))


def files_under(path):
    if os.path.isfile(path):
        return [path]
    found = []
    for root, dirs, names in os.walk(path):
        dirs.sort()
        found.extend(os.path.join(root, name) for name in sorted(names)
                     if name.endswith(SOURCE_SUFFIXES))
    return found


def count_path(path):
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    total = 0
    for name in files_under(path):
        with open(name, encoding="utf-8", errors="replace") as handle:
            total += counted(handle.read())
    return total


FIXTURE = """\
// A header comment: not counted.
#pragma once

  /// A doc comment: not counted.
int f() {  // code with a trailing comment: counted
  /* a block comment: counted */
\t
  return 1;
}
"""


def self_test():
    expected = 5
    got = counted(FIXTURE)
    if got != expected:
        print(f"FAIL: fixture counts {got}, expected {expected}")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, "sub"))
        for name in ("a.h", os.path.join("sub", "b.cc"), "CMakeLists.txt"):
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as out:
                out.write(FIXTURE)
        got = count_path(tmp)
    if got != 2 * expected:
        print(f"FAIL: directory counts {got}, expected {2 * expected}")
        return 1
    print("counted_lines self-test OK")
    return 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if not argv or any(arg.startswith("-") for arg in argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    counts = [(count_path(path), path) for path in argv]
    for count, path in counts:
        print(f"{count} {path}")
    if len(counts) > 1:
        print(f"{sum(count for count, _ in counts)} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
