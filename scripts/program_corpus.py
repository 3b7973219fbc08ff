#!/usr/bin/env python3
"""Print the evaluation program of every net of the bit corpus, and of the
shallow nets its `wide_to_deep` forms start from, to show that a change keeps
the programs, or how it moves their register rows.

Usage:
    PYTHONPATH=src python scripts/program_corpus.py

Each line is a net's label from `bit_corpus.corpus()` or
`bit_corpus.shallow_nets()`, the units its program computes, its register
rows and the sha256 of the pickled program; the last line is the sha256 over
all lines. Run it against two source trees and
compare the output. A full run takes a few seconds on a 2-core machine.
"""

import hashlib
import pickle
from itertools import chain

from bit_corpus import corpus, shallow_nets

from relu_forge import nets


def main() -> int:
    total = hashlib.sha256()
    count = 0
    for label, net in chain(corpus(), shallow_nets()):
        prog = nets._program(net)
        digest = hashlib.sha256(pickle.dumps(prog)).hexdigest()
        line = f"{label}: units={prog.units} rows={prog.registers} {digest}"
        print(line)
        total.update(line.encode() + b"\n")
        count += 1
    print(f"total over {count} nets: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
