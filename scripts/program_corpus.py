#!/usr/bin/env python3
"""Print the evaluation program of every net of the bit corpus, and of the
shallow nets its `wide_to_deep` forms start from, to show that a change keeps
the programs, or how it moves their register rows.

Usage:
    PYTHONPATH=src python scripts/program_corpus.py

Each line is a net's label from `bit_corpus.corpus()` or
`bit_corpus.shallow_nets()`, the units its program computes, its register
rows and the sha256 of the program's canonical text (`canonical`); the last
line is the sha256 over all lines. The text holds the program's values, not
its Python layout, so a field that is dropped or renamed moves no digest.
Run it against two source trees and compare the output. A full run takes a
few seconds on a 2-core machine.
"""

import hashlib
from itertools import chain

from bit_corpus import corpus, shallow_nets

from relu_forge import nets


def _hex(x) -> str:
    return "none" if x is None else float(x).hex()


def _terms(terms) -> str:
    return " ".join(f"{row}:{_hex(w)}" for row, w in terms)


def canonical(prog) -> str:
    """The program as text: a head line with its input dimension, register
    rows, output bias and ceiling, then per stage a line per unit (row, bias,
    terms) and a line of output terms, every float in `float.hex`."""
    lines = [f"input_dim {prog.input_dim} registers {prog.registers} "
             f"out_bias {_hex(prog.out_bias)} ceiling {_hex(prog.ceiling)}"]
    for units, out_terms in prog.stages:
        lines += [f"unit {row} {_hex(bias)} {_terms(terms)}" for row, bias, terms in units]
        lines.append(f"out {_terms(out_terms)}")
    return "\n".join(lines) + "\n"


def main() -> int:
    total = hashlib.sha256()
    count = 0
    for label, net in chain(corpus(), shallow_nets()):
        prog = nets._program(net)
        digest = hashlib.sha256(canonical(prog).encode()).hexdigest()
        line = f"{label}: units={prog.units} rows={prog.registers} {digest}"
        print(line)
        total.update(line.encode() + b"\n")
        count += 1
    print(f"total over {count} nets: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
