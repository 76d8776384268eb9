"""Count code lines under a package directory.

Definition: a code line is a physical line of a ``.py`` file that holds
at least one token of Python code, as ``tokenize`` reads it. Lines that
hold only comments, blank lines and docstrings do not count. A
docstring here is any string-literal expression statement (a module,
class or function docstring, or a bare string standing alone as a
statement); every line it spans is left out. A multi-line string that
is part of an expression (an argument, an assignment) counts on every
line it spans.

    python scripts/count_code_lines.py [dir]     # default: centrality_gpu_ray

Prints one line per file (``--files``) and the total as the last line.
"""

from __future__ import annotations

import argparse
import os
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                    tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: str) -> int:
    """Number of code lines in one Python file (definition above)."""
    with open(path, "rb") as f:
        toks = list(tokenize.tokenize(f.readline))
    lines: set[int] = set()
    prev = tokenize.NEWLINE
    for i, tok in enumerate(toks):
        if tok.type in _SKIP:
            if tok.type not in (tokenize.COMMENT, tokenize.NL):
                prev = tok.type
            continue
        nxt = next((t for t in toks[i + 1:]
                    if t.type not in (tokenize.COMMENT, tokenize.NL)), None)
        docstring = (tok.type == tokenize.STRING
                     and prev in _STATEMENT_START
                     and nxt is not None
                     and nxt.type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        prev = tok.type
    return len(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dir", nargs="?", default="centrality_gpu_ray")
    ap.add_argument("--files", action="store_true",
                    help="also print each file's count")
    args = ap.parse_args()
    total = 0
    for root, dirs, files in os.walk(args.dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                n = code_lines(path)
                total += n
                if args.files:
                    print(f"{n:7d}  {path}")
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
