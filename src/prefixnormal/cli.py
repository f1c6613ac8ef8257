"""Command-line interface: every operation as a scriptable subcommand.

Exit codes: 0 for success and positive verdicts, 1 for negative verdicts
(not-normal, absent, failed verification), 2 for usage errors.  Word
arguments accept ``-`` to read words from stdin, one per line; each line's
output is written before the next line is read, and a line that does not
parse is reported on stderr while the batch goes on (exit 2).  Output is
deterministic: identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import sys

from .words import ParseError, complement_counts, parse_word


def _each_word(args, handle) -> int:
    """Apply ``handle`` to the word argument or, for ``-``, to each stdin
    line as it is read, writing each line's output before reading the next.

    Each stdin line is decoded on its own as UTF-8, whatever the locale,
    with undecodable bytes kept as surrogates.  A line that does not parse
    writes ``error: line N: <message>`` to stderr and the batch goes on.
    Returns 2 if any line failed, else the largest verdict ``handle``
    returned.
    """
    if args.word != "-":
        return handle(parse_word(args.word, args.alphabet))
    lines = sys.stdin
    if lines is None:  # closed when the process started
        raise OSError("stdin is closed")
    if hasattr(lines, "buffer"):  # a text stream over bytes
        lines = (raw.decode("utf-8", "surrogateescape")
                 for raw in lines.buffer)
    verdict, failed = 0, False
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            w = parse_word(line, args.alphabet)
        except ParseError as exc:
            print(f"error: line {lineno}: {exc}", file=sys.stderr)
            failed = True
            continue
        verdict = max(verdict, handle(w))
        sys.stdout.flush()
    return 2 if failed else verdict


_PADDED: dict[int, list[str]] = {}  # _PADDED[d][v]: str(v) padded to width d


def _profile_table(max_a: list[int], max_b: list[int]) -> str:
    """_columns_table of the k, F_a and F_b rows, joined from numbers padded
    once per process: column k is len(str(k)) wide, as 0 <= F[k] <= k."""
    n = len(max_a) - 1
    rows = {"k  ": range(n + 1), "F_a": max_a, "F_b": max_b}
    lines = dict.fromkeys(rows, "")
    lo = hi = 0
    for d in range(1, len(str(n)) + 1):
        lo, hi = hi, min(n + 1, 10 ** d)
        pad = _PADDED.setdefault(d, [])
        pad += [str(v).rjust(d) for v in range(len(pad), hi)]
        for label, row in rows.items():
            lines[label] += "  " + "  ".join(map(pad.__getitem__, row[lo:hi]))
    return "\n".join(label + cells for label, cells in lines.items())


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to the file at ``path``, or to stdout without one."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _print_json(doc) -> None:
    import json  # only commands that print JSON load it
    print(json.dumps(doc))


def cmd_pnf(args) -> int:
    from . import pnf
    def one(w: str) -> int:
        pair = pnf.pnf_pair(w)
        if args.format == "json":
            _print_json({"word": w, "pnfA": pair.pnf_a, "pnfB": pair.pnf_b})
        else:
            print(f"PNF_a: {pair.pnf_a}")
            print(f"PNF_b: {pair.pnf_b}")
        return 0
    return _each_word(args, one)


def cmd_test(args) -> int:
    from . import pnf
    def one(w: str) -> int:
        witness = pnf.normality_witness(w)
        if args.format == "json":
            _print_json({"word": w, "normal": witness is None,
                         "witness": witness})
        elif witness is None:
            print("normal")
        else:
            print("not-normal")
            print(f"witness: {witness}")
        return 0 if witness is None else 1
    return _each_word(args, one)


def cmd_profiles(args) -> int:
    from . import profiles
    def one(w: str) -> int:
        max_a, max_b = profiles._maxima(w)
        if args.format == "json":
            _print_json({"n": len(w), "Fa": max_a, "Fb": max_b,
                         "fa": complement_counts(max_b)})
        else:
            print(_profile_table(max_a, max_b))
        return 0
    return _each_word(args, one)


def cmd_query(args) -> int:
    from . import jpm
    w = parse_word(args.word, args.alphabet)
    return _report_query(jpm.query(jpm.build_index(w), (args.x, args.y)))


def _report_query(found: bool) -> int:
    print("occurs" if found else "absent")
    return 0 if found else 1


def cmd_index(args) -> int:
    from . import jpm
    if args.index_cmd == "build":
        w = parse_word(args.word, args.alphabet)
        _write(args.output, jpm.index_to_json(jpm.build_index(w)) + "\n")
        return 0
    with open(args.file, encoding="utf-8") as fh:
        ix = jpm.index_from_json(fh.read())
    if args.index_cmd == "query":
        return _report_query(jpm.query(ix, (args.x, args.y)))
    pair = jpm.pnf_from_index(ix)
    print(f"PNF_a: {pair.pnf_a}\nPNF_b: {pair.pnf_b}")
    return 0


def cmd_classify(args) -> int:
    from . import lyndon
    def one(w: str) -> int:
        bits = lyndon.classify(w)
        _print_json({f: getattr(bits, f) for f in bits._fields})  # in order
        return 0
    return _each_word(args, one)


def cmd_census(args) -> int:
    from . import census  # enumerate, classes and verify-tables print there
    return getattr(census, "_cmd_" + args.command.replace("-", "_"))(
        args, _print_json)  # cli runs as __main__: census cannot import it


def cmd_region(args) -> int:
    from . import geometry
    w = parse_word(args.word, args.alphabet)
    # before the kernel runs
    geometry.check_render(len(w), args.unit, args.suffix_paths)
    reg = geometry.region(w)
    svg = reg.svg(w, unit=args.unit, suffix_paths=args.suffix_paths)
    if args.csv:
        _write(args.csv, reg.csv())
    _write(args.output, svg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefixnormal",
        description="Prefix normal forms of binary words and "
                    "jumbled-pattern-matching queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alphabet", choices=("ab", "binary"), default="ab",
                        help="input alphabet: a/b, or 0/1 with 1 as a")
    batch = argparse.ArgumentParser(add_help=False)
    batch.add_argument("word", help="word, or - to read words from stdin")

    def add(name, handler, help_, parents=(common,), fmt=None):
        p = sub.add_parser(name, parents=list(parents), help=help_)
        p.set_defaults(handler=handler)
        if fmt:
            p.add_argument("--format", choices=fmt, default=fmt[0])
        return p

    add("pnf", cmd_pnf, "print both prefix normal forms",
        parents=(common, batch), fmt=("text", "json"))
    add("test", cmd_test, "test prefix normality; exit 1 when not",
        parents=(common, batch), fmt=("text", "json"))
    add("profiles", cmd_profiles, "per-length factor count table",
        parents=(common, batch), fmt=("text", "json"))

    p = add("query", cmd_query, "does a factor with x a's and y b's occur")
    p.add_argument("word")
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)

    add("classify", cmd_classify,
        "Lyndon/necklace/pre-necklace/prefix-normal bits as JSON",
        parents=(common, batch))

    p = sub.add_parser("index", help="build and use a saved occurrence index")
    p.set_defaults(handler=cmd_index)
    isub = p.add_subparsers(dest="index_cmd", required=True)
    ib = isub.add_parser("build", parents=[common])
    ib.add_argument("word")
    ib.add_argument("-o", "--output", help="write JSON here (default stdout)")
    iq = isub.add_parser("query")
    iq.add_argument("file")
    iq.add_argument("x", type=int)
    iq.add_argument("y", type=int)
    ip = isub.add_parser("pnf")
    ip.add_argument("file")

    p = add("enumerate", cmd_census, "count words per length",
            parents=(), fmt=("text", "csv", "json"))
    p.add_argument("--max-n", type=int, default=16)
    p.add_argument("--what", choices=("pnf", "prenecklace", "both"),
                   default="both")
    p.add_argument("--jobs", type=int, default=1)

    p = add("classes", cmd_census, "normal-form equivalence classes",
            fmt=("text", "json"))
    p.add_argument("--n", type=int)
    p.add_argument("--histogram", action="store_true")
    p.add_argument("--members", metavar="PNF",
                   help="list the words in this normal form's class")
    p.add_argument("--jobs", type=int, default=1)

    p = add("region", cmd_region, "render the factor region as SVG")
    p.add_argument("word")
    p.add_argument("-o", "--output", help="write SVG here (default stdout)")
    p.add_argument("--csv", metavar="FILE", help="also write the region CSV")
    p.add_argument("--suffix-paths", action="store_true")
    p.add_argument("--unit", type=int, default=16, help="pixels per step")

    p = add("verify-tables", cmd_census,
            "recompute the reference tables; exit 1 on any mismatch",
            parents=())
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if sys.stdout is None and not getattr(args, "output", None):
            raise OSError("stdout is closed")  # print would drop the output
        return args.handler(args)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
