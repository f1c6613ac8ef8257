"""Command-line interface: every operation as a scriptable subcommand.

Exit codes: 0 for success and positive verdicts, 1 for negative verdicts
(not-normal, absent, failed verification), 2 for usage errors.  Word
arguments accept ``-`` to read words from stdin, one per line.  Output is
deterministic: identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import census, geometry, jpm, lyndon, pnf, profiles
from .words import complement_counts, parse_word


def _read_words(arg: str, alphabet: str) -> list[str]:
    if arg != "-":
        return [parse_word(arg, alphabet)]
    words = []
    for line in sys.stdin:
        line = line.strip()
        if line:
            words.append(parse_word(line, alphabet))
    return words


def _columns_table(rows: list[tuple[str, list[object]]]) -> str:
    """Rows of (label, cells) printed as aligned columns."""
    labels = [label for label, _ in rows]
    label_w = max(len(s) for s in labels)
    widths = [max(len(str(row[1][i])) for row in rows)
              for i in range(len(rows[0][1]))]
    lines = []
    for label, cells in rows:
        cols = "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))
        lines.append(f"{label.ljust(label_w)}  {cols}")
    return "\n".join(lines)


def cmd_pnf(args) -> int:
    for w in _read_words(args.word, args.alphabet):
        pair = pnf.pnf_pair(w)
        if args.format == "json":
            print(json.dumps({"word": w, "pnfA": pair.pnf_a,
                              "pnfB": pair.pnf_b}))
        else:
            print(f"PNF_a: {pair.pnf_a}")
            print(f"PNF_b: {pair.pnf_b}")
    return 0


def cmd_test(args) -> int:
    worst = 0
    for w in _read_words(args.word, args.alphabet):
        witness = pnf.normality_witness(w)
        if args.format == "json":
            print(json.dumps({"word": w, "normal": witness is None,
                              "witness": witness}))
        elif witness is None:
            print("normal")
        else:
            print("not-normal")
            print(f"witness: {witness}")
        if witness is not None:
            worst = 1
    return worst


def cmd_profiles(args) -> int:
    for w in _read_words(args.word, args.alphabet):
        max_a, min_a = profiles.a_count_bounds(w)
        max_b = complement_counts(min_a)
        if args.format == "json":
            print(json.dumps({"n": len(w), "Fa": max_a, "Fb": max_b,
                              "fa": min_a}))
        else:
            ks = list(range(len(w) + 1))
            print(_columns_table([("k", ks), ("F_a", max_a),
                                  ("F_b", max_b)]))
    return 0


def cmd_query(args) -> int:
    w = parse_word(args.word, args.alphabet)
    ix = jpm.build_index(w)
    return _report_query(ix, args.x, args.y)


def _report_query(ix: jpm.JumbledIndex, x: int, y: int) -> int:
    if jpm.query(ix, (x, y)):
        print("occurs")
        return 0
    print("absent")
    return 1


def cmd_index(args) -> int:
    if args.index_cmd == "build":
        w = parse_word(args.word, args.alphabet)
        doc = jpm.index_to_json(jpm.build_index(w))
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(doc + "\n")
        else:
            print(doc)
        return 0
    with open(args.file, encoding="utf-8") as fh:
        ix = jpm.index_from_json(fh.read())
    if args.index_cmd == "query":
        return _report_query(ix, args.x, args.y)
    pair = jpm.pnf_from_index(ix)
    print(f"PNF_a: {pair.pnf_a}")
    print(f"PNF_b: {pair.pnf_b}")
    return 0


def cmd_classify(args) -> int:
    for w in _read_words(args.word, args.alphabet):
        c = lyndon.classify(w)
        print(json.dumps({
            "is_lyndon": c.is_lyndon,
            "is_necklace": c.is_necklace,
            "is_pre_necklace": c.is_pre_necklace,
            "is_prefix_normal": c.is_prefix_normal,
        }))
    return 0


def cmd_enumerate(args) -> int:
    rows = census.counts_table(args.max_n, what=args.what, jobs=args.jobs)
    if args.format == "json":
        print(json.dumps([
            {"n": r.n, "prefixNormal": r.count_prefix_normal,
             "preNecklace": r.count_pre_necklace} for r in rows]))
    elif args.format == "csv":
        print("n,prefix_normal,pre_necklace")
        for r in rows:
            a = "" if r.count_prefix_normal is None else r.count_prefix_normal
            b = "" if r.count_pre_necklace is None else r.count_pre_necklace
            print(f"{r.n},{a},{b}")
    else:
        table = [("n", [r.n for r in rows])]
        if args.what != "prenecklace":
            table.append(("prefix-normal",
                          [r.count_prefix_normal for r in rows]))
        if args.what != "pnf":
            table.append(("pre-necklace",
                          [r.count_pre_necklace for r in rows]))
        print(_columns_table(table))
    return 0


def cmd_classes(args) -> int:
    if args.members is not None:
        rep = parse_word(args.members, args.alphabet)
        if args.n is not None and args.n != len(rep):
            raise ValueError(f"--n {args.n} disagrees with the length of "
                             f"{rep!r}")
        members = census.class_members(rep)
        if args.format == "json":
            print(json.dumps({"pnf": rep, "members": members}))
        else:
            for m in members:
                print(m)
        return 0
    if args.n is None:
        raise ValueError("either --n or --members is required")
    result = census.class_census(args.n, jobs=args.jobs)
    if args.format == "json":
        doc = {"n": result.n, "classes": result.classes}
        if args.histogram:
            doc["histogram"] = {str(k): v
                                for k, v in result.histogram().items()}
        print(json.dumps(doc))
        return 0
    for rep, size in result.classes.items():
        print(f"{rep} {size}")
    if args.histogram:
        print("size classes")
        for size, count in result.histogram().items():
            print(f"{size} {count}")
    return 0


def cmd_region(args) -> int:
    w = parse_word(args.word, args.alphabet)
    svg = geometry.render_svg(w, unit=args.unit,
                              suffix_paths=args.suffix_paths)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(geometry.region_csv(w))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
    else:
        sys.stdout.write(svg)
    return 0


def cmd_verify_tables(args) -> int:
    report = census.verify_tables(max_n=args.max_n, jobs=args.jobs)
    for cell in report.cells:
        if cell.ok:
            print(f"ok   {cell.label}")
        else:
            print(f"FAIL {cell.label}: expected {cell.expected}, "
                  f"got {cell.actual}")
    good = len(report.cells) - len(report.failures)
    print(f"{good}/{len(report.cells)} cells match")
    return 0 if report.all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefixnormal",
        description="Prefix normal forms of binary words and "
                    "jumbled-pattern-matching queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alphabet", choices=("ab", "binary"), default="ab",
                        help="input alphabet: a/b, or 0/1 with 1 as a")

    def add(name, handler, help_, parents=(common,), fmt=None):
        p = sub.add_parser(name, parents=list(parents), help=help_)
        p.set_defaults(handler=handler)
        if fmt:
            p.add_argument("--format", choices=fmt, default=fmt[0])
        return p

    p = add("pnf", cmd_pnf, "print both prefix normal forms",
            fmt=("text", "json"))
    p.add_argument("word", help="word, or - to read words from stdin")

    p = add("test", cmd_test, "test prefix normality; exit 1 when not",
            fmt=("text", "json"))
    p.add_argument("word", help="word, or - to read words from stdin")

    p = add("profiles", cmd_profiles, "per-length factor count table",
            fmt=("text", "json"))
    p.add_argument("word", help="word, or - to read words from stdin")

    p = add("query", cmd_query, "does a factor with x a's and y b's occur")
    p.add_argument("word")
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)

    p = add("classify", cmd_classify,
            "Lyndon/necklace/pre-necklace/prefix-normal bits as JSON")
    p.add_argument("word", help="word, or - to read words from stdin")

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

    p = add("enumerate", cmd_enumerate, "count words per length",
            parents=(), fmt=("text", "csv", "json"))
    p.add_argument("--max-n", type=int, default=16)
    p.add_argument("--what", choices=("pnf", "prenecklace", "both"),
                   default="both")
    p.add_argument("--jobs", type=int, default=1)

    p = add("classes", cmd_classes, "normal-form equivalence classes",
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

    p = add("verify-tables", cmd_verify_tables,
            "recompute the reference tables; exit 1 on any mismatch",
            parents=())
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
