"""Command-line front end.

Subcommands:
    explore <file>   run the exploration loop and report statistics
    abstract <file>  print the start graph's shape as DOT
    check <file>     parse and validate only

Exit codes: 0 complete run, 2 limit-tripped partial run, 1 error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dot import shape_dot, transition_system_dot
from .explore import ENGINES, ExploreConfig, ExploreError, explore, stats_report
from .grammar import GrammarError, load_bundled, parse_grammar
from .shapes import abstract


def _load(path_text: str):
    path = Path(path_text)
    if path.is_file():
        try:
            return parse_grammar(path.read_text(encoding="utf-8"), name=path.stem)
        except UnicodeDecodeError as exc:
            raise GrammarError(f"{path_text}: not UTF-8 text ({exc})") from None
    if not path.suffix and "/" not in path_text:
        return load_bundled(path_text)
    raise GrammarError(f"no such grammar file: {path_text}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapespace",
        description="Explore graph transformation state spaces, "
                    "concretely or through neighbourhood shapes.")
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("explore", help="run the exploration loop")
    ex.add_argument("grammar", help="grammar file (or bundled grammar name)")
    ex.add_argument("--engine", choices=ENGINES, default="abstract")
    ex.add_argument("--strategy", choices=("bfs", "dfs"), default="bfs")
    ex.add_argument("--subsumption", choices=("on", "off"), default="on")
    ex.add_argument("--mode", choices=("full", "reach"), default="full")
    ex.add_argument("--max-states", type=int, default=None, metavar="N")
    ex.add_argument("--max-depth", type=int, default=None, metavar="N",
                    help="do not expand states beyond this depth")
    ex.add_argument("--timeout", type=float, default=None, metavar="SECS")
    ex.add_argument("--stats-csv", default=None, metavar="PATH")
    ex.add_argument("--dot", default=None, metavar="PATH",
                    help="write the transition system as DOT")

    ab = sub.add_parser("abstract", help="print the start graph's shape as DOT")
    ab.add_argument("grammar")

    ck = sub.add_parser("check", help="parse and validate a grammar")
    ck.add_argument("grammar")
    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    try:
        grammar = _load(args.grammar)
    except (GrammarError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "check":
        print(f"{grammar.name}: {len(grammar.labels)} labels, "
              f"{len(grammar.start.nodes)} start nodes, "
              f"{len(grammar.rules)} rules: ok")
        return 0

    if args.command == "abstract":
        print(shape_dot(abstract(grammar.start), name=grammar.name), end="")
        return 0

    try:
        config = ExploreConfig(engine=args.engine, strategy=args.strategy,
                               subsumption=args.subsumption == "on",
                               mode=args.mode, max_states=args.max_states,
                               max_depth=args.max_depth, timeout=args.timeout)
        ts, stats = explore(grammar, config)
    except ExploreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(stats_report(stats, "table"), end="")
    try:
        if args.stats_csv:
            Path(args.stats_csv).write_text(stats_report(stats, "csv"),
                                            encoding="utf-8")
        if args.dot:
            Path(args.dot).write_text(transition_system_dot(ts, name=grammar.name),
                                      encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if stats.complete else 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
