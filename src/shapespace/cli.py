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
from .explore import SETTINGS, ExploreConfig, ExploreError, explore, stats_report
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
    # The settings' choices and defaults are those of explore.py.
    ex.add_argument("--engine", choices=SETTINGS["engine"], default=ExploreConfig.engine)
    ex.add_argument("--strategy", choices=SETTINGS["strategy"],
                    default=ExploreConfig.strategy)
    ex.add_argument("--subsumption", choices=("on", "off"),
                    default="on" if ExploreConfig.subsumption else "off")
    ex.add_argument("--mode", choices=SETTINGS["mode"], default=ExploreConfig.mode)
    ex.add_argument("--max-states", type=int, metavar="N")
    ex.add_argument("--max-depth", type=int, metavar="N",
                    help="do not expand states beyond this depth")
    ex.add_argument("--timeout", type=float, metavar="SECS")
    ex.add_argument("--stats-csv", metavar="PATH")
    ex.add_argument("--dot", metavar="PATH",
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
        print(stats_report(stats, "table"), end="")
        if args.stats_csv:
            Path(args.stats_csv).write_text(stats_report(stats, "csv"),
                                            encoding="utf-8")
        if args.dot:
            Path(args.dot).write_text(transition_system_dot(ts, name=grammar.name),
                                      encoding="utf-8")
    except (ExploreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if stats.complete else 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
