"""Same answers: the deterministic count columns of every bundled
grammar under every engine/strategy/subsumption/mode setting.

The expected rows live in ``counts.csv`` next to this file.  A change
that moves one of them must say why the new number is right; the file
is rewritten with

    PYTHONPATH=src python tests/test_counts.py > tests/counts.csv
"""

import csv
import functools
import itertools
import pathlib
import sys

import pytest

from shapespace import ExploreConfig, bundled_grammar_names, explore, load_bundled

EXPECTED = pathlib.Path(__file__).with_name("counts.csv")
KEYS = ("grammar", "engine", "strategy", "subsumption", "mode")
COUNTS = ("generated", "subsumed", "relevant", "discarded",
          "transitions_generated", "transitions_relevant", "complete")


def configurations():
    for name, engine, strategy, subsumption, mode in itertools.product(
            bundled_grammar_names(), ("abstract", "concrete"), ("bfs", "dfs"),
            ("on", "off"), ("full", "reach")):
        yield dict(grammar=name, engine=engine, strategy=strategy,
                   subsumption=subsumption, mode=mode)


def counts(key):
    """The count columns of one capped run, as CSV text."""
    bound = ({"max_states": 60} if key["engine"] == "abstract"
             else {"max_states": 60, "max_depth": 6})
    _, st = explore(load_bundled(key["grammar"]), ExploreConfig(
        engine=key["engine"], strategy=key["strategy"],
        subsumption=key["subsumption"] == "on", mode=key["mode"], **bound))
    return {c: str(getattr(st, c)).lower() for c in COUNTS}


@functools.cache
def expected_rows():
    with EXPECTED.open(newline="") as f:
        return {tuple(row[k] for k in KEYS): row for row in csv.DictReader(f)}


CONFIGS = list(configurations())


def test_expected_rows_cover_every_configuration():
    assert set(expected_rows()) == {tuple(key.values()) for key in CONFIGS}


@pytest.mark.parametrize("key", CONFIGS, ids=lambda k: "-".join(k.values()))
def test_counts_unchanged(key):
    row = expected_rows()[tuple(key.values())]
    assert counts(key) == {c: row[c] for c in COUNTS}


if __name__ == "__main__":
    out = csv.DictWriter(sys.stdout, KEYS + COUNTS, lineterminator="\n")
    out.writeheader()
    for key in CONFIGS:
        out.writerow({**key, **counts(key)})
