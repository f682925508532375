"""The README's library sketch runs against the current API, and its flag
table lists the parser's flags."""

import re
from pathlib import Path

from test_options import cli_flags

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under 'Library sketch'"
    exec(compile(block.group(1), str(README), "exec"), {})


def flag_table():
    """(subcommand, flag) for each flag the README's flag table names: the
    subcommands in a row's first cell, the flags in its second."""
    text = README.read_text(encoding="utf-8")
    section = text.split("Optional flags follow the subcommand", 1)[1]
    rows = re.findall(r"^\|(.*?)\|(.*?)\|$", section.split("\n\n")[1], re.M)
    assert rows, "no table after 'Optional flags follow the subcommand'"
    return [(name, flag) for names, flags in rows
            for name in re.findall(r"`([a-z]+)`", names)
            for flag in re.findall(r"`(--[a-z-]+)", flags)]


def test_flag_table_matches_the_parser():
    # a flag added to or dropped from a subcommand is a README edit too
    assert sorted(set(flag_table())) == sorted(cli_flags())
