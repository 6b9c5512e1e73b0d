"""The README's command and configuration tables list what the code accepts."""

import argparse
import dataclasses
import pathlib
import re

import pytest

from zrbr.cli import build_parser
from zrbr.config import SimConfig
from zrbr.errors import ConfigurationError
from zrbr.harness import config_from_dict
from zrbr.model import ModelParams

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def table_names(heading):
    """The backquoted names in the first column of the first table under a
    heading; one row may name several, as `sigma2`, `W`, `D`."""
    text = README.read_text()
    section = text[text.index(heading + "\n"):]
    rows = re.search(r"((?:^\|.*\n)+)", section, re.M).group(1).splitlines()[2:]
    return [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]


def test_command_table_lists_every_subcommand():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    names = table_names("## Command line")
    assert sorted(names) == sorted(sub.choices)
    assert len(names) == len(set(names))


def test_config_table_lists_every_key():
    names = table_names("### Configuration file")
    assert len(names) == len(set(names))
    fields = {f.name for f in dataclasses.fields(ModelParams) + dataclasses.fields(SimConfig)}
    assert set(names) == fields - {"params"}
    # config_from_dict names every unknown key before it reads any value.
    with pytest.raises(ConfigurationError, match=r"^unknown config keys: zz_not_a_key$"):
        config_from_dict({**dict.fromkeys(names), "zz_not_a_key": 0})
