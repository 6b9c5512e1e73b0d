"""The README's command and configuration tables list what the code accepts."""

import argparse
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re
import typing

import pytest

import zrbr
from zrbr.cli import build_parser
from zrbr.config import SimConfig
from zrbr.errors import ConfigurationError
from zrbr.harness import config_from_dict
from zrbr.model import ModelParams

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def table_rows(heading):
    """(names, second cell) per row of the first table under a heading: the
    backquoted names in its first column, as one row may name several
    (`sigma2`, `W`, `D`), and the text of its second column."""
    text = README.read_text()
    section = text[text.index(heading + "\n"):]
    rows = re.search(r"((?:^\|.*\n)+)", section, re.M).group(1).splitlines()[2:]
    return [(re.findall(r"`([^`]+)`", row.split("|")[1]), row.split("|")[2].strip())
            for row in rows]


def table_names(heading):
    return [name for names, _ in table_rows(heading) for name in names]


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


# How the configuration table writes each annotated type.
TYPE_TEXT = {int: "int", float: "float", str: "str", bool: "bool", tuple: "list"}


def test_config_table_types_match_the_annotations():
    hints = {**typing.get_type_hints(SimConfig), **typing.get_type_hints(ModelParams)}
    for names, cell in table_rows("### Configuration file"):
        for name in names:
            kinds = typing.get_args(hints[name]) or (hints[name],)
            text = TYPE_TEXT[kinds[0]] + (" or null" if type(None) in kinds else "")
            assert cell == text, f"{name}: the table says {cell!r}, the annotation {text!r}"


# The package and every module in it, where a name in "Removed API" is looked up.
MODULES = [zrbr] + [importlib.import_module(f"zrbr.{m.name}")
                    for m in pkgutil.iter_modules(zrbr.__path__)]


def removed_api():
    """(dotted names, (callable, parameter) pairs) that the bullets of
    "Removed API" name as removed: the whole code spans before a bullet's
    first ": " or ". ", like `spectral.HALF`, `Class.attr`, `f(param=)` or
    `module.f(args)`."""
    text = README.read_text()
    section = text[text.index("### Removed API\n"):]
    section = section[:section.index("\n## ")]
    names, params = [], []
    for bullet in re.split(r"\n- ", section)[1:]:
        bullet = " ".join(bullet.split())
        head = re.match(r"(?:`[^`]*`|[^`])*?(?:: |\. |$)", bullet).group(0)
        for span in re.findall(r"`([^`]+)`", head):
            m = re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\((.*)\))?", span)
            if m is None:
                continue
            name, args = m.groups()
            if args is not None and re.fullmatch(r"\w+=", args):
                params.append((name, args[:-1]))
            elif "." in name:
                names.append(name)
    return names, params


def lookup(dotted):
    """The object a dotted name stands for, its first part looked up on the
    package and then on each module; None when a part does not resolve."""
    first, *rest = dotted.split(".")
    obj = next((getattr(m, first) for m in MODULES if hasattr(m, first)), None)
    for part in rest:
        if obj is None:
            return None
        fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else ()
        if not hasattr(obj, part) and part not in fields:
            return None
        obj = getattr(obj, part, dataclasses.MISSING)
    return obj


def test_removed_api_is_gone():
    names, params = removed_api()
    # the parse finds what the list names, old and new
    assert {"spectral.Multiplier", "SourceSymbols.omega_inv", "spectral.HALF", "Grid.half_shape",
            "spectral.sup_bound", "Trajectory.store_states", "ZRState.rho_t",
            "ZRState.phi_t", "evolution.smooth_cutoff"} <= set(names)
    assert {("picard_iterate", "burn_in"), ("spectral.zero_field", "space"),
            ("Trajectory.record", "spectral")} <= set(params)
    for name in names:
        owner = name.rpartition(".")[0]
        assert lookup(owner) is not None, f"{owner} names nothing"
        assert lookup(name) is None, f"{name} is listed as removed but resolves"
    for name, param in params:
        f = lookup(name)
        assert callable(f), f"{name} names nothing callable"
        assert param not in inspect.signature(f).parameters, f"{name}({param}=) is listed as removed"
