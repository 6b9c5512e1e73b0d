"""Every input dataclass checks its fields' types on construction, from a
config file and from Python alike.

The wrong values are generated from the annotations, so a new field is
covered without a new case: a bool for a number, a string for a number or a
bool, None where the annotation has no `| None`, and inf and nan for a
float.  Each raises ConfigurationError naming the field, and a config-file
key that gets one makes the command exit 2.
"""

import json
import re
import typing

import numpy as np
import pytest

from zrbr.bourgain import (
    SCHRODINGER,
    linear_estimate_ratio,
    mixed_norm,
    random_band_limited,
    spatial_sobolev_sup,
    strichartz_ratio,
    xsb_norm,
    ys_norm,
)
from zrbr.cli import main
from zrbr.config import SimConfig
from zrbr.errors import ConfigurationError, ContractViolationError, PreconditionError
from zrbr.evolution import picard_iterate
from zrbr.exponents import ExponentParams, derive, region_scan
from zrbr.harness import EXIT_VALIDATION, cmd_epsilon_scaling, cmd_picard, initial_plus_minus
from zrbr.model import ModelParams
from zrbr.spectral import Grid

# A valid construction of each class, as keyword arguments.
VALID = {
    SimConfig: {},
    ModelParams: {},
    Grid: {"dim": 2, "n": 16, "length": 2 * np.pi},
    ExponentParams: {"b1": 0.8, "b2": 0.1, "d": 2},
}
# The name a field's messages use where it is not the field's own: Grid's
# count check names n by what it counts.
LABELS = {(Grid, "n"): "points per axis"}


def wrong_values(hint) -> list:
    """The values the annotation hint rejects, one of each kind."""
    kinds = typing.get_args(hint) or (hint,)
    wrong = [] if type(None) in kinds else [None]
    if kinds[0] in (int, float):
        wrong.append(True)
    if kinds[0] in (int, float, bool):
        wrong.append("1")
    if kinds[0] is float:
        wrong += [float("inf"), float("nan")]
    return wrong


CASES = [
    pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
    for cls in VALID
    for name, hint in typing.get_type_hints(cls).items()
    for value in wrong_values(hint)
]


@pytest.mark.parametrize("cls, name, value", CASES)
def test_wrong_type_is_named(cls, name, value):
    label = LABELS.get((cls, name), name)
    with pytest.raises(ConfigurationError, match=f"^{label} must be "):
        cls(**{**VALID[cls], name: value})


CONFIG_KEYS = sorted(set(typing.get_type_hints(ModelParams))
                     | set(typing.get_type_hints(SimConfig)) - {"params"})


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_wrong_type_in_a_config_file_exits_2(tmp_path, capsys, key):
    hint = {**typing.get_type_hints(SimConfig), **typing.get_type_hints(ModelParams)}[key]
    for value in wrong_values(hint):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 16, "t_end": 0.01, key: value}))
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out), "simulate"]) == EXIT_VALIDATION
        assert f"{key} must be " in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("make, message", [
    # "no" is true, so the run was dealiased
    (lambda: SimConfig(dealias="no"), "^dealias must be true or false, got 'no'$"),
    (lambda: SimConfig(params="x"), "^params must be a ModelParams, got 'x'$"),
    # True ran as b1 = 1.0
    (lambda: derive(True, 0.1, 2), "^b1 must be a number, got True$"),
    # a raw numpy TypeError
    (lambda: derive("0.7", 0.1, 2), "^b1 must be a number, got '0.7'$"),
], ids=["dealias-no", "params-x", "derive-true", "derive-string"])
def test_reported_inputs(make, message):
    with pytest.raises(ConfigurationError, match=message):
        make()


def test_numbers_of_other_kinds_are_accepted():
    cfg = SimConfig(length=12, dt=np.float32(0.5), t_end=np.int64(1), mode=[1, 0],
                    params=ModelParams(D=0, epsilon=np.float64(0.5)))
    assert cfg.grid == Grid(2, 64, 12.0)
    assert derive(np.float64(0.8), 0, np.int64(3)).b0 == 0.8


# A scalar argument of a library call is checked by check_types' rule for a
# float: an int or a numpy number stands for one, a bool never does, and it
# is finite.
PICARD_CFG = SimConfig(n=16, length=4 * np.pi, t_end=0.0, normalize_h1=1e-3)


@pytest.mark.parametrize("call, message", [
    # raw TypeErrors
    (lambda out: region_scan(2, "0.001"), "^resolution must be a finite number, got '0.001'$"),
    (lambda out: region_scan(2, None), "^resolution must be a finite number, got None$"),
    (lambda out: region_scan(2, [1e-3]), r"^resolution must be a finite number, got \[0.001\]$"),
    # read as 1.0 and refused only by the range check
    (lambda out: region_scan(2, True), "^resolution must be a finite number, got True$"),
    (lambda out: picard_iterate(initial_plus_minus(PICARD_CFG), "0.1", 2, PICARD_CFG.params),
     "^T must be a finite number, got '0.1'$"),
    # ran and reported T = True
    (lambda out: picard_iterate(initial_plus_minus(PICARD_CFG), True, 2, PICARD_CFG.params),
     "^T must be a finite number, got True$"),
    # ran epsilon = 2.0 and 1.0
    (lambda out: cmd_epsilon_scaling(PICARD_CFG, {}, ["2.0", True], out),
     "^epsilon must be a finite number, got '2.0'$"),
    (lambda out: cmd_epsilon_scaling(PICARD_CFG, {}, [2.0, True], out),
     "^epsilon must be a finite number, got True$"),
    # reported T = 1.0
    (lambda out: cmd_picard(PICARD_CFG, {}, [True], 2, out, n_time=16),
     "^T must be a finite number, got True$"),
    (lambda out: cmd_picard(PICARD_CFG, {}, [0.1, float("nan")], 2, out, n_time=16),
     "^T must be a finite number, got nan$"),
], ids=["region-string", "region-none", "region-list", "region-true", "picard-string",
        "picard-true", "eps-string", "eps-true", "cmd-picard-true", "cmd-picard-nan"])
def test_scalar_arguments_are_named(tmp_path, call, message):
    out = tmp_path / "out"
    with pytest.raises(ConfigurationError, match=message):
        call(str(out))
    assert not out.exists()


def test_scalar_arguments_of_other_kinds_are_accepted(tmp_path):
    assert region_scan(2, np.float64(5e-3)).resolution == 5e-3
    _, report = cmd_picard(PICARD_CFG, {}, [np.float32(0.25), 1], 2, str(tmp_path), n_time=16)
    assert [row["T"] for row in report["payload"]["per_T"]] == [0.25, 1.0]
    assert (tmp_path / "picard.csv").read_text().splitlines()[1].startswith("0.25,")


# An int beyond the float range: float() of it overflows, and numpy's isfinite
# does not take it.
HUGE = 10**400


@pytest.mark.parametrize("call, name", [
    # numpy's TypeError
    (lambda: picard_iterate(initial_plus_minus(PICARD_CFG), HUGE, 2, PICARD_CFG.params), "T"),
    (lambda: region_scan(2, HUGE), "resolution"),
    (lambda: region_scan(2, -HUGE), "resolution"),
    # an OverflowError once a derived exponent met a float
    (lambda: derive(HUGE, 0.1, 2), "b1"),
    (lambda: SimConfig(width=HUGE), "width"),
    (lambda: ModelParams(W=HUGE), "W"),
], ids=["picard-T", "region", "region-negative", "derive", "sim-width", "model-W"])
def test_an_int_beyond_the_float_range_is_named(call, name):
    with pytest.raises(ConfigurationError, match=f"^{name} must be (a )?finite"):
        call()


@pytest.mark.parametrize("command", [["simulate"], ["picard", "--iters", "2", "--n-time", "8"]],
                         ids=["simulate", "picard"])
def test_an_int_beyond_the_float_range_in_a_config_file_exits_2(tmp_path, capsys, command):
    # both commands exited 1 with a raw OverflowError
    path = tmp_path / "cfg.json"
    path.write_text('{"n": 16, "t_end": 0.01, "width": 1' + "0" * 400 + "}")
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), *command]) == EXIT_VALIDATION
    assert "width must be finite" in capsys.readouterr().err
    assert not out.exists()


# The scalar arguments of the space-time API, by the same rule.  A bool ran
# as 1 (or, for b and b', out of range, was refused as a PreconditionError);
# a string ended in numpy's TypeError.  A key names the argument, after the
# call's name where two calls share it.
SPACE_TIME_GRID = Grid(2, 16, 2 * np.pi)
SOURCE = random_band_limited(SPACE_TIME_GRID, 2.5, 32, 0)
SPACE_TIME_CALLS = {
    "t_half": lambda v: random_band_limited(SPACE_TIME_GRID, v, 32, 0),
    "T": lambda v: linear_estimate_ratio(SOURCE, v, 1.0, 0.6, -0.35, SCHRODINGER),
    "s": lambda v: linear_estimate_ratio(SOURCE, 0.5, v, 0.6, -0.35, SCHRODINGER),
    "b": lambda v: linear_estimate_ratio(SOURCE, 0.5, 1.0, v, -0.35, SCHRODINGER),
    "b_prime": lambda v: linear_estimate_ratio(SOURCE, 0.5, 1.0, 0.6, v, SCHRODINGER),
    "q": lambda v: mixed_norm(SOURCE, v, 2),
    "r": lambda v: mixed_norm(SOURCE, 2, v),
    "strichartz-T": lambda v: strichartz_ratio(SOURCE, 0.6, 0.6, 1.0, 1.0, 0.6, T=v),
    "a": lambda v: strichartz_ratio(SOURCE, v, 0.6, 1.0, 1.0, 0.6, T=0.5),
    "a_prime": lambda v: strichartz_ratio(SOURCE, 0.6, v, 1.0, 1.0, 0.6, T=0.5),
    "gamma": lambda v: strichartz_ratio(SOURCE, 0.6, 0.6, v, 1.0, 0.6, T=0.5),
    "eta": lambda v: strichartz_ratio(SOURCE, 0.6, 0.6, 1.0, v, 0.6, T=0.5),
    "b0": lambda v: strichartz_ratio(SOURCE, 0.6, 0.6, 1.0, 1.0, v, T=0.5),
}


@pytest.mark.parametrize("value", [True, "0.5"], ids=["bool", "string"])
@pytest.mark.parametrize("name", list(SPACE_TIME_CALLS))
def test_space_time_scalars_are_named(name, value):
    argument = name.rpartition("-")[2]
    with pytest.raises(ConfigurationError,
                       match=f"^{argument} must be a finite number, got {re.escape(repr(value))}$"):
        SPACE_TIME_CALLS[name](value)


@pytest.mark.parametrize("value", [True, "1.0", None])
@pytest.mark.parametrize("norm", [
    lambda s: xsb_norm(SOURCE, s, 0.6, SCHRODINGER),
    lambda s: ys_norm(SOURCE, s, SCHRODINGER),
    lambda s: spatial_sobolev_sup(SOURCE, s),
], ids=["xsb", "ys", "sobolev"])
def test_norm_exponents_are_named(norm, value):
    with pytest.raises(ConfigurationError, match="^s must be a finite number, got "):
        norm(value)


def test_space_time_scalars_keep_their_range_errors():
    # numbers out of range raise as before, numbers of other kinds still run
    for t_half in (float("inf"), float("nan"), 0, -2.5):
        with pytest.raises(ContractViolationError, match="^window half-width"):
            random_band_limited(SPACE_TIME_GRID, t_half, 32, 0)
    for T in (float("inf"), float("nan"), 0.0, 1.5):
        with pytest.raises(PreconditionError, match="^need 0 < T <= 1"):
            linear_estimate_ratio(SOURCE, T, 1.0, 0.6, -0.35, SCHRODINGER)
    with pytest.raises(ConfigurationError, match="^s must be finite, got inf$"):
        linear_estimate_ratio(SOURCE, 0.5, float("inf"), 0.6, -0.35, SCHRODINGER)
    with pytest.raises(PreconditionError, match="^need b' <= 0"):
        linear_estimate_ratio(SOURCE, 0.5, 1.0, 0.6, 0.5, SCHRODINGER)
    # -inf ran as inf, the max over time
    for q in (-float("inf"), float("nan"), 0.5):
        with pytest.raises(ConfigurationError, match="^q must be >= 1 or inf, got "):
            mixed_norm(SOURCE, q, 2)
        with pytest.raises(ConfigurationError, match="^r must be >= 1 or inf, got "):
            mixed_norm(SOURCE, 2, q)
    for T in (float("inf"), float("nan"), 0.0, 1.5):
        with pytest.raises(PreconditionError, match="^need 0 < T <= 1"):
            strichartz_ratio(SOURCE, 0.6, 0.6, 1.0, 1.0, 0.6, T=T)
    with pytest.raises(ConfigurationError, match="^a_prime must be finite, got nan$"):
        strichartz_ratio(SOURCE, 0.6, float("nan"), 1.0, 1.0, 0.6, T=0.5)
    assert mixed_norm(SOURCE, np.int64(2), float("inf")) == mixed_norm(SOURCE, 2.0, np.inf)
    assert strichartz_ratio(SOURCE, 0.6, 0.6, np.int64(1), 1.0, 0.6, T=np.float32(0.5)) \
        == strichartz_ratio(SOURCE, 0.6, 0.6, 1.0, 1.0, 0.6, T=0.5)
    q = random_band_limited(SPACE_TIME_GRID, np.float32(2.5), 32, 0)
    assert q.t_half == 2.5 and type(q.t_half) is float
    ratio = linear_estimate_ratio(SOURCE, 0.5, 1.0, 0.6, -0.35, SCHRODINGER)
    assert linear_estimate_ratio(q, np.float64(0.5), np.int64(1), 0.6, -0.35,
                                 SCHRODINGER) == ratio
