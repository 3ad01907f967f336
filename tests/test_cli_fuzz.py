"""Exit-code contract of the CLI over generated configuration files.

A derandomized hypothesis property edits a few keys of a shipped cycle
configuration to non-finite, subnormal, huge, near-degenerate or malformed
values and runs ``cli.main`` in process.  Every run ends in exit 0, 1, 2 or 3
with no exception escaping, and a run that exits 0 writes a CSV row whose
every number is finite, except a NaN figure of merit under a status other
than ``ok``.  The same holds for the run with ``--format json``, whose
output at exit 0 holds no ``Infinity`` or ``NaN`` but that figure of merit.
At exit 0 in the exact regime mode, one drawn stroke time of the JSON
``timing`` block lies within 100 x ``rel_tol`` of the 30-digit mpmath oracle,
wherever that oracle can judge it.  The examples are inputs that once broke
this contract.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qstirling.cli import main
from qstirling.config import load_run_config
from qstirling.cycles import Mode
from qstirling.timing import _strokes
from conftest import mp_isochoric_time, mp_isothermal_time

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
BASES = ("engine_lowtemp.ini", "engine_hightemp_bosonic.ini", "fridge_lowtemp.ini")
TEXTS = {name: (CONFIG_DIR / name).read_text(encoding="utf-8") for name in BASES}
KEY_LINE = re.compile(r"^(\w+) = (.*)$", re.MULTILINE)
# keys the property edits; cycle.kind and output.format stay as shipped
FIXED_KEYS = {"kind", "format"}
WORDS = {
    "statistics": ("bosonic", "fermionic", "Fermionic", "anyonic", ""),
    "regime_mode": ("exact", "low_temp", "high_temp", "HIGH_TEMP", "cold"),
    "max_subdivisions": ("1", "2", "200", "0", "-1", "2.5", "1e3"),
    "particle_count": ("1", "7", "0", "-3", "2.5", "1" + "0" * 308, "1" + "0" * 400),
}
SPECIAL = ("nan", "inf", "-inf", "0", "-0.0", "-1", "5e-324", "1e-310", "1e-300", "1e-200",
           "1e200", "1e300", "1e308", "1.7976931348623157e308", "0.9999999999999999",
           "1.0000000000000002", "", "abc", "1e", "0x10", "1_000", "--1")


def _keys(base: str) -> dict:
    return {key: value for key, value in KEY_LINE.findall(TEXTS[base])
            if key not in FIXED_KEYS}


@st.composite
def configs(draw):
    """(base config name, {key: replacement value text}) with up to four edits."""
    base = draw(st.sampled_from(BASES))
    keys = _keys(base)
    edits = {}
    for key in draw(st.lists(st.sampled_from(sorted(keys)), max_size=4, unique=True)):
        if key in WORDS:
            edits[key] = draw(st.sampled_from(WORDS[key]))
            continue
        value = float(keys[key])
        neighbours = [repr(math.nextafter(value, math.inf)), repr(math.nextafter(value, 0.0)),
                      repr(value * 1e-300), repr(value * 1e300)]
        edits[key] = draw(st.one_of(st.sampled_from(SPECIAL), st.sampled_from(neighbours),
                                    st.floats().map(repr)))
    return base, edits


def _edited(base: str, edits: dict) -> str:
    return KEY_LINE.sub(lambda m: f"{m[1]} = {edits.get(m[1], m[2])}", TEXTS[base])


def _check_row(out: str):
    header, row, *rest = out.splitlines()
    assert rest == []
    fields = dict(zip(header.split(","), row.split(",")))
    status = fields.pop("status")
    merit = "eta" if "eta" in fields else "epsilon"
    for name, text in fields.items():
        value = float(text)
        if not math.isfinite(value):
            assert name == merit and math.isnan(value) and status != "ok", (name, text, status)


def _non_finite(value, path=()):
    """(key path, value) of every number in a parsed JSON document that is not finite."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _non_finite(item, (*path, index))
    elif isinstance(value, float) and not math.isfinite(value):
        yield path, value


def _check_json(out: str):
    payload = json.loads(out)  # reads the NaN and Infinity tokens json.dumps writes
    merit = "eta" if payload["kind"] == "engine" else "epsilon"
    for path, value in _non_finite(payload):
        assert path == ("performance", merit) and math.isnan(value), (path, value)
        assert payload["status"] != "ok", (path, value)


def _check_stroke_time(path: Path, timing: dict, stroke: int):
    cfg = load_run_config(str(path))
    if cfg.mode is not Mode.EXACT:
        return
    _, isotherm, held, start, end, by = list(_strokes(cfg.spec, cfg.regen))[stroke]
    oracle = mp_isothermal_time if isotherm else mp_isochoric_time
    try:
        expected = oracle(cfg.spec.stat, cfg.model, by, held, start, end, dps=30)
    except ArithmeticError:  # the oracle cannot judge this stroke
        return
    if not math.isfinite(expected):  # past the float range: no float to compare with
        return
    got = timing[f"t{stroke + 1}"]
    assert abs(got - expected) <= 100.0 * cfg.quad.rel_tol * expected, (stroke, got, expected)


def _run(command: str, path: Path, out_format: str) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([command, "--config", str(path), "--format", out_format])
    return rc, out.getvalue(), err.getvalue()


HIGHTEMP = "engine_hightemp_bosonic.ini"
HIGHTEMP_BETAS = {"beta1": "1e-310", "beta2": "2e-310"}


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=configs(), stroke=st.integers(0, 3))
@example(case=("engine_lowtemp.ini", {"beta1": "1e-300"}), stroke=1)
@example(case=("engine_lowtemp.ini", {"beta1": "1e-310"}), stroke=2)
@example(case=("engine_lowtemp.ini", {"omega1": "1e-10", "beta1": "1e-300"}), stroke=3)
@example(case=("engine_lowtemp.ini", {"omega2": "1e308"}), stroke=0)
@example(case=("engine_lowtemp.ini", {"omega2": "1e308", "regime_mode": "low_temp"}), stroke=1)
@example(case=("engine_lowtemp.ini", {"alpha_c": "1.0000000000000002"}), stroke=2)
@example(case=("engine_lowtemp.ini", {"particle_count": "1" + "0" * 400}), stroke=3)
@example(case=(HIGHTEMP, {"particle_count": "1" + "0" * 308}), stroke=0)
@example(case=(HIGHTEMP, {"omega1": "1e-200", "omega2": "2e-200",
                          "regime_mode": "high_temp"}), stroke=1)
@example(case=(HIGHTEMP, {"statistics": "fermionic", "omega1": "1e200", "omega2": "2e200",
                          "regime_mode": "high_temp"}), stroke=2)
@example(case=(HIGHTEMP, {**HIGHTEMP_BETAS, "omega1": "1e300", "omega2": "2e300",
                          "regime_mode": "low_temp"}), stroke=3)
@example(case=(HIGHTEMP, {**HIGHTEMP_BETAS, "omega1": "1e300", "omega2": "2e300"}), stroke=0)
@example(case=("engine_lowtemp.ini", {"gamma1": "1e308"}), stroke=1)
@example(case=("engine_lowtemp.ini", {"a": "1e-300", "omega1": "1e-300"}), stroke=2)
@example(case=("engine_lowtemp.ini", {"statistics": "fermionic", "omega1": "1e-310",
                                      "gamma1": "1.0000000000000002"}), stroke=3)
@example(case=("fridge_lowtemp.ini", {"omega1": "5e-324"}), stroke=0)
def test_cli_exit_contract(case, stroke):
    base, edits = case
    command = "fridge" if base.startswith("fridge") else "engine"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(_edited(base, edits), encoding="utf-8")
        runs = {fmt: _run(command, path, fmt) for fmt in ("csv", "json")}
        for fmt, (rc, out, err) in runs.items():
            assert rc in (0, 1, 2, 3)
            if rc == 0:
                (_check_row if fmt == "csv" else _check_json)(out)
            else:
                assert out == ""
                assert err.startswith("error: ")
        rc, out, _ = runs["json"]
        if rc == 0:
            _check_stroke_time(path, json.loads(out)["timing"], stroke)
