"""Command line interface: config parsing, subcommands, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from functools import cache
from itertools import islice, product
from math import gcd, prod
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from csaclass import (AlgebraSpec, BaseField, OrderSpec, Place, class_number,
                      class_number_report, classnum, cli,
                      constant_field_degree, massform, theta)
from csaclass.classnum import GeneraReport
from csaclass.cli import (ConfigError, _dumps_indented, _emit, _fraction, main,
                          parse_config)
from csaclass.errors import IntegralityViolationError
from csaclass.massform import mass_hereditary
from csaclass.orders import genus_axes, normalize_invariant
from conftest import genus_reduce, per_genus, theta_columns

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIG_PATH = ROOT / "configs" / "dvg-example.json"
REACH_DIR = ROOT / "configs" / "reach"

# Every interpreter the tests start has src on its path and treats a
# DeprecationWarning as an error: a deprecated stdlib call in src/ fails a
# process-level test before it is removed.
SPAWN_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                 PYTHONWARNINGS="error::DeprecationWarning")


def spawn(*args, start=subprocess.run, **kwargs):
    """`python ARGS` in a fresh interpreter under SPAWN_ENV, by `start`
    (`subprocess.Popen` to stream); stdout and stderr are piped unless the
    caller sets them."""
    return start([sys.executable, *args], env=SPAWN_ENV,
                 **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE,
                    **kwargs})

GOLDEN_CONFIG = CONFIG_PATH.read_text(encoding="utf-8")

IWAHORI_CONFIG = json.dumps({
    "base": {"type": "rational_function_field", "q": 3},
    "degree": 2,
    "ramification": [
        {"place": "v0", "degree": 1, "invariant": "1/2"},
        {"place": "infinity", "invariant": "-1/2"},
        {"place": "w", "degree": 1},
    ],
    "order": {"invariants": {"w": [1, 1]}},
})


def test_parse_golden_config():
    config = parse_config(GOLDEN_CONFIG)
    spec = config.order.algebra
    assert spec.degree == 4
    assert spec.base.q == 3
    assert sorted(v.label for v in spec.finite_places) == ["T", "T+1", "T+2"]
    assert spec.infinity.local_index == 4
    assert spec.infinity.invariant_num == -1
    assert config.order.invariants == ()


def test_parse_iwahori_config():
    config = parse_config(IWAHORI_CONFIG)
    assert config.order.invariants == (("w", (1, 1)),)
    w = config.order.algebra.place("w")
    assert w.degree == 1 and w.local_index == 1


@pytest.mark.parametrize("mangle,needle", [
    (lambda d: d.pop("degree"), "degree"),
    (lambda d: d["base"].pop("q"), "base"),
    (lambda d: d["base"].update(type="bogus"), "base.type"),
    (lambda d: d["ramification"][0].update(invariant="x/y"),
     "ramification[0].invariant"),
    (lambda d: d["ramification"][0].pop("degree"), "ramification[0].degree"),
])
def test_parse_errors_name_the_field(mangle, needle):
    doc = json.loads(GOLDEN_CONFIG)
    mangle(doc)
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert any(needle in line for line in exc.value.errors)


def test_parse_accepts_an_integer_invariant():
    doc = json.loads(IWAHORI_CONFIG)
    doc["ramification"][2]["invariant"] = 0
    w = parse_config(json.dumps(doc)).order.algebra.place("w")
    assert (w.local_index, w.invariant_num) == (1, 0)


def test_parse_rejects_invalid_json():
    with pytest.raises(ConfigError) as exc:
        parse_config("{not json")
    assert any("JSON" in line for line in exc.value.errors)


def test_parse_rejects_broken_reciprocity():
    doc = json.loads(GOLDEN_CONFIG)
    del doc["ramification"][2]
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert any("algebra" in line for line in exc.value.errors)


def test_parse_rejects_bad_order_invariant():
    doc = json.loads(IWAHORI_CONFIG)
    doc["order"]["invariants"]["w"] = [1, 1, 1]  # exceeds capacity 2
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))


@pytest.fixture()
def golden_config_path(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(GOLDEN_CONFIG, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classnum_command(golden_config_path, capsys):
    code, out = run_cli(capsys, "--config", golden_config_path, "classnum")
    assert code == 0
    doc = json.loads(out)
    assert doc["s0"] == 4
    assert doc["mass"] == "169/5"
    assert doc["h"] == {"1": 64, "2": 14, "4": 4}
    assert doc["h_total"] == 82
    # rationals serialize as decimal strings, never floats
    assert doc["theta"]["2"] == {"T": "2", "T+1": "12", "T+2": "12"}
    assert doc["theta"]["4"] == {"T": "4", "T+1": "2", "T+2": "2"}


def test_mass_command(golden_config_path, capsys):
    code, out = run_cli(capsys, "--config", golden_config_path, "mass")
    assert code == 0
    assert json.loads(out) == {"mass": "169/5"}


def test_theta_command(golden_config_path, capsys):
    code, out = run_cli(capsys, "--config", golden_config_path,
                        "theta", "--place", "T+1", "--s", "2")
    assert code == 0
    assert json.loads(out) == {"place": "T+1", "s": 2, "theta": "12"}


def test_omega_command(golden_config_path, capsys):
    code, out = run_cli(capsys, "--config", golden_config_path,
                        "omega", "--place", "T", "--s", "4", "--list")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert len(doc["elements"]) == 4


def test_embed_command(golden_config_path, capsys):
    code, out = run_cli(capsys, "--config", golden_config_path,
                        "embed", "--s", "2")
    assert code == 0
    assert json.loads(out)["embeddings"] == 36


def test_transfer_command(golden_config_path, capsys):
    code, out = run_cli(capsys, "--config", golden_config_path,
                        "transfer", "--s", "2", "--s2", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["equal"] is True
    assert doc["lhs"] == doc["rhs"] == 8


def test_genera_command(tmp_path, capsys):
    path = tmp_path / "iwahori.json"
    path.write_text(IWAHORI_CONFIG, encoding="utf-8")
    code, out = run_cli(capsys, "--config", str(path), "genera")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3


# q = 4, n = 8: the Iwahori order at U and (2, 2, 2, 2) at V, both of
# degree 2.  transfer at (2, 8) sums over three distinct derived orders.
TRANSFER_CONFIG = json.dumps({
    "base": {"type": "rational_function_field", "q": 4},
    "degree": 8,
    "ramification": [
        {"place": "T", "degree": 1, "invariant": "1/8"},
        {"place": "infinity", "invariant": "-1/8"},
        {"place": "U", "degree": 2},
        {"place": "V", "degree": 2},
    ],
    "order": {"invariants": {"U": [1] * 8, "V": [2, 2, 2, 2]}},
})


def _count_solver_calls(monkeypatch):
    """Record each theta key the level solver asks for, and the degree and
    q of the centralizer of each M_s it asks for."""
    theta_keys, mass_keys = [], []
    real_theta, real_mass = classnum.theta, classnum._level_mass

    def counted_theta(place, f_vec, s, q, **budget):
        theta_keys.append((place.degree, place.local_index, tuple(f_vec),
                           s, q))
        return real_theta(place, f_vec, s, q, **budget)

    def counted_mass(spec, s):
        mass_keys.append((spec.degree // s, spec.base.q ** s))
        return real_mass(spec, s)

    monkeypatch.setattr(classnum, "theta", counted_theta)
    monkeypatch.setattr(classnum, "_level_mass", counted_mass)
    return theta_keys, mass_keys


def test_genera_computes_each_mass_and_theta_once(capsys, monkeypatch):
    # 100 genera reduce to several distinct orders of one algebra; M_s and
    # each theta factor are shared between them.
    theta_keys, mass_keys = _count_solver_calls(monkeypatch)
    code, out = run_cli(capsys, "--config",
                        str(ROOT / "configs" / "iwahori-two-places.json"),
                        "genera")
    assert code == 0
    assert json.loads(out)["count"] == 100
    assert theta_keys and len(theta_keys) == len(set(theta_keys))
    assert sorted(degree for degree, _ in mass_keys) == [1, 3]


def test_transfer_computes_each_mass_and_theta_once(tmp_path, capsys,
                                                    monkeypatch):
    # The lhs solve (s0 = 8) reads h_8 only, and the sum over every derived
    # order is solved on the same levels and reads M_8, the derived algebra's
    # M_4, from it: one mass of degree 1 for both sides, and 3 + 4 theta
    # keys, all at the one level each side reads.  A derived algebra would
    # ask again for that mass; a solve of every level would ask for masses
    # of degree 8/s and for 12 + 12 keys.
    theta_keys, mass_keys = _count_solver_calls(monkeypatch)
    path = tmp_path / "transfer.json"
    path.write_text(TRANSFER_CONFIG, encoding="utf-8")
    code, out = run_cli(capsys, "--config", str(path),
                        "transfer", "--s", "2", "--s2", "8")
    assert code == 0
    assert json.loads(out)["equal"] is True
    assert mass_keys == [(1, 4 ** 8)]
    assert len(theta_keys) == len(set(theta_keys)) == 7
    assert sorted({(s, q) for *_, s, q in theta_keys}) == [(4, 16), (8, 4)]


def test_selfcheck_command(golden_config_path, capsys):
    code, out = run_cli(capsys, "--config", golden_config_path, "selfcheck")
    assert code == 0
    assert json.loads(out)["all_passed"] is True


ROTATION_CONFIG = json.dumps({
    "base": {"type": "rational_function_field", "q": 3},
    "degree": 4,
    "ramification": [
        {"place": "T", "degree": 1, "invariant": "1/4"},
        {"place": "infinity", "invariant": "-1/4"},
        {"place": "U", "degree": 1},
    ],
    "order": {"invariants": {"U": [1, 1, 2]}},
})


@pytest.mark.parametrize("broken", [False, True])
def test_selfcheck_rotation_reaches_the_strip_count(tmp_path, capsys,
                                                    monkeypatch, broken):
    # The order stores (1, 1, 2); only the rotation check passes (1, 2, 1).
    real_counts = classnum.strip_counts

    def least_rotation_only(place, f_vec, s, **kwargs):
        counts = real_counts(place, f_vec, s, **kwargs)
        if tuple(f_vec) != normalize_invariant(f_vec):
            counts.update(islice(counts, 1))  # one element more
        return counts

    if broken:
        monkeypatch.setattr(classnum, "strip_counts", least_rotation_only)
    path = tmp_path / "rotation.json"
    path.write_text(ROTATION_CONFIG, encoding="utf-8")
    code, out = run_cli(capsys, "--config", str(path), "selfcheck")
    checks = json.loads(out)["checks"]
    assert checks["theta_engines_agree"] is True
    assert checks["rotation_invariance"] is not broken
    assert code == (1 if broken else 0)


def test_selfcheck_computes_each_theta_once(tmp_path, capsys, monkeypatch):
    theta_keys, _ = _count_solver_calls(monkeypatch)
    path = tmp_path / "rotation.json"
    path.write_text(ROTATION_CONFIG, encoding="utf-8")
    code, out = run_cli(capsys, "--config", str(path), "selfcheck")
    assert code == 0
    assert json.loads(out)["all_passed"] is True
    # s0 = 4: the solve asks for three levels at the places T and U.  The
    # strip sums ask only for keys at level 1 over 3^s: at s = 1 those are
    # the solve's own, at s = 2 and 4 only T's set is not empty.  So the
    # check at s > 1 never reads the factor it checks.
    assert len(theta_keys) == len(set(theta_keys)) == 8
    solve, strips = theta_keys[:6], theta_keys[6:]
    assert sorted({(s, q) for *_, s, q in solve}) == [(1, 3), (2, 3), (4, 3)]
    assert sorted((s, q) for *_, s, q in strips) == [(1, 9), (1, 81)]


# The Iwahori order at a place U of degree 3 in a degree-24 algebra over
# F_2(T): its set at s = 3 has 9,465,511,770 elements.
IW24D3_PATH = str(REACH_DIR / "iw24d3.json")


def test_selfcheck_strip_states_count_against_the_budget(capsys, monkeypatch):
    # The solve takes milliseconds; the strip count of the set at U and
    # s = 3 trips the budget at once, and no set is walked.  The least
    # budget that passes is 360.
    def walk(*args):
        raise AssertionError("selfcheck walked a set")

    monkeypatch.setattr(cli, "enumerate_omega", walk)
    started = time.monotonic()
    code = main(["--config", IW24D3_PATH, "--budget", "300", "selfcheck"])
    elapsed = time.monotonic() - started
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err == ("error: selfcheck: place 'U', s = 3: strip states "
                   "exceed budget of 300\n")
    assert elapsed < 1


# selfcheck counts each local set by its strips and walks none of them:
# the set above at s = 3, f_U = (2)^12 at a place of degree 4, and the
# Iwahori order of degree 48 at a place of degree 12, whose set at s = 12
# has 3.4e44 elements.  Each runs in a process under the default budget.
@pytest.mark.parametrize("name", ["iw24d3", "iw48d12", "x24d4"])
def test_selfcheck_reaches_large_iwahori_orders(name):
    started = time.monotonic()
    proc = spawn("-m", "csaclass.cli", "--config",
                 str(REACH_DIR / f"{name}.json"), "selfcheck",
                 text=True, timeout=10)
    elapsed = time.monotonic() - started
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["all_passed"] is True
    if name == "iw24d3":
        assert elapsed < 1


def test_selfcheck_catches_a_strip_count_off_at_one_key(capsys, monkeypatch):
    # At s = 3 the place U of degree 3 splits into l = 3 places above it;
    # one element more at that key alone fails theta_engines_agree.
    real_counts = classnum.strip_counts
    keys = []

    def off_at_l3(place, f_vec, s, **kwargs):
        counts = real_counts(place, f_vec, s, **kwargs)
        if (place.label, s) == ("U", 3):
            assert {len(key) for key in counts} == {3}
            keys.append(tuple(f_vec))
            counts.update(islice(counts, 1))
        return counts

    monkeypatch.setattr(classnum, "strip_counts", off_at_l3)
    code, out = run_cli(capsys, "--config", IW24D3_PATH, "selfcheck")
    checks = json.loads(out)["checks"]
    assert code == 1
    assert checks["theta_engines_agree"] is False
    assert checks["mass_consistency"] is True
    # f_U is its own rotation, so the rotation check reads the same count
    # and the key is counted once.
    assert keys == [(1,) * 24]


def test_selfcheck_forms_no_residue_power_for_one_entry_strips(tmp_path,
                                                              capsys,
                                                              monkeypatch):
    # A maximal order with a split place of degree 10^8 listed: every strip
    # has one entry and unit index 1, so no Q = q^(10^8 ...) is formed at U
    # or at the places above it.  The ramified place T forms its own.
    theta_module = sys.modules["csaclass.theta"]
    real_power = theta_module.residue_power

    def no_power(place, s, q):
        if place.degree > 1:
            raise AssertionError(f"residue power formed at {place.label}")
        return real_power(place, s, q)

    monkeypatch.setattr(theta_module, "residue_power", no_power)
    path = _write_config(tmp_path, {
        "base": {"type": "rational_function_field", "q": 3},
        "degree": 2,
        "ramification": [
            {"place": "T", "degree": 1, "invariant": "1/2"},
            {"place": "infinity", "invariant": "1/2"},
            {"place": "U", "degree": 10 ** 8},
        ],
    })
    code, out = run_cli(capsys, "--config", path, "selfcheck")
    assert code == 0
    assert json.loads(out)["all_passed"] is True


def test_selfcheck_reports_a_failed_resum(golden_config_path, capsys,
                                          monkeypatch):
    monkeypatch.setattr(classnum, "mass_hereditary",
                        lambda order, maximal=None: Fraction(1))
    code, out = run_cli(capsys, "--config", golden_config_path, "selfcheck")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks["mass_consistency"] is False
    assert checks["theta_engines_agree"] is True


def test_text_output(golden_config_path, capsys):
    code, out = run_cli(capsys, "--config", golden_config_path,
                        "--output", "text", "mass")
    assert code == 0
    assert out.strip() == 'mass: "169/5"'


def test_output_is_deterministic(golden_config_path, capsys):
    _, first = run_cli(capsys, "--config", golden_config_path, "classnum")
    _, second = run_cli(capsys, "--config", golden_config_path, "classnum")
    assert first == second


def test_exit_code_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    code = main(["--config", str(path), "classnum"])
    capsys.readouterr()
    assert code == 2


def test_exit_code_missing_file(capsys):
    code = main(["--config", "/nonexistent/config.json", "classnum"])
    capsys.readouterr()
    assert code == 2


def _iwahori_at_u(doc):
    # theta at U runs past a zero budget, so `embed` under `--budget 0`
    # shows whether it checks `--s` before it solves.
    doc["ramification"].append({"place": "U", "degree": 2})
    doc["order"] = {"invariants": {"U": [1, 1, 1, 1]}}


@pytest.mark.parametrize("mangle,argv,needle", [
    (None, ("theta", "--place", "X", "--s", "2"), "--place: unknown place 'X'"),
    (None, ("omega", "--place", "X", "--s", "2"), "--place: unknown place 'X'"),
    (lambda d: d["ramification"][0].update(degree="x"), ("classnum",),
     "ramification[0].degree: not an integer"),
    (lambda d: d["ramification"][3].update(degree=[1]), ("classnum",),
     "ramification[3].degree: not an integer"),
    (lambda d: d["ramification"][0].update(invariant="1/0"), ("classnum",),
     "ramification[0].invariant: not a fraction"),
    (lambda d: d.update(ramification={}), ("classnum",),
     "ramification: expected a list"),
    (lambda d: d.update(order={"invariants": [["T", [1, 1]]]}), ("classnum",),
     "order.invariants: expected an object"),
    (lambda d: d.update(ramification=[]), ("classnum",),
     "algebra: reciprocity fails: 4 divides a local index at one place only"),
    (lambda d: d["ramification"][0].update(invariant="1/3"), ("classnum",),
     "algebra: place 'T': local index 3 does not divide degree 4"),
    (_iwahori_at_u, ("--budget", "0", "embed", "--s", "3"),
     "s = 3 does not divide s0 = 4"),
    (None, ("transfer", "--s", "1", "--s2", "0"),
     "need s | s2 | s0, got s=1, s2=0, s0=4"),
    (None, ("transfer", "--s", "1", "--s2", "-2"),
     "need s | s2 | s0, got s=1, s2=-2, s0=4"),
    # JSON floats, booleans and strings are refused, not truncated: each of
    # these used to run as the class number of another order.
    (lambda d: d.update(degree=4.7), ("classnum",),
     "degree: missing or not an integer"),
    (lambda d: d.update(degree="4"), ("classnum",),
     "degree: missing or not an integer"),
    (lambda d: d["ramification"][0].update(degree=1.9), ("classnum",),
     "ramification[0].degree: not an integer"),
    (lambda d: d["ramification"][0].update(degree=True), ("classnum",),
     "ramification[0].degree: not an integer"),
    (lambda d: d["ramification"][3].update(degree=True), ("classnum",),
     "ramification[3].degree: not an integer"),
    (lambda d: (_iwahori_at_u(d), d["order"]["invariants"].update(
        U=[1.5, 1, 1, 1])), ("classnum",),
     "order.invariants['U']: entry 0 is not an integer"),
    (lambda d: (_iwahori_at_u(d), d["order"]["invariants"].update(
        U=[1, 1, True, 1])), ("classnum",),
     "order.invariants['U']: entry 2 is not an integer"),
    (lambda d: d["base"].update(q=3.0), ("classnum",),
     "base: q is not an integer"),
    (lambda d: d["base"].update(infinity_degree=True), ("classnum",),
     "base: infinity_degree is not an integer"),
    (lambda d: d["base"].update(pic_order=1.0), ("classnum",),
     "base: pic_order is not an integer"),
    (lambda d: d.update(base={"type": "custom", "q": 3,
                              "l_polynomial": [1, 0.5, 3]}), ("classnum",),
     "base: l_polynomial[1] is not an integer"),
    # A place label is a JSON string and an invariant a string or a JSON
    # integer: 0.5, true and null used to run as the labels "0.5", "True"
    # and "None", and an invariant of 0.5 as 1/2.
    (lambda d: d["ramification"][0].update(place=0.5), ("classnum",),
     "ramification[0].place: not a string"),
    (lambda d: d["ramification"][1].update(place=True), ("classnum",),
     "ramification[1].place: not a string"),
    (lambda d: d["ramification"][2].update(place=None), ("classnum",),
     "ramification[2].place: not a string"),
    (lambda d: d["ramification"][3].update(place=["infinity"]), ("classnum",),
     "ramification[3].place: not a string"),
    (lambda d: d["ramification"][1].update(invariant=0.5), ("classnum",),
     "ramification[1].invariant: not a string or an integer"),
    (lambda d: d["ramification"][0].update(invariant=True), ("classnum",),
     "ramification[0].invariant: not a string or an integer"),
    (lambda d: d["ramification"][3].update(invariant=None), ("classnum",),
     "ramification[3].invariant: not a string or an integer"),
    (lambda d: d["ramification"][0].update(invariant=[1, 4]), ("classnum",),
     "ramification[0].invariant: not a string or an integer"),
    (lambda d: d.update(ramification=[
        {"place": "T", "degree": 1, "invariant": "1/2"},
        {"place": "infinity", "invariant": "1/2"}]), ("classnum",),
     "algebra: not definite: d_infinity = 2 != n = 4"),
    (lambda d: d.update(ramification=[
        {"place": "T", "degree": 1, "invariant": "1/4"},
        {"place": "T", "degree": 1, "invariant": "1/2"},
        {"place": "infinity", "invariant": "1/4"}]), ("classnum",),
     "algebra: place labels are not distinct"),
    (lambda d: d.update(ramification=["T", *d["ramification"][1:]]),
     ("classnum",), "ramification[0]: expected an object with a 'place' field"),
    (lambda d: d["ramification"][0].pop("place"), ("classnum",),
     "ramification[0]: expected an object with a 'place' field"),
    (lambda d: d["ramification"][3].update(degree=2), ("classnum",),
     "ramification[3].degree: infinity has degree 1 on this base field"),
    (lambda d: d["ramification"][0].update(degree=0), ("classnum",),
     "ramification[0]: place 'T': degree must be positive"),
])
def test_malformed_input_exits_2(tmp_path, capsys, mangle, argv, needle):
    doc = json.loads(GOLDEN_CONFIG)
    if mangle is not None:
        mangle(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["--config", str(path), *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {needle}" in err.splitlines()


def test_top_level_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[]", encoding="utf-8")
    code = main(["--config", str(path), "classnum"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: schema: top level must be an object"]


def _digit_cap() -> int:
    """Python's cap on the digits of an int as text; 0 if there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_integer_past_the_digit_cap_in_the_config_exits_2(tmp_path, capsys):
    # json.loads raises a bare ValueError, not a JSONDecodeError, on it.
    cap = _digit_cap()
    if not cap:
        pytest.skip("this interpreter has no cap on digits")
    path = tmp_path / "config.json"
    path.write_text(GOLDEN_CONFIG.replace('"q": 3', '"q": ' + "3" * (cap + 1)),
                    encoding="utf-8")
    code = main(["--config", str(path), "mass"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: schema: an integer has more than {cap} digits"]
    assert _digit_cap() == cap


def test_integers_past_the_digit_cap_print_within_the_budget(tmp_path,
                                                              capsys):
    # q = 2, n = 2 and a place of degree 15000: the mass has 4500 digits.
    cap = _digit_cap()
    if not cap:
        pytest.skip("this interpreter has no cap on digits")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "base": {"type": "rational_function_field", "q": 2}, "degree": 2,
        "ramification": [{"place": "P", "degree": 15000, "invariant": "1/2"},
                         {"place": "infinity", "invariant": "1/2"}]}),
        encoding="utf-8")
    order = parse_config(path.read_text(encoding="utf-8")).order

    def uncapped(fn, *args):
        sys.set_int_max_str_digits(0)
        try:
            return fn(*args)
        finally:
            sys.set_int_max_str_digits(cap)

    mass = uncapped(str, mass_hereditary(order))
    assert len(mass) > cap
    for command in ("mass", "classnum"):
        assert main(["--config", str(path), command]) == 0
        assert _digit_cap() == cap
        assert uncapped(json.loads, capsys.readouterr().out)["mass"] == mass
    # Past max(cap, --budget) digits, the output layer exits 4.
    assert main(["--config", str(path), "--budget", "3", "mass"]) == 4
    out, err = capsys.readouterr()
    assert (out, err.splitlines()) == ("", [
        f"error: output: integer of more than {cap} digits exceeds budget "
        "of 3"])
    assert _digit_cap() == cap


def test_repeated_infinity_exits_2(tmp_path, capsys):
    # The second infinity entry used to replace the first without a word, so
    # this config ran as the quaternion algebra of mass 1/8.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "base": {"type": "rational_function_field", "q": 3},
        "degree": 2,
        "ramification": [
            {"place": "T", "degree": 1, "invariant": "1/2"},
            {"place": "infinity", "invariant": "1/4"},
            {"place": "infinity", "invariant": "1/2"}],
    }), encoding="utf-8")
    code = main(["--config", str(path), "mass"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: algebra: not definite: d_infinity = 4 != n = 2",
        "error: ramification[2].place: infinity listed twice"]


def test_engine_flag_is_gone():
    # Before the command or after it, argparse refuses the flag with usage.
    for argv in (["--engine", "enum", "classnum"],
                 ["classnum", "--engine", "enum"]):
        proc = spawn("-m", "csaclass.cli", "--config", str(CONFIG_PATH),
                     *argv, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("usage:")


def test_help_prints_usage():
    proc = spawn("-m", "csaclass.cli", "--help", text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage:")


def test_resum_violation_exits_3(golden_order, golden_config_path, capsys,
                                 monkeypatch):
    monkeypatch.setattr("csaclass.classnum.mass_hereditary",
                        lambda order, maximal=None: Fraction(1))
    with pytest.raises(IntegralityViolationError):
        class_number_report(golden_order)
    code = main(["--config", golden_config_path, "classnum"])
    assert code == 3
    assert "error: weight class numbers resum to" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classnum", "selfcheck"])
def test_mass_takes_m1_from_the_solve(golden_config_path, capsys,
                                      monkeypatch, command):
    # Each M_s is formed once: the order's mass is the solve's M_1 times
    # the unit indices.
    levels = []
    real_mass = massform._level_mass

    def counted_mass(spec, s, *index):
        levels.append(s)
        return real_mass(spec, s, *index)

    monkeypatch.setattr(massform, "_level_mass", counted_mass)
    monkeypatch.setattr(classnum, "_level_mass", counted_mass)
    code, out = run_cli(capsys, "--config", golden_config_path, command)
    assert code == 0 and "false" not in out
    assert 1 in levels and len(levels) == len(set(levels))


def test_exit_code_budget(golden_config_path, capsys):
    code = main(["--config", golden_config_path, "--budget", "1",
                 "transfer", "--s", "2", "--s2", "2"])
    capsys.readouterr()
    assert code == 4


def test_embed_budget_reads_only_the_levels_above_s(tmp_path, capsys):
    # s0 = 6 and U has degree 3: theta at U takes 7 row placements at s = 3,
    # at most 2 at s = 6, 2 and 1.  `embed --s 2` reads h_6 and h_2 only, so
    # a budget of 3 no longer stops it; `embed --s 1` reads every level.
    path = tmp_path / "s0-6.json"
    path.write_text(json.dumps({
        "base": {"type": "rational_function_field", "q": 2}, "degree": 6,
        "ramification": [{"place": "T", "degree": 1, "invariant": "1/6"},
                         {"place": "infinity", "invariant": "-1/6"},
                         {"place": "U", "degree": 3}],
        "order": {"invariants": {"U": [2, 2, 2]}}}), encoding="utf-8")
    code, out = run_cli(capsys, "--config", str(path), "classnum")
    assert code == 0
    h = json.loads(out)["h"]
    assert h == {"1": 1467002079, "2": 12879, "3": 567, "6": 6}
    for s, embeddings in ((2, 2 * (12879 + 6)), (6, 6 * 6)):
        code, out = run_cli(capsys, "--config", str(path), "--budget", "3",
                            "embed", "--s", str(s))
        assert code == 0
        assert json.loads(out) == {"embeddings": embeddings, "s": s}
    assert main(["--config", str(path), "--budget", "3",
                 "embed", "--s", "1"]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "error: theta: place 'U', s = 3: row placements exceed budget of 3"]


def test_timings_flag(golden_config_path, capsys):
    code, out = run_cli(capsys, "--config", golden_config_path,
                        "--timings", "mass")
    assert code == 0
    assert "timings_ms" in json.loads(out)


# P(1) = 1 - 5 + 3 = -1: no curve has a negative class number h_K = P(1).
NEGATIVE_P1 = {"type": "custom", "q": 3, "l_polynomial": [1, -5, 3]}
NEGATIVE_P1_ERROR = ("error: base: l_polynomial has P(1) = -1, "
                     "but P(1) = h_K >= 1")


def _negative_p1_config(tmp_path) -> str:
    doc = json.loads(GOLDEN_CONFIG)
    doc["base"] = NEGATIVE_P1
    path = tmp_path / "negative-p1.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_negative_class_number_base_exits_2(tmp_path, capsys):
    code = main(["--config", _negative_p1_config(tmp_path), "mass"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.splitlines() == [NEGATIVE_P1_ERROR]


def test_negative_class_number_base_exits_2_under_optimize(tmp_path):
    proc = spawn("-O", "-m", "csaclass.cli",
                 "--config", _negative_p1_config(tmp_path), "mass",
                 text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [NEGATIVE_P1_ERROR]


# #Pic(A) = P(1) * infinity_degree is derived from the base; a declared
# pic_order must agree with it.  On the golden example, pic_order 2 used to
# replace it and print mass 338/5.
@pytest.mark.parametrize("base,derived", [
    ({"type": "rational_function_field", "q": 3, "pic_order": 2}, 1),
    ({"type": "rational_function_field", "q": 3, "pic_order": 0}, 1),
    ({"type": "rational_function_field", "q": 3, "infinity_degree": 2,
      "pic_order": 1}, 2),
    ({"type": "custom", "q": 3, "l_polynomial": [1, 1, 3], "pic_order": 1},
     5),
], ids=["rational", "zero", "infinity-degree-2", "genus-1"])
@pytest.mark.parametrize("command", ["mass", "classnum", "selfcheck"])
def test_malformed_pic_order_exits_2(tmp_path, capsys, base, derived,
                                     command):
    doc = json.loads(GOLDEN_CONFIG)
    doc["base"] = base
    code = main(["--config", _write_config(tmp_path, doc), command])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"error: base: pic_order {base['pic_order']} differs from "
        f"#Pic(A) = P(1) * infinity_degree = {derived}"]


def test_pic_order_equal_to_the_derived_one_is_accepted(tmp_path, capsys):
    doc = json.loads(GOLDEN_CONFIG)
    doc["base"]["pic_order"] = 1
    code = main(["--config", _write_config(tmp_path, doc), "classnum"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / "dvg-example.classnum.json").read_text(
        encoding="utf-8")


def _halves(degrees, base) -> dict:
    """A degree-2 config with invariant 1/2 at infinity and at one finite
    place of each degree in `degrees`."""
    return {
        "base": base,
        "degree": 2,
        "ramification": [
            *({"place": f"p{k}", "degree": deg, "invariant": "1/2"}
              for k, deg in enumerate(degrees)),
            {"place": "infinity", "invariant": "1/2"},
        ],
    }


@pytest.mark.parametrize("base", [
    {"type": "rational_function_field", "q": 2},
    {"type": "custom", "q": 2, "l_polynomial": [1]},
], ids=["rational", "custom"])
def test_every_base_with_trivial_l_poly_gets_the_place_count(tmp_path, capsys,
                                                             base):
    # F_2[T] has two monic irreducibles of degree 1.  Written as "custom",
    # F_2(T) used to skip this count and exit 3 with h_1 = -1.
    code = main(["--config", _write_config(tmp_path, _halves([1, 1, 1], base)),
                 "classnum"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: algebra: 3 listed finite places of degree 1, but only 2 "
        "monic irreducibles exist over F_2"]


CUBIC_INFINITY = {"type": "rational_function_field", "q": 2,
                  "infinity_degree": 3}


def test_place_count_keeps_the_place_one_over_t(tmp_path, capsys):
    # With infinity of degree 3, F_2(T) has three finite places of degree 1:
    # T, T + 1 and 1/T.
    code, out = run_cli(capsys, "--config",
                        _write_config(tmp_path, _halves([1, 1, 1],
                                                        CUBIC_INFINITY)),
                        "--output", "text", "classnum")
    assert code == 0
    assert out.splitlines()[:3] == [
        'h: {"1": 3, "2": 12}', 'h_total: 15', 'mass: "7"']


def test_malformed_place_count_leaves_out_infinity(tmp_path, capsys):
    # F_2(T) has two places of degree 3, and one of them is infinity.  This
    # config used to exit 0 with h = {1: 339, 2: 12}.
    code = main(["--config",
                 _write_config(tmp_path, _halves([3, 3, 1], CUBIC_INFINITY)),
                 "classnum"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: algebra: 2 listed finite places of degree 3, but only 1 "
        "exist on F_2(T) with infinity of degree 3"]


_LABELS = ("T", "T+1", "U", "infinity")
_leaves = (st.none() | st.booleans() | st.integers(-3, 9)
           | st.sampled_from(_LABELS) | st.text(max_size=3)
           | st.builds("{}/{}".format, st.integers(-4, 4), st.integers(-1, 8)))
_json = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
_base = _json | st.fixed_dictionaries(
    {"type": st.sampled_from(("rational_function_field", "custom", "x"))
             | _json,
     "q": st.sampled_from((2, 3, 4, 6)) | _json},
    optional={"l_polynomial": st.lists(st.integers(-6, 9), max_size=5) | _json,
              "infinity_degree": st.integers(-1, 3) | _json,
              "pic_order": st.integers(-1, 3) | _json})


@st.composite
def _configs(draw, mangle=True):
    """A near-valid config (T and infinity ramified with +-k/n, order data at
    a split place U); with `mangle`, in half the draws with random JSON
    swapped in at a few keys."""
    n = draw(st.integers(1, 6))
    k = draw(st.sampled_from([k for k in range(-n, n + 1)
                              if gcd(k, n) == 1 or n == 1]))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))
                  if n > 1 else set())
    ramification = [
        {"place": "T", "degree": 1, "invariant": f"{k}/{n}"},
        {"place": "U", "degree": draw(st.integers(1, 2))},
        {"place": "infinity", "invariant": f"{-k}/{n}"},
    ]
    doc = {
        "base": {"type": "rational_function_field",
                 "q": draw(st.sampled_from((2, 3, 4, 5)))},
        "degree": n,
        "ramification": ramification,
        "order": {"invariants": {
            "U": [b - a for a, b in zip([0, *cuts], [*cuts, n])]}},
    }
    if not mangle or draw(st.booleans()):
        return doc

    for place in ramification:
        for key in ("place", "degree", "invariant"):
            if draw(st.integers(0, 11)) == 0:
                place[key] = draw(_json)
    for key, strategy in (("base", _base), ("degree", _json),
                          ("ramification", _json), ("order", _json)):
        choice = draw(st.integers(0, 11))
        if choice == 0:
            doc[key] = draw(strategy)
        elif choice == 1:
            del doc[key]
    if draw(st.integers(0, 7)) == 0:
        doc["order"] = {"invariants": draw(st.dictionaries(
            st.sampled_from(_LABELS),
            st.lists(st.integers(-1, 4), max_size=5) | _json, max_size=2))}
    return doc


def _divisors(n) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


_SUBCOMMANDS = ("classnum", "mass", "embed", "genera", "transfer",
                "selfcheck", "theta", "omega")


@st.composite
def _runs(draw, commands=_SUBCOMMANDS, mangle=True):
    """A `_configs` document and a subcommand line for it.  Integer
    arguments are negative, 0, 1, divisors or non-divisors of the degree
    (which s0 divides) or large; place labels come from the config or not."""
    doc = draw(_configs(mangle))
    n = doc.get("degree")
    n = n if type(n) is int and n > 0 else 4
    whole = st.sampled_from((-1, 0, 1)) | st.sampled_from(
        (-3, *_divisors(n), *(k for k in (2, 3, 4, 5, 7, 12) if n % k),
         10 ** 6, 2 ** 64))
    label = st.sampled_from((*_LABELS, "X", "t", "T#1", ""))
    command = draw(st.sampled_from(commands))
    argv = ["--budget", str(draw(whole | st.just(2000))), command]
    if command in ("theta", "omega"):
        argv += ["--place", draw(label)]
    if command in ("embed", "transfer", "theta", "omega"):
        argv += ["--s", str(draw(whole))]
    if command == "transfer":
        argv += ["--s2", str(draw(whole))]
    if command == "omega" and draw(st.booleans()):
        argv.append("--list")
    return doc, argv


def _main_never_escapes(doc, argv, output):
    """Run `main`; exits 0 and 1 write nothing to stderr, and exits 2, 3
    and 4 write nothing to stdout and only `error:` lines to stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--config", path, "--output", output, *argv])
    lines = err.getvalue().splitlines()
    if code in (0, 1):
        assert lines == []
    else:
        assert code in (2, 3, 4)
        assert out.getvalue() == ""
        assert lines and all(line.startswith("error: ") for line in lines)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=_runs(), output=st.sampled_from(("json", "text")))
def test_random_config_never_escapes(run, output):
    _main_never_escapes(*run, output)


# Each subcommand on its own and on valid configs, so that every argument
# check sees many draws.
@pytest.mark.parametrize("command", _SUBCOMMANDS)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), output=st.sampled_from(("json", "text")))
def test_random_arguments_never_escape(command, data, output):
    _main_never_escapes(*data.draw(_runs((command,), mangle=False)), output)


def _reference_fmt(value):
    """The report walk the CLI used before it let json.dumps format Fractions."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): _reference_fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_fmt(v) for v in value]
    return value


EMIT_REPORT = {
    "mass": Fraction(169, 5),
    "whole": Fraction(-12, 4),
    "zero": Fraction(0),
    "h": {"1": 64, "2": 14},
    "rows": [{"genus": {"U": (1, 0, 2)}, "class_number": 3},
             (Fraction(1, 2), [Fraction(7), (Fraction(-3, 8),)])],
    "flags": {"equal": True, "other": False, "none": None},
    "name": "T+1",
}


@pytest.mark.parametrize("output", ["json", "text"])
def test_emit_matches_reference_walk(output, capsys):
    _emit(EMIT_REPORT, output)
    got = capsys.readouterr().out
    if output == "json":
        want = json.dumps(_reference_fmt(EMIT_REPORT), sort_keys=True,
                          indent=2) + "\n"
    else:
        want = "".join(
            f"{key}: {json.dumps(_reference_fmt(EMIT_REPORT[key]), sort_keys=True)}\n"
            for key in sorted(EMIT_REPORT))
    assert got == want
    assert '"169/5"' in got and '"-3"' in got and '"7"' in got


# Every subcommand on the golden example, genera and selfcheck on two
# Iwahori places, four subcommands over a genus-1 base field, and five over
# a genus-2 base field with infinity of degree 2, where places split into
# l = 3 places above them (with t = 3 at V, s = 9), in both output modes.
# Those two moved into reach/ and keep the ids they had before the move.
# The reach orders add classnum and theta at a place of degree 3, 4 or 12
# with up to 48 columns, where rows of many equal columns are placed, and
# classnum, selfcheck, theta and transfer where f_U has 6 or 12 equal parts
# at a place of degree 1 or 2 (x24d2, g24, g30).  The maximal orders of
# degree 720 pin M_s over a rational base at all 30 levels of s0 = 720, and
# at s = 9 and 45 with infinity of degree 2.  The files were written with
# json.dumps(indent=2), so they check the join-based encoder against an
# independent one.
GOLDEN_DIR = ROOT / "tests" / "golden"
GOLDEN_COMMANDS = [
    ("dvg-example", "classnum", ()),
    ("dvg-example", "mass", ()),
    ("dvg-example", "theta", ("--place", "T+1", "--s", "2")),
    ("dvg-example", "omega", ("--place", "T", "--s", "4", "--list")),
    ("dvg-example", "genera", ()),
    ("dvg-example", "embed", ("--s", "2")),
    ("dvg-example", "transfer", ("--s", "2", "--s2", "4")),
    ("dvg-example", "selfcheck", ()),
    ("iwahori-two-places", "genera", ()),
    ("iwahori-two-places", "selfcheck", ()),
    ("reach/genus1-example", "classnum", ()),
    ("reach/genus1-example", "transfer", ("--s", "2", "--s2", "2")),
    ("reach/genus1-example", "genera", ()),
    ("reach/genus1-example", "selfcheck", ()),
    ("reach/genus2-infinity2", "classnum", ()),
    ("reach/genus2-infinity2", "theta", ("--place", "V", "--s", "9")),
    ("reach/genus2-infinity2", "transfer", ("--s", "3", "--s2", "9")),
    ("reach/genus2-infinity2", "embed", ("--s", "3")),
    ("reach/genus2-infinity2", "selfcheck", ()),
    ("reach/x24d4", "classnum", ()),
    ("reach/iw24d3", "classnum", ()),
    ("reach/iw48d12", "classnum", ()),
    ("reach/x24d4", "theta", ("--place", "U", "--s", "4")),
    ("reach/iw48d12", "theta", ("--place", "U", "--s", "4")),
    ("reach/f8", "theta", ("--place", "U", "--s", "2")),
    ("reach/m720", "classnum", ()),
    ("reach/m720-infinity2", "embed", ("--s", "9")),
    ("reach/x24d2", "classnum", ()),
    ("reach/x24d2", "selfcheck", ()),
    ("reach/x24d2", "theta", ("--place", "U", "--s", "2")),
    ("reach/x24d2", "transfer", ("--s", "2", "--s2", "2")),
    ("reach/g24", "classnum", ()),
    ("reach/g24", "selfcheck", ()),
    ("reach/g24", "theta", ("--place", "U", "--s", "2")),
    ("reach/g24", "transfer", ("--s", "2", "--s2", "2")),
    ("reach/g30", "classnum", ()),
    ("reach/g30", "selfcheck", ()),
    ("reach/f9", "classnum", ()),
]
KEPT_IDS = {"reach/genus1-example": "genus1-example",
            "reach/genus2-infinity2": "genus2-infinity2"}


@pytest.mark.parametrize("output", ["json", "text"])
@pytest.mark.parametrize("config,command,extra", GOLDEN_COMMANDS,
                         ids=[f"{KEPT_IDS.get(c, c)}.{cmd}"
                              for c, cmd, _ in GOLDEN_COMMANDS])
def test_output_matches_golden_file(config, command, extra, output, capsys,
                                    monkeypatch):
    # Each golden command line is spelled plainly, so none reaches argparse.
    def no_parser():
        raise AssertionError("build_parser called on a plain command line")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    code = main(["--config", str(ROOT / "configs" / f"{config}.json"),
                 "--output", output, command, *extra])
    out, err = capsys.readouterr()
    suffix = "json" if output == "json" else "txt"
    want = (GOLDEN_DIR / f"{config}.{command}.{suffix}").read_text(
        encoding="utf-8")
    assert (code, err) == (0, "")
    assert out == want


def test_f9_thetas_equal_the_column_form():
    # f9's U has the nine distinct parts 1, ..., 9 and degree 9: theta walks
    # the columns at s = 3 and the rows at s = 9 (r = l = d = 9).  At every
    # level, each is the column form's sum.
    order = parse_config((ROOT / "configs" / "reach" / "f9.json").read_text(
        encoding="utf-8")).order
    spec = order.algebra
    s0 = constant_field_degree(spec)
    place, f, q = spec.place("U"), order.invariant_at("U"), spec.base.q
    for s in (s for s in range(1, s0 + 1) if s0 % s == 0):
        assert theta(place, f, s, q) == theta_columns(place, f, s, q), s


@pytest.mark.parametrize("output", ["json", "text"])
@pytest.mark.parametrize("config", ["dvg-example", "iwahori-two-places",
                                    "reach/genus1-example"],
                         ids=lambda config: KEPT_IDS.get(config, config))
def test_genera_timings_add_one_key_to_the_golden_report(config, output,
                                                         capsys):
    code = main(["--config", str(ROOT / "configs" / f"{config}.json"),
                 "--output", output, "--timings", "genera"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    suffix = "json" if output == "json" else "txt"
    golden = (GOLDEN_DIR / f"{config}.genera.{suffix}").read_text(
        encoding="utf-8")
    if output == "json":
        ms = json.loads(out)["timings_ms"]["genera"]
        want = json.dumps({**json.loads(golden),
                           "timings_ms": {"genera": ms}},
                          sort_keys=True, indent=2) + "\n"
    else:
        (line,) = [line for line in out.splitlines(keepends=True)
                   if line.startswith("timings_ms: ")]
        want = "".join(sorted([*golden.splitlines(keepends=True), line]))
    assert out == want


def test_genera_budget_names_the_genus_count(capsys):
    code = main(["--config", str(ROOT / "configs" / "iwahori-two-places.json"),
                 "--budget", "99", "genera"])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err == "error: genera: genus count 100 exceeds budget of 99\n"


def test_reused_parser_holds_no_state(capsys, monkeypatch):
    # The first call may build the parser; no later call builds one.
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(CONFIG_PATH), "nosuchcommand"])
    assert exc.value.code == 2
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    for config, command, extra in GOLDEN_COMMANDS:
        # text first, then json by default: no --output may linger
        for output, flags in (("txt", ["--output", "text"]), ("json", [])):
            for bad in (["nosuchcommand"], ["classnum", "--engine", "enum"]):
                with pytest.raises(SystemExit) as exc:
                    main(["--config", str(CONFIG_PATH), *bad])
                assert exc.value.code == 2
            capsys.readouterr()
            code = main(["--config", str(ROOT / "configs" / f"{config}.json"),
                         *flags, command, *extra])
            out, err = capsys.readouterr()
            want = (GOLDEN_DIR / f"{config}.{command}.{output}").read_text(
                encoding="utf-8")
            assert (code, err, out) == (0, "", want)
    assert built == []


def _parsed(argv):
    """vars() of what argparse makes of argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def _options(command):
    """Each option of the parser, or of `command`'s subparser, as (flag,
    takes a value, type or None, required, default, choices)."""
    import argparse

    parser = cli.build_parser()
    if command is not None:
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[command]
    return sorted((a.option_strings[0], a.nargs != 0, a.type, a.required,
                   a.default, a.choices) for a in parser._actions
                  if a.option_strings and a.dest != "help")


def test_the_parser_reads_the_options_plain_spellings_use():
    # The plain reader knows the global options by their spellings and each
    # command's options from `_COMMANDS`, which build_parser also reads.
    assert _options(None) == [
        ("--budget", True, int, False, classnum.DEFAULT_BUDGET, None),
        ("--config", True, None, True, None, None),
        ("--output", True, None, False, "json", ("json", "text")),
        ("--timings", False, None, False, False, None)]
    for command, (_, options) in cli._COMMANDS.items():
        assert _options(command) == sorted(
            (flag, False, None, False, False, None) if kind is bool
            else (flag, True, kind, True, None, None)
            for flag, kind in options)


# Values that argparse refuses or reads apart from the plain reader, and
# some it reads alike.
_VALUES = ("-1", "-x", "-h", "-", "--", "1.5", "x", "", "json", "classnum",
           "T", "2")
_PLAIN_VALUES = {"--config": ("c.json", "T", "", "classnum"),
                 "--output": ("json", "text"),
                 "--budget": ("0", "7", "+3", " 5", "1_0"),
                 "--place": ("T", "T+1", "x y", ""),
                 "--s": ("1", "2", "4"), "--s2": ("2", "3")}


@st.composite
def _argv(draw, odd=False):
    """A command line: `--config` and some other global options in any
    order, a command, then its own options in any order, each spelled in
    full with a valid value.  `odd` changes one option: it is cut short,
    given with `=`, given twice, given an odd value, or left out."""
    def spelled(flag):
        if flag not in _PLAIN_VALUES:
            return [flag]
        return [flag, draw(st.sampled_from(_PLAIN_VALUES[flag]))]

    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    before = ["--config"] + draw(st.lists(st.sampled_from(
        ("--output", "--budget", "--timings")), unique=True))
    after = [flag for flag, kind in cli._COMMANDS[command][1]
             if kind is not bool or draw(st.booleans())]
    groups = [*map(spelled, draw(st.permutations(before))), [command],
              *map(spelled, draw(st.permutations(after)))]
    if odd:
        i = draw(st.sampled_from([i for i, group in enumerate(groups)
                                  if group != [command]]))
        flag, *value = groups[i]
        how = draw(st.sampled_from(("cut", "=", "twice", "value", "drop")))
        groups[i] = {
            "cut": lambda: [flag[:draw(st.integers(2, len(flag) - 1))],
                            *value],
            "=": lambda: [f"{flag}={''.join(value)}"],
            "twice": lambda: [flag, *value] * 2,
            "value": lambda: [flag, draw(st.sampled_from(_VALUES))],
            "drop": lambda: [],
        }[how]()
    return [word for group in groups for word in group]


_WORDS = st.one_of(
    st.sampled_from(("--config", "--output", "--budget", "--timings",
                     "--conf", "--c", "--out", "--bud", "--tim", "--place",
                     "--s", "--s2", "--list", "--pl", "--li", "--s2=2",
                     "--config=c.json", "--output=text", "--budget=-1",
                     "--s=2", "-h", "--help", "--engine", "-s", "---config",
                     "foo")),
    st.sampled_from(sorted(cli._COMMANDS)),
    st.sampled_from(_VALUES))


@st.composite
def _with_words(draw, argv):
    """`argv` with one or two grammar words put in at one point."""
    at = draw(st.integers(0, len(argv)))
    return argv[:at] + draw(st.lists(_WORDS, min_size=1, max_size=2)) + \
        argv[at:]


@settings(max_examples=1000, deadline=None)
@given(argv=st.one_of(_argv(odd=True), st.lists(_WORDS, max_size=9),
                      _argv().flatmap(_with_words)))
def test_plain_reader_agrees_with_argparse(argv):
    # Help, usage and errors are argparse's: the reader reads an argv as
    # argparse does, or leaves it to argparse.
    read = cli._plain_args(argv)
    assert read is None or vars(read) == _parsed(argv)


@settings(max_examples=200, deadline=None)
@given(argv=_argv())
def test_plain_reader_reads_every_plain_spelling(argv):
    read = cli._plain_args(argv)
    assert read is not None
    assert vars(read) == _parsed(argv)


def test_omega_budget_exits_4(golden_config_path, capsys):
    code = main(["--config", golden_config_path, "--budget", "1",
                 "omega", "--place", "T", "--s", "4"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err == ("error: omega: local index set of 4 elements exceeds "
                   "budget of 1\n")


@pytest.mark.parametrize("argv,zero_budget_code", [
    (("classnum",), 0),
    (("omega", "--place", "T", "--s", "1"), 4),
    (("genera",), 4),
])
def test_negative_budget_exits_2(golden_config_path, capsys, argv,
                                 zero_budget_code):
    code = main(["--config", golden_config_path, "--budget", "-5", *argv])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: --budget: must be >= 0, got -5\n"
    # zero is a budget like any other
    code = main(["--config", golden_config_path, "--budget", "0", *argv])
    err = capsys.readouterr().err
    assert code == zero_budget_code
    assert "--budget" not in err


# A 14-part composition of 36 at a degree-4 place: at s = 4 its theta
# factor walks the columns, 2525 placements, and its rows would run to
# millions of placements.
WIDE_ORDER_CONFIG = json.dumps({
    "base": {"type": "rational_function_field", "q": 2},
    "degree": 36,
    "ramification": [
        {"place": "T", "degree": 1, "invariant": "1/36"},
        {"place": "U", "degree": 4},
        {"place": "infinity", "invariant": "-1/36"},
    ],
    "order": {"invariants": {"U": [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 1, 2, 1, 2]}},
})


@pytest.mark.parametrize("argv", [
    ("classnum",),
    ("theta", "--place", "U", "--s", "4"),
    ("embed", "--s", "2"),
    ("selfcheck",),
    ("transfer", "--s", "2", "--s2", "4"),
], ids=lambda argv: argv[0])
def test_theta_budget_exits_4(tmp_path, capsys, argv):
    path = tmp_path / "wide.json"
    path.write_text(WIDE_ORDER_CONFIG, encoding="utf-8")
    started = time.monotonic()
    code = main(["--config", str(path), "--budget", "1000", *argv])
    elapsed = time.monotonic() - started
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err == ("error: theta: place 'U', s = 4: "
                   "column placements exceed budget of 1000\n")
    assert elapsed < 1.0


def _write_config(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("listed", [False, True], ids=["count", "list"])
def test_omega_sizes_the_set_before_walking_it(tmp_path, capsys, monkeypatch,
                                               listed):
    # The Iwahori order at a degree-4 place of a degree-24 algebra: its
    # index set at s = 2 has 2,704,156 elements, and neither form walks it.
    def walk(*args):
        raise AssertionError("omega walked a set over the budget")

    monkeypatch.setattr(cli, "enumerate_omega", walk)
    path = _write_config(tmp_path, {
        "base": {"type": "rational_function_field", "q": 2},
        "degree": 24,
        "ramification": [
            {"place": "T", "degree": 1, "invariant": "1/24"},
            {"place": "U", "degree": 4},
            {"place": "infinity", "invariant": "-1/24"},
        ],
        "order": {"invariants": {"U": [1] * 24}},
    })
    started = time.monotonic()
    code = main(["--config", path, "omega", "--place", "U", "--s", "2",
                 *(["--list"] if listed else [])])
    elapsed = time.monotonic() - started
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err == ("error: omega: local index set of 2704156 elements "
                   "exceeds budget of 1000000\n")
    assert elapsed < 1.0


@pytest.mark.parametrize("command", ["omega", "theta"])
def test_omega_row_placements_count_like_theta(tmp_path, capsys, command):
    # At s = 3 the maximal order at the degree-3 place U (d = 2) has a
    # one-element index set over three rows, two of them placed.
    path = _write_config(tmp_path, {
        "base": {"type": "rational_function_field", "q": 4},
        "degree": 6,
        "ramification": [
            {"place": "T", "degree": 1, "invariant": "1/6"},
            {"place": "V", "degree": 1, "invariant": "1/2"},
            {"place": "U", "degree": 3, "invariant": "1/2"},
            {"place": "infinity", "invariant": "-1/6"},
        ],
    })
    argv = ["--config", path, command, "--place", "U", "--s", "3"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["--budget", "1", *argv]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {command}: place 'U', s = 3: "
                   "row placements exceed budget of 1\n")


_text = st.text(alphabet=st.characters(), max_size=6) | st.sampled_from(
    ("", '"', "\\", "\x00\n\t\x1f", "é", " ", "\U0001f600"))
_report_leaves = (st.none() | st.booleans() | _text
                  | st.integers(-10, 10) | st.integers(-2 ** 80, 2 ** 80)
                  | st.fractions(max_denominator=2 ** 70))
_reports = st.recursive(
    _report_leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.lists(st.integers(-3, 3), max_size=4).map(tuple)
                   | st.dictionaries(_text, inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(value=_reports)
def test_dumps_indented_matches_json_dumps(value):
    # the same value twice, at two depths
    for v in (value, [value, (1, 2), {"x": value, "y": (1, 2)}]):
        assert _dumps_indented(v) == json.dumps(
            v, sort_keys=True, indent=2, default=_fraction)


@pytest.mark.parametrize("value", [
    1.5, object(), {"a": [0.0]}, {1: "x"}, {True: 1}, {None: 1},
    {"a": {(1,): 2}}, [(1, 2.0)]])
def test_dumps_indented_rejects_unknown_types(value):
    with pytest.raises(TypeError):
        _dumps_indented(value)


def test_dumps_indented_keeps_bools_apart_from_ints():
    value = [(1, 0), (True, False), (1, 0)]
    assert _dumps_indented(value) == json.dumps(value, indent=2)
    assert "true" in _dumps_indented(value)


def test_dumps_indented_places_a_value_at_a_pad():
    value = {"a": [1, {"b": None}], "c": "x"}
    want = json.dumps({"key": value}, sort_keys=True, indent=2)
    assert _dumps_indented(value, "  ") == want[len('{\n  "key": '):-2]


_place_labels = st.text(
    st.sampled_from('"\\/ab+#%{}\x7f\u00e9\u20ac\U0001f600') | st.characters(),
    min_size=1, max_size=4).filter(lambda label: label != "infinity")


@st.composite
def _genera_reports(draw):
    """Genus axes of an order with 0-3 non-maximal places, and random class
    numbers, one per tuple of reduced vectors."""
    n = draw(st.integers(2, 4))
    labels = draw(st.lists(_place_labels, max_size=3, unique=True))
    spec = AlgebraSpec(BaseField(2), n,
                       tuple(Place(label, 1) for label in labels))
    invariants = []
    for label in labels:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1,
                                   max_size=2)))
        invariants.append(
            (label, tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))))
    axes = genus_axes(OrderSpec(spec, tuple(invariants)))
    rng = draw(st.randoms(use_true_random=False))
    table = tuple(rng.choice((0, 1, 82, 10 ** 30))
                  for _ in range(prod(len(axis.reduced) for axis in axes)))
    total = sum(h * prod(mults) for h, mults in zip(
        table, product(*(axis.mults for axis in axes))))
    return GeneraReport(axes, table, prod(sum(axis.mults) for axis in axes),
                        total)


def _emitted(report: dict, output: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(report, output)
    return out.getvalue()


@settings(max_examples=100, deadline=None)
@given(report=_genera_reports(), chunk_rows=st.sampled_from((1, 2, 7, 2048)))
def test_per_genus_json_matches_the_dict_form(report, chunk_rows):
    rows = [{"genus": dict(genus), "class_number": h}
            for genus, h in per_genus(report)]
    assert len(rows) == report.count
    assert sum(row["class_number"] for row in rows) == report.total
    # Small chunks put a seam after almost every block.
    with mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows):
        # a bool, so that a failing draw is not diffed on every shrink step
        same = ("".join(cli._per_genus_chunks(report, "json"))
                == _dumps_indented(rows, "  "))
        assert same
        for head in ({}, {"count": len(rows), "total": report.total}):
            for output in ("json", "text"):
                same = (_emitted({**head, "per_genus": cli._per_genus_chunks(
                            report, output)}, output)
                        == _emitted({**head, "per_genus": rows}, output))
                assert same
    assert _emitted({"per_genus": rows}, "json") == json.dumps(
        {"per_genus": rows}, sort_keys=True, indent=2) + "\n"


def _fanout_config(n: int, places: int) -> str:
    """q = 3, degree n, ramified at T and infinity, with the Iwahori order
    at `places` split places of degree 1."""
    labels = ["U", "V"][:places]
    return json.dumps({
        "base": {"type": "rational_function_field", "q": 3},
        "degree": n,
        "ramification": [
            {"place": "T", "degree": 1, "invariant": f"1/{n}"},
            {"place": "infinity", "invariant": f"-1/{n}"},
            *({"place": label, "degree": 1} for label in labels)],
        "order": {"invariants": {label: [1] * n for label in labels}},
    })


class _Writes:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("n,places,count", [(8, 1, 6435), (5, 2, 126 ** 2)])
def test_genera_streams_the_dict_form(tmp_path, n, places, count):
    path = tmp_path / "fanout.json"
    path.write_text(_fanout_config(n, places), encoding="utf-8")
    stdout = _Writes()
    with contextlib.redirect_stdout(stdout):
        assert main(["--config", str(path), "genera"]) == 0
    report = classnum.total_class_number_genera(
        parse_config(path.read_text(encoding="utf-8")).order)
    rows = per_genus(report)
    assert sum(h for _, h in rows) == report.total
    want = _dumps_indented({
        "count": count, "total": report.total,
        "per_genus": [{"genus": dict(genus), "class_number": h}
                      for genus, h in rows]}) + "\n"
    assert "".join(stdout.writes) == want
    # per_genus arrives in chunks of a bounded size, never in one piece
    assert len(stdout.writes) > 2
    assert max(map(len, stdout.writes)) <= 1_000_000
    # The text form's per_genus line holds the same rows.
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(["--config", str(path), "--output", "text", "genera"]) == 0
    lines = dict(line.split(": ", 1) for line in text.getvalue().splitlines())
    assert json.loads(lines["per_genus"]) == json.loads(want)["per_genus"]


def test_a_chunk_ends_with_the_block_that_fills_it(monkeypatch):
    # n = 7 Iwahori: a walk block holds up to 330 rows, far more than a
    # chunk of 4.  Chunks join whole blocks: each holds fewer than 4 rows
    # plus those of its last block, and each but the last at least 4.
    report = classnum.total_class_number_genera(
        parse_config(_fanout_config(7, 1)).order)
    whole = {output: "".join(cli._per_genus_chunks(report, output))
             for output in ("json", "text")}
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 4)
    (axis,) = report.axes
    sizes = [len(tails) for _, tails, _ in axis.walk("", "", "")]
    assert max(sizes) == 330 and sum(sizes) == report.count == 1716
    for output in ("json", "text"):
        chunks = list(cli._per_genus_chunks(report, output))
        blocks = iter(sizes)
        for i, chunk in enumerate(chunks):
            rows, last = 0, 0
            while rows < chunk.count('"class_number"'):
                last = next(blocks)
                rows += last
            assert rows == chunk.count('"class_number"')
            assert rows < 4 + last
            assert rows >= 4 or i + 1 == len(chunks)
        assert next(blocks, None) is None
        assert "".join(chunks) == whole[output]


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command", ["classnum", "genera"])
def test_closed_stdout_exits_1_quietly(tmp_path, capsys, command):
    path = tmp_path / "fanout.json"
    path.write_text(_fanout_config(4, 1), encoding="utf-8")
    with contextlib.redirect_stdout(_ClosedPipe()):
        code = main(["--config", str(path), command])
    assert code == 1
    assert capsys.readouterr() == ("", "")


def test_closed_pipe_exits_1_without_a_traceback():
    # `csaclass ... genera | head -c 300`: the 1.3 MB report outruns the
    # pipe, so writes go on after its reader has closed it.
    proc = spawn("-m", "csaclass.cli", "--config",
                 str(REACH_DIR / "fanout.json"), "genera",
                 start=subprocess.Popen)
    assert len(proc.stdout.read(300)) == 300
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.parametrize("output", ["json", "text"])
@pytest.mark.parametrize("n,places", [(7, 1), (5, 2)])
def test_genera_output_at_fanout_size_is_the_dict_form(tmp_path, n, places,
                                                       output):
    # The Iwahori order of fanout's tail (1716 genera) and the two-place one
    # (126^2 genera), against a report built without the library's genus
    # axes: vectors from itertools.product, one solve per reduced order.
    path = tmp_path / "fanout.json"
    path.write_text(_fanout_config(n, places), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--config", str(path), "--output", output, "genera"]) == 0
    order = parse_config(path.read_text(encoding="utf-8")).order
    solve = cache(lambda genus: class_number(OrderSpec(order.algebra, genus)))
    vectors = [g + (n - sum(g),) for g in product(range(n + 1), repeat=n - 1)
               if sum(g) <= n]
    labels = [label for label, _ in order.invariants]
    rows = [{"class_number": solve(tuple(
                 (label, genus_reduce(g)) for label, g in zip(labels, combo))),
             "genus": dict(zip(labels, combo))}
            for combo in product(vectors, repeat=places)]
    report = {"count": len(rows), "per_genus": rows,
              "total": sum(row["class_number"] for row in rows)}
    if output == "json":
        want = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        want = "".join(f"{key}: {json.dumps(value, sort_keys=True)}\n"
                       for key, value in sorted(report.items()))
    same = out.getvalue() == want  # a bool: the texts run to megabytes
    assert same


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'\xff\xfe{"a": 1}')
    code = main(["--config", str(path), "mass"])
    assert (code, *capsys.readouterr()) == (
        2, "", "error: cannot read config: 'utf-8' codec can't decode byte "
               "0xff in position 0: invalid start byte\n")


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_config_newlines_read_as_in_text_mode(tmp_path, capsys, newline):
    # The config is read as bytes; "\r\n" and "\r" still count as one "\n"
    # in the positions a JSON error names, and a valid config runs alike.
    path = tmp_path / "config.json"
    results = []
    for text in (GOLDEN_CONFIG, GOLDEN_CONFIG.replace('"degree": 4',
                                                      '"degree": 4,,')):
        for ending in (b"\n", newline):
            path.write_bytes(text.encode().replace(b"\n", ending))
            code = main(["--config", str(path), "mass"])
            results.append((code, *capsys.readouterr()))
    assert results[0] == results[1] and results[0][0] == 0
    assert results[2] == results[3] == (
        2, "", "error: schema: not valid JSON (Expecting property name "
               "enclosed in double quotes: line 3 column 15 (char 71))\n")


@pytest.mark.parametrize("opening", ["[", '{"a": '])
def test_config_nested_too_deep_exits_2(tmp_path, capsys, opening):
    # 10^5 levels pass the recursion limit of every supported Python.
    path = tmp_path / "config.json"
    path.write_text(opening * 10 ** 5, encoding="utf-8")
    code = main(["--config", str(path), "mass"])
    assert (code, *capsys.readouterr()) == (
        2, "", "error: schema: JSON nested too deep\n")


class _BadDescriptor(io.StringIO):
    """A stdout whose file descriptor was closed after start-up."""

    def write(self, text):
        raise OSError(errno.EBADF, "Bad file descriptor")


@pytest.mark.parametrize("stdout", [None, _BadDescriptor()],
                         ids=["none", "ebadf"])
def test_unwritable_stdout_exits_1_while_streaming(tmp_path, capsys,
                                                   monkeypatch, stdout):
    # The outcome table below covers the one-write report of `classnum`.
    path = tmp_path / "fanout.json"
    path.write_text(_fanout_config(4, 1), encoding="utf-8")
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["--config", str(path), "genera"])
    monkeypatch.undo()
    assert (code, *capsys.readouterr()) == (1, "", "")


def test_closed_fd_1_exits_1_without_a_traceback():
    # fd 1 closed under a running interpreter, then as in `csaclass ... >&-`,
    # where the interpreter starts with sys.stdout None.
    for closing in ("import os, runpy; os.close(1); "
                    "runpy.run_module('csaclass.cli', run_name='__main__')",
                    "import os, sys; os.close(1); os.execv(sys.executable, "
                    "[sys.executable, '-m', 'csaclass.cli', *sys.argv[1:]])"):
        proc = spawn("-c", closing, "--config", str(CONFIG_PATH), "classnum",
                     stdout=None, timeout=60)
        assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.parametrize("flag,loaded", [("--config", b"False"),
                                         ("--conf", b"True")])
def test_only_argparse_reads_odd_command_lines(flag, loaded):
    # A fresh interpreter: a plain run never imports argparse; an
    # abbreviated option is read by argparse, to the same report.
    proc = spawn("-c", "import sys; from csaclass.cli import main; "
                 "code = main(sys.argv[1:]); "
                 "print('argparse' in sys.modules, file=sys.stderr); "
                 "sys.exit(code)", flag, str(CONFIG_PATH), "classnum",
                 timeout=60)
    want = (GOLDEN_DIR / "dvg-example.classnum.json").read_bytes()
    assert (proc.returncode, proc.stdout, proc.stderr.strip()) == (
        0, want, loaded)


# q = 2, n = 2, ramified at T and infinity, with the Iwahori order at a
# split place of degree 15000: its theta factor at s = 1 and the mass have
# more than 4300 digits.
BIG_PLACE_CONFIG = json.dumps({
    "base": {"type": "rational_function_field", "q": 2}, "degree": 2,
    "ramification": [{"place": "T", "degree": 1, "invariant": "1/2"},
                     {"place": "infinity", "invariant": "1/2"},
                     {"place": "P", "degree": 15000}],
    "order": {"invariants": {"P": [1, 1]}}})

FAILED_SELFCHECK = ('{\n  "all_passed": false,\n  "checks": {\n'
                    '    "mass_consistency": false,\n'
                    '    "rotation_invariance": true,\n'
                    '    "theta_engines_agree": true\n  }\n}\n')

# id: (config, argv, what to patch, stdout, exit code, stdout text, stderr
# text); "{cap}" in stderr is the interpreter's digit cap.
_OUTCOMES = {
    "negative budget": (
        "dvg", ["--budget", "-1", "mass"], None, "capture", 2, "",
        "error: --budget: must be >= 0, got -1\n"),
    "missing file": (
        None, ["mass"], None, "capture", 2, "",
        "error: cannot read config: [Errno 2] No such file or directory: "
        "'/nonexistent/config.json'\n"),
    "config error": (
        "[]", ["mass"], None, "capture", 2, "",
        "error: schema: top level must be an object\n"),
    "command error": (
        "dvg", ["theta", "--place", "X", "--s", "1"], None, "capture", 2, "",
        "error: --place: unknown place 'X'\n"),
    "integrality": (
        "dvg", ["classnum"], "csaclass.classnum.mass_hereditary", "capture",
        3, "", "error: weight class numbers resum to 169/5, not to the "
               "mass 1\n"),
    "command budget": (
        "dvg", ["--budget", "1", "transfer", "--s", "2", "--s2", "2"], None,
        "capture", 4, "",
        "error: transfer: place 'T', s = 2: strip states exceed budget of "
        "1\n"),
    "command digits": (
        "big", ["--budget", "3", "theta", "--place", "P", "--s", "1"], None,
        "capture", 4, "",
        "error: theta: integer of more than {cap} digits exceeds budget of "
        "3\n"),
    "output digits": (
        "big", ["--budget", "3", "mass"], None, "capture", 4, "",
        "error: output: integer of more than {cap} digits exceeds budget of "
        "3\n"),
    "failed selfcheck": (
        "dvg", ["selfcheck"], "csaclass.classnum.mass_hereditary", "capture",
        1, FAILED_SELFCHECK, ""),
    "gone reader": (
        "dvg", ["classnum"], None, "closed pipe", 1, "", ""),
    "stdout none": (
        "dvg", ["classnum"], None, "none", 1, "", ""),
    "stdout ebadf": (
        "dvg", ["classnum"], None, "bad descriptor", 1, "", ""),
}


@pytest.mark.parametrize("case", list(_OUTCOMES))
def test_main_maps_each_outcome_to_its_exit_code(tmp_path, monkeypatch,
                                                 case):
    config, argv, patched, stdout, code, want_out, want_err = _OUTCOMES[case]
    cap = _digit_cap()
    if "{cap}" in want_err and not cap:
        pytest.skip("this interpreter has no cap on digits")
    if config is None:
        path = "/nonexistent/config.json"
    elif config == "dvg":
        path = str(CONFIG_PATH)
    else:
        path = str(tmp_path / "config.json")
        pathlib.Path(path).write_text(
            BIG_PLACE_CONFIG if config == "big" else config, encoding="utf-8")
    if patched:
        monkeypatch.setattr(patched, lambda order, maximal=None: Fraction(1))
    out = {"capture": io.StringIO, "closed pipe": _ClosedPipe,
           "none": lambda: None, "bad descriptor": _BadDescriptor}[stdout]()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main(["--config", path, *argv])
    assert (got, out.getvalue() if out else "", err.getvalue()) == (
        code, want_out, want_err.format(cap=cap))
    assert _digit_cap() == cap


# Invariant spellings: ints, signs (doubled ones too), whitespace,
# underscores, Arabic-Indic digits, decimals, exponents and broken slashes.
_SPELLINGS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.builds(
        "{}{}{}{}{}{}".format,
        st.sampled_from(("", " ", "\t", " \n")),
        st.sampled_from(("", "+", "-", "--", "+-", "-+", "++")),
        st.text("0123456789", max_size=4) | st.sampled_from(("1_0", "١")),
        st.sampled_from(("", "/", "//", " / ", ".", "e", "E-")),
        st.text("0123456789", max_size=4) | st.sampled_from(("0", "٢")),
        st.sampled_from(("", " ", "\t"))),
    st.sampled_from(("", "/", "1/", "/2", "1/0", "0/0", "-0/0", "1//2",
                     "1/2/3", "2/4", "-2/4", "+2/-4", "0.5", "-.5", "1e3",
                     "1_000/3", "١/٢", "--1/3", "-0/7", "+0")),
    st.text("0123456789+-/ ._e١", max_size=8))


@settings(max_examples=400, deadline=None)
@given(value=_SPELLINGS)
def test_invariant_reader_matches_fraction(value):
    # The int() reader of plain spellings against Fraction(str(x)), the
    # reader of every other spelling: both refuse with the same line, or
    # both give the same (kappa, d).
    try:
        want = Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        want = None
    doc = json.loads(IWAHORI_CONFIG)
    doc["ramification"][0]["invariant"] = value
    try:
        got = parse_config(json.dumps(doc)).order.algebra.place("v0")
    except ConfigError as exc:
        got = exc.errors
    if want is None:
        assert got == ["ramification[0].invariant: not a fraction"]
    elif isinstance(got, list):  # read, then refused for what it reads as
        assert not any("invariant: not a" in line for line in got), got
    else:
        assert (got.invariant_num, got.local_index) == (
            want.numerator, want.denominator)
    if type(value) is str:
        try:
            parts = cli._fraction_parts(value)
        except (ValueError, ZeroDivisionError):
            parts = None
        assert parts == (None if want is None
                         else (want.numerator, want.denominator))



@pytest.mark.parametrize("invariant", ["1e5000", "1E-5000"])
def test_an_invariant_past_the_digit_cap_exits_2(tmp_path, capsys, invariant):
    # Fraction reads these; the reciprocity and local index messages would
    # print a number of more than 4300 digits, and used to raise from there.
    if not _digit_cap():
        pytest.skip("this interpreter has no cap on digits")
    doc = json.loads(GOLDEN_CONFIG)
    doc["ramification"][0]["invariant"] = invariant
    code = main(["--config", _write_config(tmp_path, doc), "mass"])
    assert (code, *capsys.readouterr()) == (
        2, "", f"error: schema: an integer has more than {_digit_cap()} "
               "digits\n")


def test_a_pic_order_message_past_the_digit_cap_exits_2(tmp_path, capsys):
    # Each coefficient has 4300 digits and reads in; the pic_order message
    # would print P(1) = 1 + 18 * 10^4299, of 4301 digits.
    if not _digit_cap():
        pytest.skip("this interpreter has no cap on digits")
    big = 9 * 10 ** 4299
    doc = json.loads(GOLDEN_CONFIG)
    doc["base"] = {"type": "custom", "q": 3, "l_polynomial": [1, big, big],
                   "pic_order": 5}
    path = _write_config(tmp_path, doc)
    with pytest.warns(UserWarning, match="functional equation"):
        code = main(["--config", path, "mass"])
    assert (code, *capsys.readouterr()) == (
        2, "", f"error: schema: an integer has more than {_digit_cap()} "
               "digits\n")


def test_invariant_spellings_give_the_same_report(tmp_path, capsys):
    doc = {"base": {"type": "rational_function_field", "q": 3}, "degree": 2,
           "ramification": [{"place": "T", "degree": 1},
                            {"place": "T+1", "degree": 1},
                            {"place": "T+2", "degree": 1},
                            {"place": "infinity"}]}
    reports = []
    for spellings in (["1/2"] * 4, ["+1/2", " 1/2 ", "2/4", "0.5"]):
        for entry, spelled in zip(doc["ramification"], spellings):
            entry["invariant"] = spelled
        assert main(["--config", _write_config(tmp_path, doc),
                     "classnum"]) == 0
        reports.append(capsys.readouterr())
    assert reports[0] == reports[1]
    assert reports[0].err == ""


@pytest.mark.parametrize("vec,line", [
    ([], "order.invariants['U']: invariant vector must be non-empty"),
    ("", "order.invariants['U']: invariant vector must be non-empty"),
    (5, "order.invariants['U']: 'int' object is not iterable"),
    ([1, True], "order.invariants['U']: entry 1 is not an integer"),
    ([0, 2], "order: place 'U': invariant entries must be positive"),
    ([1, 2], "order: place 'U': invariant sums to 3, expected 2"),
])
def test_order_invariant_messages(tmp_path, capsys, vec, line):
    # The CLI checks entry types and emptiness; OrderSpec normalises the
    # vector once and checks its entries and sum.
    doc = json.loads(IWAHORI_CONFIG)
    doc["ramification"][2]["place"] = "U"
    doc["order"]["invariants"] = {"U": vec}
    code = main(["--config", _write_config(tmp_path, doc), "mass"])
    assert (code, capsys.readouterr()) == (2, ("", f"error: {line}\n"))


def test_classnum_builds_one_base_field(tmp_path, capsys, monkeypatch):
    # Each level's L_s is `constant_extension`'s, built without the checks
    # of `BaseField`: the one checked BaseField is the config's, whatever
    # the number of levels.
    built = []
    new = BaseField.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(BaseField, "__new__", staticmethod(counting))
    code, out = run_cli(capsys, "--config", str(CONFIG_PATH), "classnum")
    assert code == 0 and len(json.loads(out)["h"]) == 3
    assert built == [(3, (1,), 1)]


def test_classnum_over_a_large_prime_q_finishes():
    # q = 100000000000031 is prime: a checked BaseField of q^2 would
    # trial-divide up to q itself.
    proc = spawn("-m", "csaclass.cli", "--config",
                 str(REACH_DIR / "bigq.json"), "--budget", "10", "classnum",
                 text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert (report["h"], report["h_total"]) == ({"1": 0, "2": 1}, 1)


# Reach runs in a process, each within its time bound and under the default
# budget unless it sets one.  A split place of degree 10^8 gives theta 1
# with no power of q.  Over the prime q = 100000000000031, transfer solves
# its derived sum on the algebra's own levels and builds no algebra over
# q^2; over a curve with that q, the field of q^2 is built unchecked.  A
# maximal order of degree 720 settles all 30 levels of s0 = 720; with
# infinity of degree 2, an even s gives the places above infinity local
# index 1440/s, which does not divide 720/s, so s0 = 45.
@pytest.mark.parametrize("config,argv,seconds,needle", [
    ("split1e8", ("--budget", "10", "classnum"), 10, '"s0": 2,'),
    ("bigq", ("--budget", "10", "transfer", "--s", "2", "--s2", "2"), 10,
     '"equal": true'),
    ("bigq-curve", ("--budget", "10", "classnum"), 10, '"s0": 2,'),
    ("m720", ("classnum",), 20, '"s0": 720,'),
    ("m720-infinity2", ("classnum",), 20, '"s0": 45,'),
], ids=["split1e8", "bigq-transfer", "bigq-curve", "m720", "m720-infinity2"])
def test_reach_run_finishes_in_a_process(config, argv, seconds, needle):
    proc = spawn("-m", "csaclass.cli", "--config",
                 str(REACH_DIR / f"{config}.json"), *argv,
                 text=True, timeout=seconds)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert needle in proc.stdout


@pytest.mark.parametrize("path", sorted(ROOT.glob("configs/**/*.json")),
                         ids=lambda path: path.relative_to(ROOT).as_posix())
def test_every_config_parses(path):
    # Configs without a golden file are read here, so none of them rots.
    parse_config(path.read_text(encoding="utf-8"))
