"""End-to-end checks of the command-line front door.

Everything runs through ``cli.main`` in-process (argv lists, tmp_path
output dirs); one subprocess test covers the ``python -m`` wiring.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cascade_secrecy import cli
from cascade_secrecy import search as search_mod
from cascade_secrecy import simulation
from cascade_secrecy.bounds import side_info_to_json
from cascade_secrecy.cli import _config_hash, _round_floats, main
from cascade_secrecy.payoff import payoff_to_json
from cascade_secrecy.probability import Alphabet, Pmf, pmf_to_json
from cascade_secrecy.simulation import (
    IndexBits,
    SchemeSpec,
    SystemTable,
    run_system_exact,
    scheme_spec_to_json,
)
from cascade_secrecy.ternary import corner_candidate, ternary_example

EX = ternary_example()


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("index_bits", "a"), -1, "index bits a must be an integer >= 0, got -1"),
        (("index_bits", "key"), 1.5, "index bits key must be an integer >= 0, got 1.5"),
        (("n",), 0, "blocklength n must be an integer >= 1, got 0"),
    ],
    ids=["negative_bits", "fractional_key", "zero_blocklength"],
)
def test_simulate_rejects_a_count_that_is_no_count(tmp_path, capsys, path, value, message):
    config = corner_sim_config()
    scheme = config["problem"]["scheme"]
    for key in path[:-1]:
        scheme = scheme[key]
    scheme[path[-1]] = value
    cfg = write_config(tmp_path, config)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "problem.scheme" in err and message in err
    assert not (tmp_path / "simulate_audit.json").exists()


def data_rows(csv_text):
    lines = [ln for ln in csv_text.splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def bounds_problem(caps):
    return {
        "p_x": pmf_to_json(EX.p_x),
        "payoff": payoff_to_json(EX.payoff),
        "side": side_info_to_json(EX.side),
        "budget": {"r0": 1.0, "r1": "inf", "r2": "inf"},
        "caps": caps,
    }


def corner_sim_config(samples=0, trace=False, seed=7, cell_cap=None):
    spec = SchemeSpec(
        n=1,
        inner=corner_candidate(1),
        index_bits=IndexBits(1, 1, 2, 1, 2),
        side=EX.side,
        seed=0,
    )
    problem = {
        "scheme": scheme_spec_to_json(spec),
        "payoff": payoff_to_json(EX.payoff),
        "secret_set": ["X"],
    }
    if trace:
        problem["trace"] = True
    if cell_cap is not None:
        problem["cell_cap"] = cell_cap
    return {"seed": seed, "samples": samples, "problem": problem}


# ---------------------------------------------------------------------------
# example


def test_example_curve_csv(tmp_path):
    assert main(["example", "--out", str(tmp_path)]) == 0
    raw = (tmp_path / "example_curve.csv").read_bytes()
    assert b"\r" not in raw
    text = raw.decode("utf-8")
    assert "# config_sha256=" in text
    assert "# seed=0" in text
    assert "# version=0.1.0" in text
    # threshold note states the open conditions on the message rates
    assert "R1 > 1.58496250072" in text
    header, rows = data_rows(text)
    assert header == ["R0", "Pi_analytic", "Pi_evaluated"]
    assert len(rows) == 10
    assert ["1", "0.5", "0.5"] in rows
    # 12 significant digits on the irrational grid point
    assert any(r[0] == "1.58496250072" for r in rows)


def test_example_custom_grid(tmp_path):
    cfg = write_config(tmp_path, {"problem": {"grid": [0.0, 0.5, 2.0]}})
    assert main(["example", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = data_rows((tmp_path / "example_curve.csv").read_text())
    assert [r[0] for r in rows] == ["0", "0.5", "2"]
    assert rows[1][1] == "0.25"


# ---------------------------------------------------------------------------
# schema errors: nonzero exit naming the offending field path


@pytest.mark.parametrize(
    "body,needle",
    [
        ({"seed": 0, "problem": {}}, "problem.p_x"),
        ({"seed": "zero", "problem": {}}, "seed"),
        ({"seed": -1, "problem": {}}, "seed"),
        ({"seed": 0, "problem": "nope"}, "problem"),
    ],
)
def test_schema_error_paths(tmp_path, capsys, body, needle):
    cfg = write_config(tmp_path, body)
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("tol", [0, -1, math.inf])
@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_tol_must_be_a_finite_number_above_zero(tmp_path, monkeypatch, capsys, source, tol):
    # tol <= 0 failed every grid point, reported as a verification mismatch
    # (exit 1), and tol = inf passed every one
    args = ["example", "--out", str(tmp_path)]
    if source == "flag":
        args += ["--tol", str(tol)]
    elif source == "env":
        monkeypatch.setenv("CASCADE_SECRECY_TOL", str(tol))
    else:
        args += ["--config", write_config(tmp_path, {"tol": tol})]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: tol: must be a finite number > 0")


@pytest.mark.parametrize(
    "field,value,needle",
    [
        ("budget", {"r0": "oops", "r1": "inf", "r2": "inf"}, "problem.budget.r0"),
        ("r0_grid", [], "problem.r0_grid"),
        ("caps", {"u1": 1, "u2": 1, "v1": 1, "v2": 1, "u3": 7}, "problem.caps.u3"),
        ("budget", {"r0": -1, "r1": "inf", "r2": "inf"}, "problem.budget.r0"),
        ("r0_grid", [-0.5], "problem.r0_grid[0]"),
    ],
    ids=["budget", "empty_r0_grid", "unknown_cap", "negative_budget", "negative_r0_grid"],
)
def test_budget_field_path(tmp_path, capsys, field, value, needle):
    problem = bounds_problem({"u1": 1, "u2": 1, "v1": 1, "v2": 1})
    problem[field] = value
    cfg = write_config(tmp_path, {"seed": 0, "problem": problem})
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert needle in capsys.readouterr().err
    # rejected before any search or output
    assert not (tmp_path / "bounds_result.json").exists()


def test_missing_config_file(tmp_path, capsys):
    assert main(["bounds", "--config", str(tmp_path / "absent.json")]) == 2
    assert "config" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["bounds", "--config", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_seed_required_for_stochastic(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"problem": bounds_problem({"u1": 1, "u2": 1, "v1": 1, "v2": 1})}
    )
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "seed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bounds


def test_bounds_caps_all_one_infeasible(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"seed": 0, "restarts": 2, "problem": bounds_problem({"u1": 1, "u2": 1, "v1": 1, "v2": 1})},
    )
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 3
    reason = json.loads(capsys.readouterr().err)
    assert reason["status"] == "infeasible"
    assert reason["reason"]
    # the result file still records the failed points
    result = json.loads((tmp_path / "bounds_result.json").read_text())
    assert result["best"] is None
    assert result["points"][0]["feasible"] is False
    _, rows = data_rows((tmp_path / "bounds_frontier.csv").read_text())
    assert rows == []


def test_bounds_feasible_csv_and_json(tmp_path):
    # enum_limit 0 keeps this a wiring test; search quality is covered
    # by the acceptance suite at full strength
    problem = dict(
        bounds_problem({"u1": 3, "u2": 2, "v1": 9, "v2": 6}),
        refine_top=2,
        enum_limit=0,
        r0_grid=[1.0, 2.0],
    )
    cfg = write_config(tmp_path, {"seed": 1, "restarts": 2, "problem": problem})
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = data_rows((tmp_path / "bounds_frontier.csv").read_text())
    assert header == ["R0", "R1", "R2", "Pi"]
    assert len(rows) == 2
    for row, budget in zip(rows, (1.0, 2.0)):
        r0, r1, r2, pi = map(float, row)
        assert r0 <= budget + 1e-9
        assert 0.0 <= pi <= 2.0 / 3.0 + 1e-9
    result = json.loads((tmp_path / "bounds_result.json").read_text())
    assert [p["r0_budget"] for p in result["points"]] == [1.0, 2.0]
    assert result["best"]["feasible"] is True
    assert result["best"]["candidate"] is not None
    assert "wall_time" not in json.dumps(result)
    prov = result["provenance"]
    assert prov["seed"] == 1 and prov["version"] == "0.1.0"
    assert len(prov["config_sha256"]) == 64


def test_round_floats_leaves():
    """Every leaf kind keeps its rounding, so config hashes stay put."""
    got = _round_floats({
        "f32": np.float32(0.1),
        "f64": np.float64(1.0 / 3.0),
        "i64": np.int64(7),
        "flag": True,
        "inf": math.inf,
        "ninf": np.float64(-math.inf),
        "nzero": -0.0,
        "nested": ((1, 2.5), [np.float32(0.5), None]),
        "none": None,
        "long": 123456789.123456789,
    })
    assert got == {
        "f32": 0.10000000149,
        "f64": 0.333333333333,
        "i64": 7,
        "flag": True,
        "inf": "inf",
        "ninf": "-inf",
        "nzero": 0.0,
        "nested": [[1, 2.5], [0.5, None]],
        "none": None,
        "long": 123456789.123,
    }
    assert type(got["i64"]) is int and got["flag"] is True
    assert math.copysign(1.0, got["nzero"]) == -1.0


def test_config_hash_of_simulate_n2_config():
    # the benchmark's simulate_n2 configuration (codebook seed 3, Monte
    # Carlo seed 5); a golden digest, so any change in how leaves are
    # rounded shows here
    spec = SchemeSpec(
        n=2, inner=corner_candidate(1), index_bits=IndexBits(2, 3, 3, 1, 5),
        side=EX.side, seed=3,
    )
    config = {
        "seed": 5,
        "samples": 400,
        "problem": {
            "scheme": scheme_spec_to_json(spec),
            "payoff": payoff_to_json(EX.payoff),
            "secret_set": ["X"],
        },
    }
    assert _config_hash(config) == (
        "1cf68afe8c5fc7d4bf39d4413406b5f6571588dd351dea6b62944d4eb020f3c6"
    )


def test_a_leftover_workers_key_leaves_the_run_hash(tmp_path):
    # the simulate_n2 configuration again: a config that still holds the
    # removed ``workers`` option loads, and the provenance hash is the same
    spec = SchemeSpec(
        n=2, inner=corner_candidate(1), index_bits=IndexBits(2, 3, 3, 1, 5),
        side=EX.side, seed=3,
    )
    config = {
        "seed": 5,
        "samples": 400,
        "problem": {
            "scheme": scheme_spec_to_json(spec),
            "payoff": payoff_to_json(EX.payoff),
            "secret_set": ["X"],
        },
    }
    hashes = []
    for extra in ({}, {"workers": 4}):
        cfg = write_config(tmp_path, {**config, **extra})
        args = cli._build_parser().parse_args(["simulate", "--config", cfg, "--out", str(tmp_path)])
        hashes.append(cli._load_config(args).hash)
    assert hashes == ["ff1aff90ae63d0b316a30df329e61aaefbe3286e108c8549ca2ea6effa0f00ad"] * 2


# ---------------------------------------------------------------------------
# simulate


def test_simulate_byte_reproducible(tmp_path):
    cfg = write_config(tmp_path, corner_sim_config())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    for name in ("simulate_audit.json", "simulate_results.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    audit = json.loads((a / "simulate_audit.json").read_text())
    assert audit["audit"]["passed"] is True
    assert audit["audit"]["markov_chain_4_bits"] <= 1e-9
    assert audit["audit"]["markov_chain_5_bits"] <= 1e-9
    assert "wall_time" not in json.dumps(audit)
    _, rows = data_rows((a / "simulate_results.csv").read_text())
    metrics = dict(rows)
    assert metrics["payoff_exact"] == "0.319829244829"
    assert "payoff_mc_estimate" not in metrics


def test_simulate_samples_and_trace(tmp_path):
    cfg = write_config(tmp_path, corner_sim_config(samples=30, trace=True))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = data_rows((tmp_path / "simulate_results.csv").read_text())
    metrics = dict(rows)
    assert 0.0 <= float(metrics["payoff_mc_estimate"]) <= 1.0
    assert float(metrics["payoff_mc_se"]) > 0.0
    header, trace_rows = data_rows((tmp_path / "simulate_trace.csv").read_text())
    assert header == ["sample", "t", "history", "posterior_entropy", "action", "payoff"]
    assert len(trace_rows) == 30  # one row per sample per coordinate, n=1


def test_simulate_samples_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, corner_sim_config(samples=0))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--samples", "20"]) == 0
    _, rows = data_rows((tmp_path / "simulate_results.csv").read_text())
    assert "payoff_mc_estimate" in dict(rows)


def test_simulate_cell_cap_infeasible(tmp_path, capsys):
    cfg = write_config(tmp_path, corner_sim_config(cell_cap=10))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
    reason = json.loads(capsys.readouterr().err)
    assert reason["status"] == "infeasible"
    assert "cells" in reason["reason"]


def test_simulate_rejects_one_sample_before_building(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the exact table was built")

    monkeypatch.setattr(cli, "run_system_exact", unreachable)
    cfg = write_config(tmp_path, corner_sim_config(samples=1))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "samples" in capsys.readouterr().err
    assert not (tmp_path / "simulate_audit.json").exists()


@pytest.mark.parametrize("epsilon", ["0.25", True])
def test_simulate_rejects_an_epsilon_that_is_no_number(tmp_path, capsys, epsilon):
    config = corner_sim_config()
    config["problem"]["scheme"]["epsilon"] = epsilon
    cfg = write_config(tmp_path, config)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "problem.scheme" in err and "epsilon" in err
    assert not (tmp_path / "simulate_audit.json").exists()


def test_simulate_rejects_an_infinite_epsilon(tmp_path, capsys):
    # json reads "epsilon": Infinity as a float, which the scheme took
    config = corner_sim_config()
    config["problem"]["scheme"]["epsilon"] = math.inf
    cfg = write_config(tmp_path, config)
    assert '"epsilon": Infinity' in (tmp_path / "config.json").read_text()
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "problem.scheme" in err and "epsilon must be a finite number >= 0" in err
    assert not (tmp_path / "simulate_audit.json").exists()


def test_simulate_compiles_once(tmp_path, monkeypatch):
    # the exact table and the Monte Carlo share one compiled scheme, one
    # codebook draw and one encoder table
    calls = {}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(simulation, "build_codebooks")
    counted(simulation, "_encoder_table")
    counted(simulation._Scheme, "__init__")
    cfg = write_config(tmp_path, corner_sim_config(samples=20, trace=True))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert calls == {"build_codebooks": 1, "_encoder_table": 1, "__init__": 1}


def _y3_from_mc(p):
    # Y3 := Mc mod |Y3|: node 3 reads a message it never receives
    head = p.sum(axis=-1)
    out = np.zeros_like(p)
    for mc in range(p.shape[3]):
        out[:, :, :, mc, ..., mc % p.shape[-1]] = head[:, :, :, mc]
    return out


def _y2_from_source(p):
    # X uniform and independent of the codewords, Y2 := X
    keyed = p.sum(axis=(5, 6))
    out = np.zeros_like(p)
    for x in range(p.shape[5]):
        out[..., x, x, :] = keyed / p.shape[5]
    return out


def _skewed_key(p):
    weights = np.linspace(0.5, 1.5, p.shape[0])
    return p * weights.reshape((-1,) + (1,) * (p.ndim - 1))


@pytest.mark.parametrize(
    "tamper, field, threshold",
    [
        (_y3_from_mc, "markov_chain_5_bits", 1e-9),
        (_y2_from_source, "markov_chain_4_bits", 1e-9),
        (_skewed_key, "key_uniformity_gap", 1e-12),
    ],
    ids=["chain-5", "chain-4", "key"],
)
def test_simulate_audit_fails_loudly(tmp_path, monkeypatch, tamper, field, threshold):
    def tampered(spec, **kwargs):
        honest = run_system_exact(spec, **kwargs)
        table = tamper(honest.table)
        index = np.flatnonzero(table)
        return SystemTable(spec, honest.codebooks, index, table.ravel()[index])

    monkeypatch.setattr(cli, "run_system_exact", tampered)
    cfg = write_config(tmp_path, corner_sim_config())
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_MISMATCH
    audit = json.loads((tmp_path / "simulate_audit.json").read_text())["audit"]
    assert audit["passed"] is False
    assert audit[field] > threshold


# ---------------------------------------------------------------------------
# equivocation


def equiv_config(r0_grid=None):
    hamming = [[0.0, 1.0], [1.0, 0.0]]
    problem = {
        "p_x": pmf_to_json(Pmf.uniform(Alphabet("X", 2, ("0", "1")))),
        "secret_set": ["X"],
        "y2_alphabet": {"name": "Y2", "size": 2, "labels": ["0", "1"]},
        "y3_alphabet": {"name": "Y3", "size": 2, "labels": ["0", "1"]},
        "d1": hamming,
        "d2": hamming,
        "max_d1": 1.0,
        "max_d2": 1.0,
        "r0": 1.0,
        "cap_v1": 2,
        "cap_v2": 2,
    }
    if r0_grid is not None:
        problem["r0_grid"] = r0_grid
    return {"seed": 3, "restarts": 4, "problem": problem}


def test_equivocation_alphabet_field_path(tmp_path, capsys):
    config = equiv_config()
    config["problem"]["y2_alphabet"] = "Y2"  # a name, not an alphabet object
    cfg = write_config(tmp_path, config)
    assert main(["equivocation", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "problem.y2_alphabet" in capsys.readouterr().err


def test_equivocation_result_json(tmp_path):
    cfg = write_config(tmp_path, equiv_config())
    assert main(["equivocation", "--config", cfg, "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "equivocation_result.json").read_text())
    assert result["result"]["feasible"] is True
    # distortion budget 1.0 is vacuous for binary Hamming, so the blank
    # disclosure leaks nothing and equivocation hits H(X) = 1 bit
    assert result["result"]["value"] == 1.0
    assert result["result"]["candidate"] is not None
    assert "sweep" not in result


def test_equivocation_sweep(tmp_path):
    cfg = write_config(tmp_path, equiv_config(r0_grid=[0.0, 0.5, 1.0]))
    assert main(["equivocation", "--config", cfg, "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "equivocation_result.json").read_text())
    values = [p["value"] for p in result["sweep"]]
    assert [p["r0"] for p in result["sweep"]] == [0.0, 0.5, 1.0]
    assert values == sorted(values)


def test_equivocation_screens_the_family_once(tmp_path, monkeypatch):
    # the search at problem.r0 and the sweep share one screening
    screen_equiv = search_mod._screen_equiv
    calls = []

    def counted(problem):
        calls.append(problem)
        return screen_equiv(problem)

    monkeypatch.setattr(search_mod, "_screen_equiv", counted)
    cfg = write_config(tmp_path, equiv_config(r0_grid=[0.0, 0.5, 1.0]))
    assert main(["equivocation", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_equivocation_sweep_matches_the_library_sweep(tmp_path):
    # with r0 at the first grid point the command's own search repeats the
    # sweep's first one, so its curve is the library's
    body = equiv_config(r0_grid=[0.0, 0.4, 0.9, 1.3])
    body["problem"].update(max_d1=0.0, max_d2=0.0, r0=0.0, cap_v1=3, cap_v2=3)
    cfg = write_config(tmp_path, body)
    assert main(["equivocation", "--config", cfg, "--out", str(tmp_path)]) == 0
    sweep = json.loads((tmp_path / "equivocation_result.json").read_text())["sweep"]
    problem = cli._equiv_problem(body["problem"])
    points = search_mod.equivocation_sweep(problem, [0.0, 0.4, 0.9, 1.3], restarts=4, seed=3)
    assert sweep == _round_floats([{"r0": p.r0, "value": p.value} for p in points])


@pytest.mark.parametrize(
    "r0, r0_grid, path",
    [
        (math.nan, None, "problem.r0"),
        (1.0, [0.0, math.nan], "problem.r0_grid[1]"),
        (-1.0, None, "problem.r0"),
        (1.0, [0.5, -1.0], "problem.r0_grid[1]"),
    ],
    ids=["r0", "r0_grid", "negative_r0", "negative_r0_grid"],
)
def test_equivocation_nan_key_rate(tmp_path, capsys, r0, r0_grid, path):
    # JSON's NaN would otherwise publish full equivocation
    body = equiv_config(r0_grid=r0_grid)
    body["problem"]["r0"] = r0
    cfg = write_config(tmp_path, body)
    assert main(["equivocation", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert path in capsys.readouterr().err
    assert not (tmp_path / "equivocation_result.json").exists()


def test_equivocation_empty_r0_grid(tmp_path, capsys):
    # rejected before any search or output, as for bounds
    cfg = write_config(tmp_path, equiv_config(r0_grid=[]))
    assert main(["equivocation", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "problem.r0_grid" in capsys.readouterr().err
    assert not (tmp_path / "equivocation_result.json").exists()


def test_equivocation_field_path(tmp_path, capsys):
    body = equiv_config()
    del body["problem"]["d2"]
    cfg = write_config(tmp_path, body)
    assert main(["equivocation", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "problem.d2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, owner, name, field",
    [
        ("bounds", search_mod._InnerEvaluator, "stats", "pi"),
        ("equivocation", search_mod, "_equiv_stats", "value"),
    ],
    ids=["bounds", "equivocation"],
)
def test_verification_mismatch_exits_1(tmp_path, capsys, monkeypatch, command, owner, name, field):
    # a fast evaluator that drifts from the reference ends in exit code 1
    # with a message, not in a traceback
    original = getattr(owner, name)

    def shifted(*args):
        out = original(*args)
        setattr(out, field, getattr(out, field) + 1e-6)
        return out

    monkeypatch.setattr(owner, name, shifted)
    if command == "bounds":
        problem = dict(
            bounds_problem({"u1": 3, "u2": 2, "v1": 9, "v2": 6}), refine_top=2, enum_limit=0
        )
        body = {"seed": 1, "restarts": 2, "problem": problem}
    else:
        body = equiv_config()
    cfg = write_config(tmp_path, body)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: verification mismatch: search winner {field}=")


# ---------------------------------------------------------------------------
# overrides and wiring


def test_env_and_flag_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("CASCADE_SECRECY_SEED", "99")
    assert main(["example", "--out", str(tmp_path / "env")]) == 0
    assert "# seed=99" in (tmp_path / "env" / "example_curve.csv").read_text()
    # a flag beats the environment
    assert main(["example", "--out", str(tmp_path / "flag"), "--seed", "5"]) == 0
    assert "# seed=5" in (tmp_path / "flag" / "example_curve.csv").read_text()


def test_env_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("CASCADE_SECRECY_OUT", str(tmp_path / "fromenv"))
    assert main(["example"]) == 0
    assert (tmp_path / "fromenv" / "example_curve.csv").is_file()


def test_bad_env_value(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CASCADE_SECRECY_SEED", "not-a-number")
    assert main(["example", "--out", str(tmp_path)]) == 2
    assert "CASCADE_SECRECY_SEED" in capsys.readouterr().err


def test_workers_is_no_longer_an_option(tmp_path, monkeypatch):
    with pytest.raises(SystemExit) as err:
        main(["bounds", "--workers", "2", "--out", str(tmp_path)])
    assert err.value.code == 2
    # nor an environment variable: an unparsable value is never read
    monkeypatch.setenv("CASCADE_SECRECY_WORKERS", "abc")
    assert main(["example", "--out", str(tmp_path)]) == 0


def test_python_dash_m(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cascade_secrecy", "example", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "example_curve.csv").is_file()
