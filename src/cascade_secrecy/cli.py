"""Batch front door: four subcommands over JSON configs.

``bounds`` searches the achievable region under rate budgets,
``simulate`` builds and audits an exact finite-blocklength system,
``example`` reproduces the ternary worked example's key-rate curve, and
``equivocation`` maximizes secrecy under distortion budgets.

Configs are JSON; tabular results are CSV (UTF-8, LF, 12 significant
digits, ``#``-prefixed provenance comments); every output embeds the
effective config hash, the seed, and the package version, and is
byte-reproducible from those.  Flags override environment variables
(prefix ``CASCADE_SECRECY_``, e.g. ``CASCADE_SECRECY_SEED``), which
override config-file values.

Exit codes: 0 success, 1 verification mismatch, 2 config/schema error
(message carries the offending field path), 3 infeasible problem
(machine-readable JSON reason on stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bounds import side_info_from_json
from .payoff import LogLossPayoff, payoff_from_json
from .probability import (
    CapExceededError,
    ZeroProbabilityError,
    _alphabet_from_json,
    _clamped,
    _entropy_of,
    pmf_from_json,
)
from .search import (
    CardinalityCaps,
    EquivocationProblem,
    InnerSearchProblem,
    RateBudget,
    VerificationError,
    _equivocation_searcher,
    _inner_searcher,
    _sweep_rates,
)
from .simulation import (
    DEFAULT_CELL_CAP,
    empirical_equivocation,
    mc_estimate,
    run_system_exact,
    scheme_spec_from_json,
    simulate_payoff,
)
from .ternary import DEFAULT_GRID, LOG2_3, verify_example

__all__ = ["main", "VERSION", "ENV_PREFIX"]

VERSION = "0.1.0"
ENV_PREFIX = "CASCADE_SECRECY_"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_SCHEMA = 2
EXIT_INFEASIBLE = 3


class SchemaError(Exception):
    """Config content violates the expected schema at ``path``."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class InfeasibleError(Exception):
    """The configured problem has no feasible answer."""


# ---------------------------------------------------------------------------
# schema helpers


_REQUIRED = object()


def _get(obj: dict, key: str, path: str, default=_REQUIRED):
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return default


def _as_int(value, path: str, *, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise SchemaError(path, f"must be <= {maximum}, got {value}")
    return value


def _as_number(value, path: str, *, allow_inf: bool = False) -> float:
    if value == "inf" and allow_inf:
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)) or math.isnan(value):
        raise SchemaError(path, f"expected a number, got {value!r}")
    return float(value)


def _as_rate(value, path: str) -> float:
    """A rate in bits: a number >= 0, or "inf" for no limit."""
    rate = _as_number(value, path, allow_inf=True)
    if rate < 0:
        raise SchemaError(path, f"must be a rate >= 0, got {rate}")
    return rate


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected an array, got {type(value).__name__}")
    return value


def _built(builder, obj, path: str):
    """Run a module from-JSON builder, converting its errors to the path."""
    try:
        return builder(obj)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise SchemaError(path, str(err) or type(err).__name__) from err


# ---------------------------------------------------------------------------
# output formatting


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if v == -math.inf:
        return "-inf"
    return f"{v:.12g}"


def _round_floats(obj):
    """Clamp every float leaf to 12 significant digits (golden files);
    infinities become the strings "inf" and "-inf", and a zero keeps its
    sign.  Joints are written as their nonzero cells, so a config has a few
    hundred leaves, and each leaf is one call; only an older config's dense
    joint table (118,098 cells at n = 2) makes that cost tens of ms."""
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isinf(v):
            return "-inf" if v < 0 else "inf"
        return float(f"{v:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return int(obj)
    return obj


def _config_hash(effective: dict) -> str:
    canon = json.dumps(_round_floats(effective), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class _Run:
    """Merged run settings plus the provenance stamp shared by outputs."""

    def __init__(self, command: str, control: dict, problem: dict):
        self.command = command
        self.control = control
        self.problem = problem
        # The output directory does not change the results, so it stays
        # out of the hash: equal configs mean equal bytes.
        hashed = {k: v for k, v in control.items() if k != "out"}
        self.hash = _config_hash(
            {"command": command, "control": hashed, "problem": problem}
        )
        self.out_dir = Path(control["out"])

    @property
    def seed(self) -> int:
        return self.control["seed"]

    def provenance(self) -> dict:
        return {
            "config_sha256": self.hash,
            "seed": self.control["seed"],
            "version": VERSION,
        }

    def write_json(self, name: str, payload: dict) -> Path:
        path = self.out_dir / name
        body = dict(payload)
        body["provenance"] = self.provenance()
        text = json.dumps(_round_floats(body), indent=2, sort_keys=True) + "\n"
        path.write_text(text, encoding="utf-8")
        return path

    def csv_comments(self) -> list[str]:
        return [f"# {key}={value}" for key, value in self.provenance().items()]

    def write_csv(self, name: str, header: list[str], rows, extra_comments=()) -> Path:
        path = self.out_dir / name
        lines = self.csv_comments() + list(extra_comments)
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path


# ---------------------------------------------------------------------------
# config assembly: defaults < config file < environment < flags


_CONTROL_DEFAULTS = {
    "seed": None,
    "out": ".",
    "restarts": 64,
    "samples": 0,
    "tol": 1e-6,
}


def _env_value(tag: str):
    raw = os.environ.get(ENV_PREFIX + tag.upper())
    if raw is None:
        return None
    parse = {"seed": int, "restarts": int, "samples": int, "tol": float}.get(tag)
    if parse is None:
        return raw
    try:
        return parse(raw)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise SchemaError(f"env.{ENV_PREFIX}{tag.upper()}", f"expected {kind}, got {raw!r}")


def _load_config(args: argparse.Namespace) -> _Run:
    config_path = args.config or _env_value("config")
    raw: dict = {}
    if config_path:
        path = Path(config_path)
        if not path.is_file():
            raise SchemaError("config", f"no such file: {config_path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise SchemaError("config", f"invalid JSON: {err}") from err
        raw = _as_dict(raw, "config")

    control = dict(_CONTROL_DEFAULTS)
    for tag in control:
        if tag in raw:
            control[tag] = raw[tag]
        env = _env_value(tag)
        if env is not None:
            control[tag] = env
        flag = getattr(args, tag, None)
        if flag is not None:
            control[tag] = flag

    if control["seed"] is not None:
        control["seed"] = _as_int(control["seed"], "seed", minimum=0, maximum=2**64 - 1)
    control["restarts"] = _as_int(control["restarts"], "restarts", minimum=1)
    control["samples"] = _as_int(control["samples"], "samples", minimum=0)
    if control["samples"] == 1:
        raise SchemaError("samples", "needs 0 or at least 2 samples")
    control["tol"] = _as_number(control["tol"], "tol")
    if not 0 < control["tol"] < math.inf:  # 0 fails every check, inf passes every one
        raise SchemaError("tol", f"must be a finite number > 0, got {control['tol']}")
    if not isinstance(control["out"], str):
        raise SchemaError("out", "expected a directory path string")

    problem = _as_dict(raw.get("problem", {}), "problem")

    stochastic = args.command in ("bounds", "equivocation") or (
        args.command == "simulate" and control["samples"] > 0
    )
    if control["seed"] is None:
        if stochastic:
            raise SchemaError("seed", "required for stochastic commands")
        control["seed"] = 0

    run = _Run(args.command, control, problem)
    run.out_dir.mkdir(parents=True, exist_ok=True)
    return run


# ---------------------------------------------------------------------------
# bounds


def _budget_from_json(obj, path: str) -> RateBudget:
    obj = _as_dict(obj, path)
    return RateBudget(*(_as_rate(_get(obj, t, path), f"{path}.{t}") for t in ("r0", "r1", "r2")))


_CAP_TAGS = ("u1", "u2", "v1", "v2")


def _caps_from_json(obj, path: str) -> CardinalityCaps:
    obj = _as_dict(obj, path)
    for tag in obj:
        if tag not in _CAP_TAGS:
            raise SchemaError(f"{path}.{tag}", f"unknown cap, expected one of {_CAP_TAGS}")
    return CardinalityCaps(
        *(_as_int(_get(obj, tag, path), f"{path}.{tag}", minimum=1) for tag in _CAP_TAGS)
    )


def _inner_problem(problem: dict) -> InnerSearchProblem:
    p_x = _built(pmf_from_json, _get(problem, "p_x", "problem"), "problem.p_x")
    payoff = _built(payoff_from_json, _get(problem, "payoff", "problem"), "problem.payoff")
    side = _built(side_info_from_json, _get(problem, "side", "problem"), "problem.side")
    budget = _budget_from_json(_get(problem, "budget", "problem"), "problem.budget")
    caps = _caps_from_json(_get(problem, "caps", "problem"), "problem.caps")
    kwargs = {}
    if isinstance(payoff, LogLossPayoff):
        for tag in ("y2_alphabet", "y3_alphabet"):
            kwargs[tag] = _built(
                _alphabet_from_json, _get(problem, tag, "problem"), f"problem.{tag}"
            )
    return _built(
        lambda _: InnerSearchProblem(p_x, payoff, side, budget, caps, **kwargs),
        None,
        "problem",
    )


def _r0_grid(problem: dict) -> list[float] | None:
    """The optional ``problem.r0_grid``: a nonempty list of key rates."""
    grid = problem.get("r0_grid")
    if grid is None:
        return None
    grid = _as_list(grid, "problem.r0_grid")
    grid = [_as_rate(g, f"problem.r0_grid[{i}]") for i, g in enumerate(grid)]
    if not grid:
        raise SchemaError("problem.r0_grid", "expected at least one key rate")
    return grid


def _strip_result(obj: dict, keep_candidate: bool) -> dict:
    out = dict(obj)
    out.pop("wall_time", None)  # timing is not part of the reproducible record
    if not keep_candidate:
        out.pop("candidate", None)
    return out


def _run_bounds(run: _Run) -> int:
    prob = _inner_problem(run.problem)
    search_kwargs = {}
    for tag in ("refine_top", "enum_limit"):
        if tag in run.problem:
            search_kwargs[tag] = _as_int(run.problem[tag], f"problem.{tag}", minimum=0)
    grid = _r0_grid(run.problem) or [prob.budget.r0]
    # one screening of the maps serves every key rate
    search = _inner_searcher(prob, run.control["restarts"], **search_kwargs)
    results = [(g, search(g, run.seed)) for g in grid]

    feasible = [(g, r) for g, r in results if r.feasible]
    points = [
        dict(_strip_result(r.to_json(), keep_candidate=False), r0_budget=g)
        for g, r in results
    ]
    best = max(feasible, key=lambda gr: gr[1].tuple.pi, default=None)
    payload = {
        "points": points,
        "best": _strip_result(best[1].to_json(), keep_candidate=True) if best else None,
    }
    json_path = run.write_json("bounds_result.json", payload)
    rows = [
        (r.tuple.r0, r.tuple.r1, r.tuple.r2, r.tuple.pi) for _, r in feasible
    ]
    csv_path = run.write_csv("bounds_frontier.csv", ["R0", "R1", "R2", "Pi"], rows)
    print(f"wrote {json_path} and {csv_path} ({len(rows)} feasible point(s))")
    if not feasible:
        raise InfeasibleError(results[0][1].message or "no candidate satisfied the budgets")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _audit(spec, table) -> dict:
    """Key uniformity and independence and both Markov chains of the exact
    system ``table``.  Every entropy is read off the grouped sums of its
    stored cells (``SystemTable.sums``); nothing dense is built but the
    key marginal P(K)."""
    xs, y2s, y3s = (tuple(f"{p}{t + 1}" for t in range(spec.n)) for p in ("X", "Y2_", "Y3_"))
    km = ("K", "Ma", "Mb", "Mc", "Md")

    def h(*names):
        return _entropy_of(table.sums(names)[1])

    head = table.sums(km + xs + y2s)[1]
    keys, mass = table.sums(("K",))
    p_k = np.zeros(table.shape[0])
    p_k[keys] = mass
    h_k, h_head = _entropy_of(p_k), _entropy_of(head)
    # chain 5, I(X^n, Mc, Md, Y2^n ; Y3^n | K, Ma, Mb), from its four entropies
    markov_5 = h_head + h("K", "Ma", "Mb", *y3s) - _entropy_of(table.values) - h("K", "Ma", "Mb")
    audit = {
        "table_sum_error": abs(float(head.sum()) - 1.0),
        "key_entropy_bits": h_k,
        "key_bits": spec.index_bits.key,
        "key_uniformity_gap": float(np.abs(p_k - 1.0 / p_k.size).max()),
        "mi_key_source_bits": _clamped(h_k + h(*xs) - h("K", *xs)),
        "markov_chain_4_bits": _clamped(h(*km, *xs) + h(*km, *y2s) - h_head - h(*km)),
        "markov_chain_5_bits": _clamped(markov_5),
    }
    limits = {"table_sum_error": 1e-9, "key_uniformity_gap": 1e-12, "mi_key_source_bits": 1e-12,
              "markov_chain_4_bits": 1e-9, "markov_chain_5_bits": 1e-9}
    audit["passed"] = all(audit[field] <= tol for field, tol in limits.items())
    return audit


def _run_simulate(run: _Run) -> int:
    spec = _built(
        scheme_spec_from_json, _get(run.problem, "scheme", "problem"), "problem.scheme"
    )
    payoff = _built(
        payoff_from_json, _get(run.problem, "payoff", "problem"), "problem.payoff"
    )
    secret = _as_list(run.problem.get("secret_set", ["X"]), "problem.secret_set")
    if not all(isinstance(s, str) for s in secret):
        raise SchemaError("problem.secret_set", "expected an array of variable names")
    secret = tuple(secret)
    cell_cap = run.problem.get("cell_cap")
    if cell_cap is None:
        cell_cap = DEFAULT_CELL_CAP
    table = run_system_exact(spec, cell_cap=_as_int(cell_cap, "problem.cell_cap", minimum=1))
    audit = _audit(spec, table)
    pi_exact = simulate_payoff(table, payoff)
    equiv = _built(lambda s: empirical_equivocation(table, s), secret, "problem.secret_set")
    rows = [("payoff_exact", pi_exact), ("equivocation_exact", equiv)]
    results = {"payoff_exact": pi_exact, "equivocation_exact": equiv}

    samples = run.control["samples"]
    if samples:
        if run.problem.get("trace"):
            with open(run.out_dir / "simulate_trace.csv", "w", encoding="utf-8", newline="") as fh:
                fh.write("\n".join(run.csv_comments()) + "\n")
                est, se = mc_estimate(spec, payoff, samples, run.seed, trace=fh)
        else:
            est, se = mc_estimate(spec, payoff, samples, run.seed)
        rows += [("payoff_mc_estimate", est), ("payoff_mc_se", se)]
        results.update(payoff_mc_estimate=est, payoff_mc_se=se, mc_samples=samples)

    json_path = run.write_json("simulate_audit.json", {"audit": audit, "results": results})
    csv_path = run.write_csv("simulate_results.csv", ["metric", "value"], rows)
    print(f"wrote {json_path} and {csv_path} (audit {'passed' if audit['passed'] else 'FAILED'})")
    return EXIT_OK if audit["passed"] else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# example


def _run_example(run: _Run) -> int:
    grid = run.problem.get("grid", list(DEFAULT_GRID))
    grid = [
        _as_number(g, f"problem.grid[{i}]")
        for i, g in enumerate(_as_list(grid, "problem.grid"))
    ]
    report = _built(lambda g: verify_example(g, tol=run.control["tol"]), grid, "problem.grid")
    thresholds = [
        "# message-rate thresholds are strict (open) conditions:"
        f" R1 > {LOG2_3:.12g}, R2 > {LOG2_3 - 1.0:.12g}",
    ]
    rows = [(r.r0, r.pi_analytic, r.pi_evaluated) for r in report.rows]
    csv_path = run.write_csv(
        "example_curve.csv",
        ["R0", "Pi_analytic", "Pi_evaluated"],
        rows,
        extra_comments=thresholds,
    )
    if not report.passed:
        for row in report.rows:
            if not row.passed:
                print(
                    f"mismatch at R0={row.r0:.12g}: expected {row.pi_analytic:.12g},"
                    f" got {row.pi_evaluated:.12g}",
                    file=sys.stderr,
                )
        if not report.determinism_ok:
            print("determinism facts failed on a mixture candidate", file=sys.stderr)
        print(f"wrote {csv_path} (verification FAILED)")
        return EXIT_MISMATCH
    print(f"wrote {csv_path} ({len(rows)} grid points, all verified)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# equivocation


def _equiv_problem(problem: dict) -> EquivocationProblem:
    p_x = _built(pmf_from_json, _get(problem, "p_x", "problem"), "problem.p_x")
    secret = tuple(_as_list(_get(problem, "secret_set", "problem"), "problem.secret_set"))
    y2 = _built(_alphabet_from_json, _get(problem, "y2_alphabet", "problem"), "problem.y2_alphabet")
    y3 = _built(_alphabet_from_json, _get(problem, "y3_alphabet", "problem"), "problem.y3_alphabet")
    d1 = _get(problem, "d1", "problem")
    d2 = _get(problem, "d2", "problem")
    fields = {
        "max_d1": _as_number(_get(problem, "max_d1", "problem"), "problem.max_d1", allow_inf=True),
        "max_d2": _as_number(_get(problem, "max_d2", "problem"), "problem.max_d2", allow_inf=True),
        "r0": _as_rate(_get(problem, "r0", "problem"), "problem.r0"),
        "r1": _as_rate(problem.get("r1", "inf"), "problem.r1"),
        "r2": _as_rate(problem.get("r2", "inf"), "problem.r2"),
        "cap_v1": _as_int(_get(problem, "cap_v1", "problem"), "problem.cap_v1", minimum=1),
        "cap_v2": _as_int(_get(problem, "cap_v2", "problem"), "problem.cap_v2", minimum=1),
    }
    return _built(
        lambda _: EquivocationProblem(
            p_x=p_x, secret_set=secret, y2_alphabet=y2, y3_alphabet=y3,
            d1=np.asarray(d1, dtype=np.float64), d2=np.asarray(d2, dtype=np.float64),
            **fields,
        ),
        None,
        "problem",
    )


def _run_equivocation(run: _Run) -> int:
    prob = _equiv_problem(run.problem)
    grid = _r0_grid(run.problem)
    rates = _sweep_rates(grid or [], run.seed)
    # one searcher serves the search and the sweep, whose curve pools every winner
    search, curve = _equivocation_searcher(prob, run.control["restarts"])
    result = search(prob.r0, run.seed)
    for r0, seed in rates:
        search(r0, seed)
    payload = {"result": _strip_result(result.to_json(), keep_candidate=True)}
    if grid is not None:
        payload["sweep"] = [{"r0": r0, "value": curve(r0)} for r0, _ in rates]
    json_path = run.write_json("equivocation_result.json", payload)
    print(f"wrote {json_path} (feasible={result.feasible})")
    if not result.feasible:
        raise InfeasibleError(result.message or "no family member met the budgets")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascade-secrecy",
        description="Rate-limited secrecy toolkit: region search, exact simulation, "
        "worked example, equivocation curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("bounds", "search the achievable region under rate budgets"),
        ("simulate", "build and audit an exact system, optionally Monte Carlo"),
        ("example", "reproduce the ternary example curve as CSV"),
        ("equivocation", "maximize equivocation under distortion budgets"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="64-bit unsigned run seed")
        p.add_argument("--out", help="output directory (default .)")
        p.add_argument("--restarts", type=int, help="search restarts")
        p.add_argument("--samples", type=int, help="Monte Carlo sample count")
        p.add_argument("--tol", type=float, help="verification tolerance")
    return parser


_RUNNERS = {
    "bounds": _run_bounds,
    "simulate": _run_simulate,
    "example": _run_example,
    "equivocation": _run_equivocation,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run = _load_config(args)
        return _RUNNERS[args.command](run)
    except SchemaError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except InfeasibleError as err:
        print(json.dumps({"status": "infeasible", "reason": str(err)}), file=sys.stderr)
        return EXIT_INFEASIBLE
    except (CapExceededError, ZeroProbabilityError) as err:
        print(json.dumps({"status": "infeasible", "reason": str(err)}), file=sys.stderr)
        return EXIT_INFEASIBLE
    except VerificationError as err:
        print(f"error: verification mismatch: {err}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    raise SystemExit(main())
