"""Checks on what ``emit`` wrote, and the ground-truth figures of a battery.

The checks read only the emitted files and recompute what the paper
guarantees from them with their own arithmetic: scenario counts that are
exactly minimal, multipliers that never decrease, a safe set that only
grows, and per-run totals that agree with ``summary.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Relative slack on the binomial tail when testing minimality, far above
# the roundoff of either evaluation and far below the gap between
# consecutive scenario counts.
_TAIL_RTOL = 1e-9


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every emitted file, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


def read_outputs(out_dir: Path) -> tuple[dict, dict[str, list[dict]]]:
    """``summary.json`` and each run CSV as a list of rows keyed by column."""
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    tables = {}
    for path in sorted(out_dir.glob("run_s*.csv")):
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        columns = header.split(",")
        tables[path.name] = [dict(zip(columns, row.split(","))) for row in rows]
    return summary, tables


def csv_name(run: dict) -> str:
    return f"run_s{run['seed']}_{run['beta_mode']}.csv"


def _log_tail(m: int, nu: float, k: int) -> float:
    """log P[Binomial(m, nu) < k]: the scenario bound's failure probability."""
    terms = [
        math.lgamma(m + 1) - math.lgamma(s + 1) - math.lgamma(m - s + 1)
        + s * math.log(nu) + (m - s) * math.log1p(-nu)
        for s in range(min(m + 1, k))
    ]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def is_minimal_count(m: int, t: int, nu: float, kappa: float, k: int) -> bool:
    """Whether ``m`` is the smallest count meeting iteration ``t``'s share."""
    log_share = math.log(6.0 * kappa / (math.pi**2 * t * t))
    slack = math.log1p(_TAIL_RTOL)
    meets = _log_tail(m, nu, k) <= log_share + slack
    below_fails = m <= 1 or _log_tail(m - 1, nu, k) > log_share - slack
    return meets and below_fails


def run_problems(summary: dict, tables: dict[str, list[dict]]) -> dict[str, list[str]]:
    """Problems found per run, keyed by CSV name; runs without any are absent."""
    config = summary["config"]
    nu = config["violation_prob"]
    kappa = config["confidence_level"]
    problems: dict[str, list[str]] = {}
    for run in summary["runs"]:
        name = csv_name(run)
        found = problems.setdefault(name, [])
        rows = tables.get(name)
        if rows is None:
            found.append("no CSV emitted")
            continue
        k = sum(1 for column in rows[0] if column.startswith("y")) if rows else 1
        if len(rows) != run["iterations"]:
            found.append(f"{len(rows)} CSV rows for {run['iterations']} iterations")
        if [int(r["t"]) for r in rows] != list(range(1, len(rows) + 1)):
            found.append("iteration column is not 1..T")
        if sum(int(r["violation"]) for r in rows) != run["violations"]:
            found.append("violation column disagrees with summary")
        sizes = [int(r["safe_set_size"]) for r in rows]
        if any(b < a for a, b in zip(sizes, sizes[1:])):
            found.append("safe set shrank")
        if run["beta_mode"] == "scenario":
            for r in rows:
                if not is_minimal_count(int(r["m"]), int(r["t"]), nu, kappa, k):
                    found.append(f"scenario count {r['m']} at t={r['t']} is not minimal")
                    break
            for i in range(k):
                betas = [float(r[f"beta{i}"]) for r in rows]
                if any(b < a for a, b in zip(betas, betas[1:])):
                    found.append(f"multiplier beta{i} decreased")
        elif any(int(r["m"]) != 0 for r in rows):
            found.append("classic run drew scenarios")
    for mode, stats in summary["aggregate"].items():
        experiments = sum(r["iterations"] for r in summary["runs"] if r["beta_mode"] == mode)
        if stats["experiments"] != experiments:
            problems.setdefault(f"aggregate {mode}", []).append(
                "experiment count disagrees with the runs"
            )
    return {name: found for name, found in problems.items() if found}


def scenario_draws(tables: dict[str, list[dict]]) -> int:
    """Noise draws the runs imply: each batch plus one observation per output."""
    draws = 0
    for rows in tables.values():
        for r in rows:
            k = sum(1 for column in r if column.startswith("y"))
            draws += (int(r["m"]) + 1) * k
    return draws


def ceilings(summary: dict) -> dict[int, tuple[int, float]]:
    """Per seed: the reachable ceiling's size and the best reward inside it.

    The ceiling is ``reachable_set`` under the true constraints at margin
    ``exploration_threshold``, grown from the run's initial safe set.  The
    functions are rebuilt from the ground truth each run recorded in
    ``summary.json``, so the figures describe exactly what the runs
    optimized.
    """
    import numpy as np
    from safebo.harness import ExperimentConfig
    from safebo.kernels import metric_matrix
    from safebo.optimizer import reachable_set
    from safebo.synthetic import RkhsFunction, ShiftedFunction

    config = ExperimentConfig.from_dict(summary["config"])
    domain = config.build_domain()
    metric = metric_matrix(config.build_kernel(), domain.points)
    out = {}
    for run in summary["runs"]:
        if run["seed"] in out:
            continue
        recorded = run["ground_truth"]
        functions = [
            ShiftedFunction.from_config(f) if "base" in f else RkhsFunction.from_config(f)
            for f in recorded["functions"]
        ]
        values = np.stack([np.asarray(f(domain.points)) for f in functions])
        constraints = recorded["constraint_indices"]
        start = np.zeros(domain.n_points, dtype=bool)
        start[recorded["initial_safe"]] = True
        reach = reachable_set(
            values[constraints],
            np.full(len(constraints), config.norm_bound),
            metric,
            config.exploration_threshold,
            start,
        )
        out[run["seed"]] = (int(reach.sum()), float(values[0][reach].max()))
    return out


def coverage_and_regret(summary: dict, ceiling: dict[int, tuple[int, float]]):
    """Means over runs of safe-set size / ceiling and best-in-ceiling regret."""
    runs = summary["runs"]
    coverage = sum(r["final_safe_size"] / ceiling[r["seed"]][0] for r in runs) / len(runs)
    regret = sum(ceiling[r["seed"]][1] - r["final_best_true_reward"] for r in runs) / len(runs)
    return coverage, regret
