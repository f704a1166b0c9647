"""Command line front end.

    hapsim run         --out results/
    hapsim sweep-power --out results/ --powers-dbm 30,32,...,50
    hapsim sweep-rb    --out results/ --r 1,2,3
    hapsim heatmap     --out results/

Each subcommand writes <name>.csv plus meta.txt (resolved config and its
fingerprint) into --out. Reruns with the same config are byte-identical.
sweep-power, sweep-rb and heatmap then print a text summary to stdout: the
layout ranking per power, the per-user rate deciles per (r, L), and the
fullest cluster's size with its mean off-diagonal orthogonality defect.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import harness
from .channel import converged_nodes
from .config import ConfigError, ScenarioConfig, load_config

DEFAULT_POWERS_DBM = tuple(float(p) for p in range(30, 51, 2))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None,
                   help="key=value config file (defaults used when omitted)")
    p.add_argument("--out", type=Path, required=True,
                   help="output directory for the CSV and meta.txt")
    p.add_argument("--seed", type=int, default=None,
                   help="override the master seed")
    p.add_argument("--trials", type=int, default=None,
                   help="override the trial count")
    p.add_argument("--workers", type=int, default=1,
                   help="process count for trial parallelism; at most one "
                        "process per task and per usable CPU is started")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hapsim",
        description="System simulator for a sectorized aerial massive MIMO "
                    "base station",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="per-user rate table over seeded trials")
    _add_common(p_run)

    p_sp = sub.add_parser("sweep-power",
                          help="mean sum rate vs transmit power per r")
    _add_common(p_sp)
    p_sp.add_argument("--powers-dbm", type=str, default=None,
                      help="comma separated power grid in dBm "
                           "(default 30..50 step 2)")

    p_srb = sub.add_parser("sweep-rb",
                           help="per-user rate samples per blocks-per-user r")
    _add_common(p_srb)
    p_srb.add_argument("--r", type=str, default=None,
                       help="comma separated r values (default set by "
                            "bandwidth)")

    p_hm = sub.add_parser("heatmap",
                          help="steering correlation matrix of the fullest "
                               "cluster")
    _add_common(p_hm)
    return parser


def _load(args: argparse.Namespace) -> ScenarioConfig:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    cfg = load_config(args.config)
    overrides = {k: getattr(args, k) for k in ("seed", "trials")}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _parse_list(text: str, convert: Callable[[str], object], option: str) -> tuple:
    """Comma separated values of a list option, ConfigError on a bad entry
    or a repeated one (the sweeps would count its trials twice)."""
    try:
        values = tuple(convert(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"{option}: bad comma separated list {text!r}") from None
    if len(set(values)) < len(values):
        raise ConfigError(f"{option} repeats a value in {text!r}")
    return values


def _parse_powers(text: str) -> tuple[float, ...]:
    powers = _parse_list(text, float, "--powers-dbm")
    if not all(math.isfinite(p) for p in powers):
        raise ConfigError(f"--powers-dbm must be finite, got {text!r}")
    return powers


def _power_ranking(cfg: ScenarioConfig, rows: Sequence[dict]) -> list[str]:
    """Layouts ranked by mean sum rate at each power."""
    by_power: dict[float, list[dict]] = {}
    for row in rows:
        by_power.setdefault(row["p_max_dbm"], []).append(row)
    lines = [f"bandwidth {cfg.bandwidth / 1e6:g} MHz, {cfg.trials} trials per point"]
    for p in sorted(by_power):
        ranked = sorted(by_power[p], key=lambda r: -r["mean_sum_rate_bps"])
        order = "  ".join(
            f"(L={r['L']},r={r['r']}) {r['mean_sum_rate_bps'] / 1e6:8.2f}"
            for r in ranked
        )
        lines.append(f"  {p:5.1f} dBm  {order}  [Mbit/s]")
    return lines


def _rate_deciles(cfg: ScenarioConfig,
                  samples: dict[tuple[int, int], np.ndarray]) -> list[str]:
    """Per-user rate deciles for each (r, L)."""
    qs = np.arange(0.1, 1.0, 0.1)
    lines = [f"bandwidth {cfg.bandwidth / 1e6:g} MHz, {cfg.trials} trials, "
             "per-user rate deciles [Mbit/s]"]
    for (r, l_count), vals in sorted(samples.items()):
        deciles = np.quantile(vals / 1e6, qs)
        body = " ".join(f"{d:7.3f}" for d in deciles)
        lines.append(f"  r={r} L={l_count} n={len(vals):5d}  {body}")
    return lines


def _heatmap_defect(cfg: ScenarioConfig, ids: Sequence[int],
                    matrix: np.ndarray) -> list[str]:
    """Member count and mean off-diagonal defect of the fullest cluster."""
    head = f"L={cfg.subsection_grid().l_count} r={cfg.r}"
    n = len(ids)
    if n < 2:
        return [f"{head}  no cluster holds more than one user"]
    off = (matrix.sum() - np.trace(matrix)) / (n * (n - 1))
    return [f"{head}  fullest cluster {n} users, "
            f"mean off-diagonal orthogonality defect {off:.4f}"]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out: Path = args.out
    summary: list[str] = []
    try:
        cfg = _load(args)
        if args.command == "run":
            harness.run(cfg, out_dir=out, workers=args.workers)
            name = "run"
        elif args.command == "sweep-power":
            powers = (DEFAULT_POWERS_DBM if args.powers_dbm is None
                      else _parse_powers(args.powers_dbm))
            rows = harness.sweep_power(cfg, powers, out_dir=out, workers=args.workers)
            name = "sweep_power"
            summary = _power_ranking(cfg, rows)
        elif args.command == "sweep-rb":
            r_values = None if args.r is None else _parse_list(args.r, int, "--r")
            rates = harness.sweep_rb(cfg, r_values, out_dir=out, workers=args.workers)
            name = "sweep_rb"
            summary = _rate_deciles(cfg, rates)
        else:
            ids, matrix = harness.heatmap(cfg, out_dir=out)
            name = "heatmap"
            summary = _heatmap_defect(cfg, ids, matrix)
    except (ConfigError, OSError) as exc:
        # harness.sweep_rb validates each --r config before any trial runs
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # every command but heatmap draws channels through the capped quadrature
    needed = converged_nodes(cfg.scattering_spread(), cfg.array_config(), math.inf)
    if args.command != "heatmap" and needed > cfg.quadrature_points:
        print(f"warning: quadrature_points = {cfg.quadrature_points} is below the {needed} "
              "nodes per axis at which the covariance converges", file=sys.stderr)
    print(f"wrote {out / (name + '.csv')}")
    print(f"wrote {out / 'meta.txt'}")
    for line in summary:
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
