#!/usr/bin/env python3
"""hapsim benchmark: seeded Monte Carlo workloads driven through the CLI.

    python3 perfbench/run.py --workload ordering-sweep --seed 42 --seconds 35 --trace 0

Run from the repository root. The benchmark calls ``hapsim.cli.main``
in-process with config files it writes itself, so the timed path is the
one users run. It imports hapsim from ``src/`` of the checkout it sits in.

``--trace 0`` measures the end-to-end metrics (trials per second, set-up
time, peak memory) with nothing wrapped but the harness entry point whose
records the output check reads. ``--trace 1`` wraps the functions that
``hapsim.harness`` (and ``hapsim.cli``) bind, runs a fixed number of passes
traced and the same passes again untraced, and reports per-layer spans,
counts and the tracing overhead.

Every run checks the program's outputs (see ``check_sweep`` and
``check_run``) and compares a reference pass at config seed 42 with
``reference.json``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. NOTES.md says why each
workload was chosen and what is deliberately left unmeasured.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_FILE = BENCH_DIR / "reference.json"

REFERENCE_SEED = 42          # config seed of the untimed, checked reference pass
REFERENCE_REL_TOL = 1e-3     # see NOTES.md, "Reference values"
BLAS_THREADS = "1"           # OpenBLAS threads, pinned on every commit
TEST_07_TRIALS = 200         # tests/test_acceptance.py: ORDERING_TRIALS
TEST_07_LAYOUT_POWERS = 3 * 6 + 5 * 6 + 3 * 3  # 10 + 20 MHz defaults, 20 deg knob


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    """One ``hapsim`` command of a pass: subcommand, config text, powers."""

    command: str
    config: str
    powers_dbm: tuple[float, ...]
    layouts: int  # prepare_trial calls per trial index (r values swept)

    def argv(self, config_path: Path, out_dir: Path, seed: int) -> list[str]:
        argv = [self.command, "--config", str(config_path), "--out", str(out_dir),
                "--seed", str(seed), "--trials", "1", "--workers", "1"]
        if self.powers_dbm:
            argv += ["--powers-dbm", ",".join(repr(p) for p in self.powers_dbm)]
        return argv

    @property
    def points(self) -> int:
        """evaluate_trial calls per prepared trial."""
        return max(len(self.powers_dbm), 1)


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    trace_pass_s: float  # nominal pass time; sets the fixed traced pass count
    zero_spans: frozenset[str]  # spans predicted never to be called


SWEEP_DBM = (30.0, 34.0, 38.0, 42.0, 46.0, 50.0)
DISK_DBM = (38.0, 44.0, 50.0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ordering-sweep",
            (
                Invocation("sweep-power", "bandwidth = 10e6\nquadrature_points = 8\n",
                           SWEEP_DBM, 3),
                Invocation("sweep-power", "bandwidth = 20e6\nquadrature_points = 8\n",
                           SWEEP_DBM, 5),
            ),
            trace_pass_s=2.1,
            zero_spans=frozenset({"harness.run", "geometry.drop_users",
                                  "geometry.user_angles"}),
        ),
        Workload(
            "run-q32",
            (Invocation("run", "bandwidth = 20e6\nr = 1\n", (), 1),),
            trace_pass_s=1.25,
            zero_spans=frozenset({"harness.sweep_power", "geometry.drop_users",
                                  "geometry.user_angles",
                                  "allocation.fill_remaining_power"}),
        ),
        Workload(
            "disk-drop",
            (Invocation("sweep-power",
                        "bandwidth = 10e6\nquadrature_points = 8\n"
                        "users_per_trial = 1200\n",
                        DISK_DBM, 3),),
            trace_pass_s=1.8,
            zero_spans=frozenset({"harness.run", "dofgrid.cell_center",
                                  "allocation.fill_remaining_power"}),
        ),
    )
}


def pass_seed(bench_seed: int, k: int) -> int:
    """Config seed of timed pass k; a function of the benchmark seed only."""
    return (bench_seed * 1_000_003 + 7919 * (k + 1)) % 2**31


# -- spans --------------------------------------------------------------------

# (module that binds the name, attribute, module that defines it). The span
# is named <defining module>.<attribute>; the wrapper replaces the binding,
# so callers in the binding module go through it.
SPANS = (
    ("hapsim.cli", "main", "hapsim.cli"),
    ("hapsim.cli", "load_config", "hapsim.config"),
    ("hapsim.harness", "run", "hapsim.harness"),
    ("hapsim.harness", "sweep_power", "hapsim.harness"),
    ("hapsim.harness", "prepare_trial", "hapsim.harness"),
    ("hapsim.harness", "evaluate_trial", "hapsim.harness"),
    ("hapsim.harness", "place_and_cluster", "hapsim.harness"),
    ("hapsim.harness", "write_csv", "hapsim.harness"),
    ("hapsim.harness", "cluster_users", "hapsim.allocation"),
    ("hapsim.harness", "assign_resource_blocks", "hapsim.allocation"),
    ("hapsim.harness", "min_power_coefficients", "hapsim.allocation"),
    ("hapsim.harness", "fill_remaining_power", "hapsim.allocation"),
    ("hapsim.harness", "scaled_min_power", "hapsim.allocation"),
    ("hapsim.harness", "correlation_matrices", "hapsim.channel"),
    ("hapsim.harness", "large_scale_fading", "hapsim.channel"),
    ("hapsim.harness", "los_channel", "hapsim.channel"),
    ("hapsim.harness", "sample_channel", "hapsim.channel"),
    ("hapsim.harness", "locate", "hapsim.dofgrid"),
    ("hapsim.harness", "cell_center", "hapsim.dofgrid"),
    ("hapsim.harness", "drop_users", "hapsim.geometry"),
    ("hapsim.harness", "user_angles", "hapsim.geometry"),
    ("hapsim.harness", "build_cluster_precoders", "hapsim.rate"),
    ("hapsim.harness", "evaluate_objective", "hapsim.rate"),
)
LATENCY_SPANS = ("harness.prepare_trial", "harness.evaluate_trial")


def span_name(defining: str, attr: str) -> str:
    return f"{defining.removeprefix('hapsim.')}.{attr}"


def check_span_coverage() -> None:
    """Fail loudly if a wrapped name moved, so no span silently reads 0."""
    missing = []
    for holder, attr, defining in SPANS:
        fn = getattr(sys.modules[holder], attr, None)
        if not callable(fn) or getattr(fn, "__module__", None) != defining:
            found = getattr(fn, "__module__", None) if fn is not None else "absent"
            missing.append(f"{holder}.{attr} (want defined in {defining}, found {found})")
    if missing:
        raise SystemExit("span coverage: wrapped names no longer bound as expected: "
                         + "; ".join(missing))


@dataclass
class SpanStat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    samples: list[float] = field(default_factory=list)


class Tracer:
    """Spans around the bound functions, kept in memory until the run ends.

    self_s is a span's duration minus the time covered by spans it caused.
    Counters are recorded at the same boundaries, after the span's clock
    has stopped.
    """

    def __init__(self) -> None:
        self.stats = {span_name(d, a): SpanStat() for _, a, d in SPANS}
        self.counts: dict[str, float] = {
            "matrices": 0, "quad_nodes": 0, "objective_users": 0,
            "max_group_size": 0, "reuse_plans": 0, "csv_bytes": 0,
        }
        self._stack: list[float] = []
        self._last_users: object = None
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for holder, attr, defining in SPANS:
            module = sys.modules[holder]
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(span_name(defining, attr), fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        keep = name in LATENCY_SPANS
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                stat.calls += 1
                stat.busy_s += dur
                stat.self_s += dur - child
                if keep:
                    stat.samples.append(dur)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # counters, named after the span they belong to

    def _on_channel_correlation_matrices(self, args, kwargs, _result) -> None:
        q = kwargs["quadrature_points"]
        self.counts["matrices"] += len(args[0])
        self.counts["quad_nodes"] += len(args[0]) * q * q

    def _on_rate_evaluate_objective(self, args, _kwargs, _result) -> None:
        users = args[0]
        self.counts["objective_users"] += len(users)
        if users is self._last_users:  # same trial, another power point
            return
        self._last_users = users
        sizes: dict[tuple[int, int], int] = {}
        for u in users:
            key = (u.cell.sector, u.cell.subsection)
            sizes[key] = sizes.get(key, 0) + 1
        self.counts["max_group_size"] = max(
            self.counts["max_group_size"], max(sizes.values(), default=0))

    def _on_allocation_assign_resource_blocks(self, _args, _kwargs, result) -> None:
        self.counts["reuse_plans"] += bool(result.reuse)

    def _on_harness_write_csv(self, args, _kwargs, _result) -> None:
        self.counts["csv_bytes"] += Path(args[0]).stat().st_size


# -- output check -------------------------------------------------------------


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    numpy_repr_values: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


# numpy >= 2 reprs a np.float64 as "np.float64(x)"; the run CSV's omega
# column is written that way. The value is checked; the format is reported.
_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def _finite_row(row: dict[str, str], check: Check) -> bool:
    for v in row.values():
        if v in ("True", "False"):
            continue
        wrapped = _NUMPY_REPR.fullmatch(v)
        if wrapped:
            check.numpy_repr_values += 1
            v = wrapped.group(1)
        try:
            if not math.isfinite(float(v)):
                return False
        except ValueError:
            return False
    return True


def check_sweep(text: str, check: Check) -> dict[str, float]:
    """Each aggregate row: finite values and stderr >= 0. Returns the means."""
    means = {}
    for row in csv.DictReader(io.StringIO(text)):
        label = f"{float(row['p_max_dbm']):g}dBm/r{row['r']}"
        ok = _finite_row(row, check) and float(row["stderr"]) >= 0.0
        check.record(ok, f"sweep row {label}: {row}")
        means[label] = float(row["mean_sum_rate_bps"])
    return means




def check_run(text: str, records: list, p_total: float, check: Check) -> dict[str, float]:
    """Each trial: finite CSV rows, SINR >= 0, power and QoS margins hold.

    Returns the mean sum rate over trials, the run's single (power, r) point.
    """
    rows_by_trial: dict[int, list[dict[str, str]]] = {}
    for row in csv.DictReader(io.StringIO(text)):
        rows_by_trial.setdefault(int(row["trial"]), []).append(row)
    by_trial = {rec.trial: rec for rec in records}
    for trial in sorted(by_trial.keys() | rows_by_trial.keys()):
        rec = by_trial.get(trial)
        rows = rows_by_trial.get(trial, [])
        ok = (
            rec is not None
            and len(rows) == len(rec.users)
            and all(_finite_row(row, check) and float(row["sinr"]) >= 0.0 for row in rows)
            and rec.power_margin_w >= -1e-9 * p_total
            and (not rec.qos_feasible or rec.qos_margin_model >= -1e-9)
        )
        check.record(ok, f"run trial {trial}: {len(rows)} CSV rows, record "
                         + (f"margins {rec.power_margin_w!r}, {rec.qos_margin_model!r}"
                            if rec else "missing"))
    return {"run": statistics.fmean(rec.sum_rate_bps for rec in records)}


# -- driving the CLI ----------------------------------------------------------


def load_hapsim() -> None:
    """Import hapsim from this checkout's src/, never from elsewhere.

    Pins OpenBLAS to BLAS_THREADS first (set-up probes inherit it); see
    NOTES.md for why.
    """
    if not (SRC / "hapsim" / "__init__.py").is_file():
        raise SystemExit(f"no hapsim package under {SRC}; run from a full checkout")
    if "numpy" in sys.modules:
        raise SystemExit("numpy was imported before the BLAS thread pin")
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import hapsim.cli
    import hapsim.harness

    if Path(hapsim.__file__).resolve().parent != SRC / "hapsim":
        raise SystemExit(f"imported hapsim from {hapsim.__file__}, not {SRC}")


@dataclass
class PassResult:
    seed: int
    wall_s: float
    trials: int
    points: int
    digest: str
    means: list[dict[str, float]]

    @property
    def trials_per_s(self) -> float:
        return self.trials / self.wall_s


class Runner:
    """Runs passes of one workload through ``hapsim.cli.main``.

    A pass is one CLI invocation per entry of ``workload.invocations``, each
    with one trial index at one config seed. Only the ``main``
    calls are timed; reading and checking the outputs is not.
    """

    def __init__(self, workload: Workload, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.configs = []
        for i, inv in enumerate(workload.invocations):
            path = workdir / f"config{i}.txt"
            path.write_text(inv.config)
            self.configs.append(path)
        self._cli = sys.modules["hapsim.cli"]
        self._harness = sys.modules["hapsim.harness"]
        self._records: list = []
        self._run = self._harness.run

        def run_and_keep(*args, **kwargs):
            records = self._run(*args, **kwargs)
            self._records.append(records)
            return records

        self._harness.run = run_and_keep

    def close(self) -> None:
        self._harness.run = self._run

    def first_argv(self, seed: int) -> list[str]:
        inv = self.workload.invocations[0]
        return inv.argv(self.configs[0], self.workdir / "out0", seed)

    def run_pass(self, seed: int, check: Check) -> PassResult:
        wall = 0.0
        digest = hashlib.sha256()
        means = []
        for i, inv in enumerate(self.workload.invocations):
            out = self.workdir / f"out{i}"
            argv = inv.argv(self.configs[i], out, seed)
            self._records.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                status = self._cli.main(argv)
                wall += time.perf_counter() - t0
            if status != 0:
                raise SystemExit(f"hapsim {' '.join(argv)} exited with status {status}")
            name = "run" if inv.command == "run" else "sweep_power"
            data = (out / f"{name}.csv").read_bytes()
            digest.update(data)
            if inv.command == "run":
                meta = dict(line.split(" = ", 1)
                            for line in (out / "meta.txt").read_text().splitlines())
                means.append(check_run(data.decode(), self._records[0],
                                       float(meta["p_total"]), check))
            else:
                means.append(check_sweep(data.decode(), check))
        invocations = self.workload.invocations
        return PassResult(
            seed=seed,
            wall_s=wall,
            trials=sum(inv.layouts for inv in invocations),
            points=sum(inv.layouts * inv.points for inv in invocations),
            digest=digest.hexdigest(),
            means=means,
        )


def compare_reference(result: PassResult, reference: dict, check: Check) -> bool:
    """Each (power, r) mean within REFERENCE_REL_TOL of the stored value.

    Returns whether the CSV digest differs from the stored one; a changed
    digest with every mean in tolerance is a declared-rebaseline candidate,
    not a failure.
    """
    for i, (got, want) in enumerate(zip(result.means, reference["means"], strict=True)):
        for label in sorted(got.keys() | want.keys()):
            new, ref = got.get(label, math.nan), want.get(label, math.nan)
            check.record(abs(new - ref) <= REFERENCE_REL_TOL * abs(ref),
                         f"invocation {i} {label}: mean {new!r} vs reference {ref!r}")
    return result.digest != reference["sha256"]


def time_setup(argv: list[str]) -> float:
    """Seconds from starting a fresh interpreter to its first prepare_trial.

    ``setup_probe.py`` runs the real CLI with ``argv`` and stops it there.
    """
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), *argv]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        except BaseException:
            proc.kill()
            raise
    if line.strip() != "first-trial" or proc.returncode != 0:
        raise SystemExit(f"setup probe failed ({proc.returncode}): {err.strip()}")
    return elapsed


# -- metadata -----------------------------------------------------------------


def run_metadata() -> dict[str, object]:
    import numpy as np

    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        sha = (lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT
               else "unavailable: not a git checkout")
    except (OSError, subprocess.TimeoutExpired):
        sha = "unavailable: git failed to run"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    sources = sorted(SRC.rglob("*.py"))
    src_hash = hashlib.sha256()
    for path in sources:
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} (pinned)",
    }


# -- metrics ------------------------------------------------------------------


def layer_metrics(tracer: Tracer, traced: list[PassResult],
                  untraced: list[PassResult]) -> dict[str, tuple[float, str]]:
    wall = sum(p.wall_s for p in traced)
    base = sum(p.wall_s for p in untraced)
    st = tracer.stats
    out: dict[str, tuple[float, str]] = {}
    for name, s in st.items():
        out[f"{name}.calls"] = (s.calls, "count")
        out[f"{name}.busy_s"] = (s.busy_s, "s")
        out[f"{name}.self_s"] = (s.self_s, "s")
        out[f"{name}.share"] = (s.self_s / wall, "ratio")
    for name in LATENCY_SPANS:
        ms = [x * 1e3 for x in st[name].samples]
        out[f"{name}.p50_ms"] = (statistics.median(ms), "ms")
        out[f"{name}.p90_ms"] = (statistics.quantiles(ms, n=10)[8], "ms")
        out[f"{name}.samples"] = (len(ms), "count")
    c = tracer.counts
    fill = st["allocation.fill_remaining_power"].calls
    scaled = st["allocation.scaled_min_power"].calls
    out["channel.correlation_matrices.matrices"] = (c["matrices"], "count")
    out["channel.correlation_matrices.quad_nodes"] = (c["quad_nodes"], "count")
    out["rate.evaluate_objective.users"] = (c["objective_users"], "count")
    out["rate.max_group_size"] = (c["max_group_size"], "count")
    out["allocation.qos_feasible_ratio"] = (fill / (fill + scaled), "ratio")
    out["allocation.rb_reuse_ratio"] = (
        c["reuse_plans"] / st["allocation.assign_resource_blocks"].calls, "ratio")
    out["harness.write_csv.bytes"] = (c["csv_bytes"], "bytes")
    out["trace.traced_wall_s"] = (wall, "s")
    out["trace.untraced_wall_s"] = (base, "s")
    out["trace.overhead_s"] = (wall - base, "s")
    out["trace.overhead_frac"] = ((wall - base) / base, "ratio")
    return out


def predicted_call_problems(workload: Workload, tracer: Tracer,
                            traced: list[PassResult]) -> list[str]:
    """Call counts the workload design predicts, checked after the traced run."""
    st = tracer.stats
    prepared = sum(p.trials for p in traced)
    exact = {
        "harness.prepare_trial": prepared,
        "channel.correlation_matrices": prepared,
        "harness.evaluate_trial": sum(p.points for p in traced),
    }
    problems = [f"{name}: {st[name].calls} calls, predicted {want}"
                for name, want in exact.items() if st[name].calls != want]
    for name, s in st.items():
        if name in workload.zero_spans and s.calls:
            problems.append(f"{name}: {s.calls} calls, predicted 0 on {workload.name}")
        elif name not in workload.zero_spans and not s.calls:
            problems.append(f"{name}: 0 calls, predicted some on {workload.name}")
    return problems


def declared_metrics(key: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[key]]


def select(declared: list[str], computed: dict[str, tuple[float, str]]) -> dict:
    absent = [name for name in declared if name not in computed]
    if absent:
        raise SystemExit(f"BENCHMARK.json declares metrics this run cannot produce: {absent}")
    return {name: {"value": computed[name][0], "unit": computed[name][1]}
            for name in declared}


# -- main ---------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_untraced(runner: Runner, seed: int, seconds: float, check: Check):
    """Timed passes until ``seconds`` have passed (at least three).

    A set-up probe follows each pass, so the probes see the same speed
    phases of the machine as the passes; one untimed probe comes first
    (it may compile bytecode).
    """
    probe_argv = runner.first_argv(REFERENCE_SEED)
    time_setup(probe_argv)
    passes: list[PassResult] = []
    setup: list[float] = []
    start = time.perf_counter()
    while len(passes) < 3 or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass(pass_seed(seed, len(passes)), check))
        setup.append(time_setup(probe_argv))
    computed = {
        # slow-phase percentiles: this box's shared cores have fast phases
        # lasting minutes that move a run's median by up to a quarter
        "trials_per_s": (statistics.quantiles([p.trials_per_s for p in passes], n=10,
                                              method="inclusive")[0], "1/s"),
        "setup_s": (statistics.quantiles(setup, n=10, method="inclusive")[-1], "s"),
    }
    return passes, computed, setup


def measure_traced(runner: Runner, seed: int, seconds: float, check: Check):
    """A fixed pass count traced, then the same passes untraced."""
    workload = runner.workload
    n_passes = max(2, round(seconds / 2 / workload.trace_pass_s))
    seeds = [pass_seed(seed, k) for k in range(n_passes)]
    tracer = Tracer()
    tracer.install()
    try:
        passes = [runner.run_pass(s, check) for s in seeds]
    finally:
        tracer.uninstall()
    untraced = [runner.run_pass(s, check) for s in seeds]
    problems = [f"pass seed {a.seed}: traced and untraced CSVs differ"
                for a, b in zip(passes, untraced) if a.digest != b.digest]
    problems += predicted_call_problems(workload, tracer, passes)
    return passes, layer_metrics(tracer, passes, untraced), problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    reference = json.loads(REFERENCE_FILE.read_text())[workload.name]
    load_hapsim()
    if args.trace:
        check_span_coverage()

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    check = Check()
    problems: list[str] = []
    setup = None
    try:
        runner = Runner(workload, workdir)
        try:
            ref_pass = runner.run_pass(REFERENCE_SEED, check)  # also the warm-up
            digest_changed = compare_reference(ref_pass, reference, check)
            # peak memory on the fixed reference input; later passes add a
            # seed-dependent allocator step of about 4 MB (NOTES.md)
            rss_ref_mb = peak_rss_mb()
            if args.trace:
                passes, computed, problems = measure_traced(
                    runner, args.seed, args.seconds, check)
            else:
                passes, computed, setup = measure_untraced(
                    runner, args.seed, args.seconds, check)
                computed["peak_rss_mb"] = (rss_ref_mb, "MB")
        finally:
            runner.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = run_metadata()
    meta.update({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "trials": sum(p.trials for p in passes),
        "power_points": sum(p.points for p in passes),
        "pass_trials_per_s": [round(p.trials_per_s, 4) for p in passes],
        "setup_probes_s": setup,
        "peak_rss_end_of_run_mb": peak_rss_mb(),
        "reference_sha256_changed": digest_changed,
        "reference_sha256": ref_pass.digest,
        "run_sha256": hashlib.sha256("".join(p.digest for p in passes).encode()).hexdigest(),
    })
    if workload.name == "ordering-sweep":
        meta["scale_vs_test_07"] = {
            "trials": f"{meta['trials']} / {TEST_07_TRIALS * 11}",
            "trial_layout_power_points": f"{meta['power_points']} / "
                                         f"{TEST_07_TRIALS * TEST_07_LAYOUT_POWERS}",
        }
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in sorted(computed.items()):
        print(f"  {name:<48} {value:>16.6g} {unit}")
    print(f"  {'failed_fraction':<48} {check.failed / check.attempted:>16.6g} ratio"
          f"  ({check.failed} of {check.attempted} checked trials and rows)")
    if check.numpy_repr_values:
        print(f"  format: {check.numpy_repr_values} CSV values written as np.float64(...), "
              "not as plain numbers (numpy >= 2 repr through harness._fmt)")
    for line in check.problems + problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": check.failed == 0 and not problems,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": select(declared, computed),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
