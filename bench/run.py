#!/usr/bin/env python3
"""Benchmark for agedist: three workloads, end-to-end metrics, and a traced
run for per-layer metrics.

    python3 bench/run.py --workload wpp-cascade --seed 1 --seconds 25 --trace 0

Run it from the repository root. It imports the program from ``src/`` next
to this directory, makes its inputs from ``--seed`` (``bench/gen.py``),
sizes the work so that one pass takes about ``--seconds`` on a 2-CPU
machine, checks the outputs, and prints as its last line one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the ``end_to_end`` entries of
``BENCHMARK.json``; with ``--trace 1`` they are the ``per_layer`` entries.

Workloads (one process, no worker threads, BLAS pinned to one thread):

* ``wpp-cascade``: ``agedist pipeline`` in-process on a WPP-shaped CSV,
  default search budget and validation run. Every layer runs.
* ``population-scale``: ``simulator.run`` at 1M agents x 350 steps on a
  plain and an activated parameter set. No solver runs.
* ``fine-grid-solve``: ``optimize``, then ``fit`` and ``model1.solve`` when
  the search does not converge, on 101-group humps. No simulator runs.

End-to-end times are reference-machine seconds: a speed probe
(``bench/pace.py``) runs every quarter second during the pass and before each
set-up start, and its median slowdown against the reference machine is
divided out, so that a shared machine's drift does not read as a change in
the program. Raw wall times are kept in the run record.

A traced run makes the same pass twice, first untraced and then traced
(both in plain wall seconds, no probe), reports the difference as tracing
overhead, and checks that both passes give the same routes and quality
figures. Details of every run (metadata, timing, quality figures, metrics)
go to ``bench/out/``, spans of a traced run to a ``.jsonl`` file beside it.

Exit status: 0 when every output check passes, 1 when one fails (the result
line is still printed), 2 when the program cannot be loaded (no result).
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
from pace import Pace  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Analytic steady state within this mean absolute error of the original
#: target counts as an exact reproduction (the search's success threshold).
EXACT_MAE = 1e-4
#: Closed-form solutions must reproduce their own target to rounding.
CLOSED_FORM_TOL = 1e-12
#: Criterion 4: a validation run lands within this MAE of the analytic state.
VALIDATION_MAE = 0.005
SETUP_REPEATS = 7

# Nominal seconds per target that turn --seconds into a fixed amount of work
# (a 2-CPU Xeon machine takes 0.25-0.35 s per country and 7-10 s per
# 101-group target at the seed commit). The work depends on --seconds alone,
# so a given seed and --seconds always give the same inputs, routes and
# quality figures.
WPP_S_PER_COUNTRY = 0.3
FINE_S_PER_TARGET = 8.8
POPULATION_AGENTS = 1_000_000
STEPS = 350


class ProgramMissing(Exception):
    pass


def load_program():
    """Import agedist from this checkout's src/, never from elsewhere."""
    package = SRC / "agedist"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no agedist package at {package}")
    sys.path.insert(0, str(SRC))
    import agedist

    if Path(agedist.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"agedist imported from {agedist.__file__}, not {package}")
    return agedist


@dataclass
class Outcome:
    """What the checks found on one pass."""

    attempted: int
    problems: list = field(default_factory=list)
    failed_targets: set = field(default_factory=set)
    routes: dict = field(default_factory=dict)
    #: MAE between each solution's analytic steady state and its original target.
    target_maes: list = field(default_factory=list)
    #: MAE between each validation run's estimate and the analytic steady state.
    validation_maes: list = field(default_factory=list)

    def fail(self, target, message: str) -> None:
        self.failed_targets.add(target)
        self.problems.append(f"{target}: {message}")

    def quality(self) -> dict:
        maes = self.target_maes
        runs = self.validation_maes
        return {
            "exact_share": sum(m < EXACT_MAE for m in maes) / self.attempted,
            "mean_target_mae": float(np.mean(maes)) if maes else 0.0,
            "validation_pass_share": (
                sum(m < VALIDATION_MAE for m in runs) / len(runs) if runs else 0.0
            ),
            "failed_share": len(self.failed_targets) / self.attempted,
        }


def analytic_of(params, labels):
    """The program's analytic steady state for a parameter set."""
    from agedist import model1, model2
    from agedist.distributions import ModelKind

    if params.kind is ModelKind.MODEL2:
        return model2.steady_state2(params.survival, params.activation, labels=labels)
    return model1.steady_state(params.survival, labels=labels)


def check_steady_state(outcome, target, params, labels, original):
    """Finite analytic steady state, equal to the benchmark's own recursion;
    returns it (or None after recording the failure)."""
    activation = params.activation.rates if params.activation is not None else None
    try:
        analytic = analytic_of(params, labels).proportions
    except Exception as exc:  # any raise here is a failed output check
        outcome.fail(target, f"no analytic steady state: {exc!r}")
        return None
    if not np.all(np.isfinite(analytic)) or abs(analytic.sum() - 1.0) > 1e-9:
        outcome.fail(target, "analytic steady state is not a finite distribution")
        return None
    if np.abs(analytic - gen.stationary(params.survival.probs, activation)).max() > 1e-9:
        outcome.fail(target, "analytic steady state disagrees with the recursion")
    outcome.target_maes.append(float(np.abs(analytic - original).mean()))
    return analytic


class WppCascade:
    """``agedist pipeline`` on a WPP-shaped dataset, in-process."""

    def __init__(self, seed: int, seconds: float, work: Path):
        self.seed = seed
        self.n = max(8, round(seconds / WPP_S_PER_COUNTRY))
        data = gen.wpp_csv(seed, self.n)
        self.input_problems = []
        if data != gen.wpp_csv(seed, self.n):
            self.input_problems.append("generator: same seed gave different bytes")
        self.targets = gen.parse_csv(data)
        mix = gen.shape_mix(self.n)
        if len(self.targets) != self.n or any(
                len(c) != gen.WPP_GROUPS for c in self.targets.values()):
            self.input_problems.append("generator: wrong country or group count")
        if sum(gen.is_monotone(c) for c in self.targets.values()) != mix["pyramid"]:
            self.input_problems.append("generator: wrong pyramid count")
        self.work = work
        self.csv = work / "input.csv"
        self.csv.write_bytes(data)

    def warm(self) -> None:
        from agedist import cli

        small = self.work / "warm.csv"
        small.write_bytes(gen.wpp_csv(self.seed, 3))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["pipeline", "--input", str(small), "--out-dir",
                      str(self.work / "warm"), "--de-iters", "2",
                      "--agents", "100", "--steps", "20"])

    def run(self, tracer=None) -> None:
        from agedist import cli

        self.out = self.work / "pipeline"
        shutil.rmtree(self.out, ignore_errors=True)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            self.status = cli.main(["pipeline", "--input", str(self.csv),
                                    "--out-dir", str(self.out)])
        self.printed = printed.getvalue()

    def check(self) -> Outcome:
        from agedist import dataio

        outcome = Outcome(attempted=self.n, problems=list(self.input_problems))
        if self.status != 0:
            outcome.problems.append(f"pipeline exited with {self.status}")
            outcome.failed_targets.update(self.targets)
            return outcome
        summary = json.loads((self.out / "summary.json").read_text())
        per_country = summary["per_country"]
        printed = dict(re.findall(r"(\w+)=(\d+)", self.printed))
        tallied = {}
        for entry in per_country.values():
            tallied[entry["route"]] = tallied.get(entry["route"], 0) + 1
        routes = summary["route_counts"]
        outcome.routes = routes
        if {k: int(v) for k, v in printed.items()} != routes or any(
                tallied.get(k, 0) != v for k, v in routes.items()):
            outcome.problems.append("summary.json route counts differ from the report")
        if set(per_country) != set(self.targets):
            outcome.problems.append("summary.json does not list every country")

        solved = {name for name, e in per_country.items() if e["route"] != "failed"}
        written = {p.stem for p in (self.out / "params").glob("*.json")}
        if written != solved:
            outcome.problems.append(
                f"{len(written)} params files for {len(solved)} solved countries")
        for name, counts in self.targets.items():
            entry = per_country.get(name)
            if entry is None or entry["route"] == "failed":
                outcome.failed_targets.add(name)
                continue
            original = counts / counts.sum()
            try:
                params = dataio.load_params(self.out / "params" / f"{name}.json")
            except Exception as exc:  # unreadable output is a failed check
                outcome.fail(name, f"params file does not load: {exc!r}")
                continue
            analytic = check_steady_state(
                outcome, name, params, gen.WPP_LABELS, original)
            if analytic is None:
                continue
            if (entry["route"] == "model1"
                    and np.abs(analytic - original).max() > CLOSED_FORM_TOL):
                outcome.fail(name, "model1 route does not reproduce its target")
            outcome.validation_maes.append(entry["sim_mae"])
        return outcome


class PopulationScale:
    """``simulator.run`` at 1M agents on a plain and an activated set."""

    def __init__(self, seed: int, seconds: float, work: Path):
        from agedist.distributions import ModelKind, ModelParams

        self.seed = seed
        sets = gen.population_params(seed)
        self.input_problems = []
        again = gen.population_params(seed)
        if any(not np.array_equal(x, y) for k in sets for x, y in zip(sets[k], again[k])):
            self.input_problems.append("generator: same seed gave different parameters")
        self.sets = {}
        for name, (survival, activation) in sets.items():
            kind = ModelKind.MODEL1 if activation is None else ModelKind.MODEL2
            params = ModelParams(kind=kind, survival=survival, activation=activation)
            target = analytic_of(params, gen.WPP_LABELS)
            self.sets[name] = (params, target)
        shape = gen.is_monotone(self.sets["plain"][1].proportions), gen.is_monotone(
            self.sets["activated"][1].proportions)
        if shape != (True, False):
            self.input_problems.append("generator: plain set is not a pyramid "
                                       "or activated set is not a hump")
        self.config = dict(num_agents=POPULATION_AGENTS, num_steps=STEPS,
                           seed=seed, burn_in=STEPS - STEPS // 7)

    def warm(self) -> None:
        from agedist import simulator

        params, target = self.sets["activated"]
        simulator.run(target, params,
                      simulator.SimConfig(num_agents=1000, num_steps=20, burn_in=10))

    def run(self, tracer=None) -> None:
        from agedist import simulator

        self.results = {}
        for name, (params, target) in self.sets.items():
            if tracer is not None:
                tracer.target = name
            self.results[name] = simulator.run(
                target, params, simulator.SimConfig(**self.config))

    def check(self) -> Outcome:
        outcome = Outcome(attempted=len(self.sets), problems=list(self.input_problems))
        for name, (params, target) in self.sets.items():
            check_steady_state(outcome, name, params, target.labels, target.proportions)
            estimate = self.results[name].steady_estimate
            if not np.all(np.isfinite(estimate)):
                outcome.fail(name, "simulated estimate is not finite")
                continue
            mae = float(np.abs(estimate - target.proportions).mean())
            outcome.validation_maes.append(mae)
            if mae >= VALIDATION_MAE:
                outcome.fail(name, f"simulated estimate off by {mae:.3g}")
        return outcome


class FineGridSolve:
    """The documented solve path on 101-group humps, no validation run."""

    def __init__(self, seed: int, seconds: float, work: Path):
        from agedist import normalize

        self.seed = seed
        count = max(1, round(seconds / FINE_S_PER_TARGET))
        raw = gen.fine_grid_targets(seed, count)
        again = gen.fine_grid_targets(seed, count)
        self.input_problems = []
        if any(not np.array_equal(a, b) for a, b in zip(raw, again)):
            self.input_problems.append("generator: same seed gave different targets")
        if any(len(c) != gen.FINE_GROUPS or gen.is_monotone(c) for c in raw):
            self.input_problems.append("generator: a target is not a 101-group hump")
        self.targets = [normalize(c, gen.FINE_LABELS) for c in raw]

    def warm(self) -> None:
        from agedist import curvefit, model1, model2, normalize

        dist = normalize(gen.fine_grid_targets(self.seed, 1)[0][:12], gen.FINE_LABELS[:12])
        model2.optimize(dist, model2.DEConfig(max_iterations=2))
        model1.solve(curvefit.fit(dist).fitted, "mid")

    def run(self, tracer=None) -> None:
        from agedist import curvefit, model1, model2
        from agedist.distributions import ModelKind, ModelParams

        self.results = []
        for index, dist in enumerate(self.targets):
            if tracer is not None:
                tracer.target = f"target-{index}"
            solution = model2.optimize(dist, model2.DEConfig(seed=self.seed))
            if solution.converged:
                params = ModelParams(kind=ModelKind.MODEL2, survival=solution.survival,
                                     activation=solution.activation)
                self.results.append(("model2", params, None))
            else:
                fitted = curvefit.fit(dist).fitted
                params = ModelParams(kind=ModelKind.MODEL1_ON_FITTED,
                                     survival=model1.solve(fitted, "mid"))
                self.results.append(("curve_fit", params, fitted))

    def check(self) -> Outcome:
        outcome = Outcome(attempted=len(self.targets), problems=list(self.input_problems))
        outcome.routes = {"model1": 0, "model2": 0, "curve_fit": 0, "failed": 0}
        for index, (dist, (route, params, fitted)) in enumerate(
                zip(self.targets, self.results)):
            outcome.routes[route] += 1
            name = f"target-{index}"
            analytic = check_steady_state(
                outcome, name, params, dist.labels, dist.proportions)
            if (analytic is not None and fitted is not None
                    and np.abs(analytic - fitted.proportions).max() > CLOSED_FORM_TOL):
                outcome.fail(name, "closed form does not reproduce the fitted curve")
        return outcome


WORKLOADS = {
    "wpp-cascade": WppCascade,
    "population-scale": PopulationScale,
    "fine-grid-solve": FineGridSolve,
}


def setup_seconds() -> float:
    """Median wall time of a fresh process importing agedist and building
    the command-line parser, in reference-machine seconds (a speed probe
    runs before each start)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import agedist, agedist.cli; agedist.cli.build_parser()"
    pace = Pace()
    times = []
    for _ in range(SETUP_REPEATS):
        pace.probe()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / pace.slowdown()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads reach."""
    from agedist import cli, curvefit, dataio, model1, model2, pipeline, simulator

    names = {}

    def ingest(counts, args, kwargs, entries):
        names.update((id(dist), name) for name, dist in entries)
        counts["dataio.ingest_csv.rows"] += sum(len(dist) for _, dist in entries)
        counts["dataio.ingest_csv.bytes"] += os.path.getsize(args[0])

    def emit(counts, args, kwargs, result):
        counts["dataio.emit_params.bytes"] += os.path.getsize(args[1])

    def optimize(counts, args, kwargs, solution):
        config = args[1] if len(args) > 1 else kwargs.get("config")
        config = config or model2.DEConfig()
        population = config.population_size or 30 * len(args[0])
        counts["model2.optimize.generations"] += solution.iterations_used
        counts["model2.optimize.evaluations"] += (solution.iterations_used + 1) * population
        counts["model2.optimize.converged"] += solution.converged

    def fit(counts, args, kwargs, result):
        counts["curvefit.fit.breakpoints"] += len(result.per_k_table)
        counts["curvefit.fit.usable_breakpoints"] += sum(
            np.isfinite(sse) and np.isfinite(w) for _, sse, w in result.per_k_table)

    def run(counts, args, kwargs, result):
        config = args[2] if len(args) > 2 else kwargs.get("config")
        config = config or simulator.SimConfig()
        counts["simulator.run.agent_steps"] += config.num_agents * config.num_steps

    tracer.wrap(cli, "cmd_pipeline")
    tracer.wrap(dataio, "ingest_csv", count=ingest)
    tracer.wrap(dataio, "emit_params", count=emit)
    tracer.wrap(pipeline, "run_dataset")
    tracer.wrap(pipeline, "classify", target_of=lambda args: names.get(id(args[0])))
    tracer.wrap(model1, "solve")
    tracer.wrap(model1, "steady_state")
    tracer.wrap(model2, "optimize", count=optimize)
    tracer.wrap(model2, "steady_state2")
    tracer.wrap(curvefit, "fit", count=fit)
    tracer.wrap(simulator, "run", count=run)


LAYERS = ("cli.cmd_pipeline", "dataio.ingest_csv", "dataio.emit_params",
          "pipeline.run_dataset", "pipeline.classify", "model1.solve",
          "model1.steady_state", "model2.optimize", "model2.steady_state2",
          "curvefit.fit", "simulator.run")


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float,
                  outcome: Outcome) -> dict:
    counts = tracer.counts
    self_s = tracer.self_times()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = counts[f"{layer}.calls"]
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    generations = counts["model2.optimize.generations"]
    metrics.update({
        "model2.optimize.generations": generations,
        "model2.optimize.evaluations": counts["model2.optimize.evaluations"],
        "model2.optimize.s_per_generation": ratio(
            metrics["model2.optimize.self_s"], generations),
        "model2.optimize.converged_share": ratio(
            counts["model2.optimize.converged"], counts["model2.optimize.calls"]),
        "curvefit.fit.breakpoints": counts["curvefit.fit.breakpoints"],
        "curvefit.fit.usable_breakpoint_share": ratio(
            counts["curvefit.fit.usable_breakpoints"], counts["curvefit.fit.breakpoints"]),
        "simulator.run.agent_steps": counts["simulator.run.agent_steps"],
        "simulator.run.agent_steps_per_s": ratio(
            counts["simulator.run.agent_steps"], metrics["simulator.run.self_s"]),
        "dataio.ingest_csv.rows": counts["dataio.ingest_csv.rows"],
        "dataio.ingest_csv.bytes": counts["dataio.ingest_csv.bytes"],
        "dataio.emit_params.bytes": counts["dataio.emit_params.bytes"],
        "trace.spans": len(tracer.spans),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_share": traced_s / untraced_s - 1.0,
        # Wall time of the traced pass that no layer span covers.
        "trace.unattributed_s": self_s.get("bench.pass", 0.0),
    })
    for route in ("model1", "model2", "curve_fit", "failed"):
        metrics[f"route.{route}"] = outcome.routes.get(route, 0)
    for name, value in outcome.quality().items():
        metrics[f"quality.{name}"] = value
    return metrics


def timed_pass(workload, tracer=None) -> float:
    start = time.perf_counter()
    if tracer is None:
        workload.run()
    else:
        with tracer.span("bench.pass"):
            workload.run(tracer)
    return time.perf_counter() - start


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def metadata(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        load_program()
    except (OSError, ValueError, ProgramMissing) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{stem}-{os.getpid()}"
    work.mkdir()
    try:
        setup_s = None if args.trace else setup_seconds()
        # Seeds for numpy and the program must be non-negative.
        workload = WORKLOADS[args.workload](args.seed % 2**32, args.seconds, work)
        workload.warm()
        if args.trace:
            untraced_s = timed_pass(workload)
            timing = {"untraced_s": untraced_s}
        else:
            with Pace() as pace:
                wall_s = timed_pass(workload)
            # Work-only seconds on the reference machine.
            untraced_s = (wall_s - pace.probe_s) / pace.slowdown()
            timing = {"wall_s": wall_s, "probes": len(pace.samples),
                      "probe_s": pace.probe_s, "slowdown": pace.slowdown(),
                      "reference_s": untraced_s}
        outcome = workload.check()
        if args.trace:
            first = (outcome.routes, outcome.quality())
            tracer = Tracer()
            install(tracer)
            try:
                traced_s = timed_pass(workload, tracer)
            finally:
                tracer.close()
            outcome = workload.check()
            if (outcome.routes, outcome.quality()) != first:
                outcome.problems.append("traced pass differs from the untraced pass")
            tracer.write(OUT / f"{stem}-spans.jsonl")
            if abs(sum(tracer.self_times().values()) - traced_s) > 0.01 * traced_s:
                outcome.problems.append("self times do not add up to the traced wall time")
            timing["traced_s"] = traced_s
            values = layer_metrics(tracer, untraced_s, traced_s, outcome)
        else:
            values = {
                "setup_s": setup_s,
                "targets_per_s": outcome.attempted / untraced_s,
                "peak_rss_mb": peak_rss_mb(),
                "solved_share": 1.0 - len(outcome.failed_targets) / outcome.attempted,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    correct = not outcome.problems
    record = {"metadata": metadata(args), "correct": correct,
              "problems": outcome.problems, "routes": outcome.routes,
              "quality": outcome.quality(), "timing": timing, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for problem in outcome.problems:
        print(f"check failed: {problem}")
    print(f"{args.workload} seed {args.seed}: {outcome.attempted} targets, "
          f"routes {outcome.routes}, timing {timing}")
    for name, value in outcome.quality().items():
        print(f"  quality {name} = {value:.6g}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": len(outcome.failed_targets), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
