"""Command-line interface.

Subcommands cover the whole workflow: ``classify`` (each country's shape
and the route the cascade takes for it), ``solve`` (closed-form
parameterisation for one country; a model-2 target beyond the closed form's
reach is solved on its nearest reachable target), ``fit-curve`` (the
original method's plateau-decay surrogate plus closed-form solve),
``simulate`` (stochastic validation of a parameter file) and ``pipeline``
(the full cascade over a dataset, emitting parameter files and plot-data
CSVs). ``classify``, ``solve`` and ``pipeline`` all call the pipeline's one
station, ``pipeline.solve``, so ``solve``'s files carry the pipeline's
diagnostics, and print the name of the route its ``Solution`` took.
``solve --pn`` sets the last group's survival on every route; ``--country``
also finds the countries that ingest skipped.

Every failure exits nonzero after printing a line prefixed ``error:`` to
stderr. All subcommands are deterministic given identical inputs and
``--seed``. The AGEDIST_LOG environment variable sets the log level (debug,
info, warning, error or critical); any other value is an error.
"""

from __future__ import annotations

import argparse
import logging
import os
import platform
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, curvefit, dataio, distributions, pipeline, simulator
from .distributions import ModelKind, ModelParams, classify, mean_absolute_error
from .errors import AgedistError

logger = logging.getLogger("agedist")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose failures match the ``error:`` line contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _configure_logging() -> None:
    name = os.environ.get("AGEDIST_LOG", "warning")
    level = getattr(logging, name.upper(), None)
    if not isinstance(level, int):
        raise AgedistError(f"AGEDIST_LOG={name!r} is not debug, info, warning, error or critical")
    logging.basicConfig(level=level)


def _ingest(args, country=None) -> tuple:
    """The input's (name, distribution) entries and the (name, reason)
    records of the countries ingest skipped, both restricted to ``country``
    when one is given; AgedistError when it is in neither."""
    skipped: list = []
    entries = dataio.ingest_csv(args.input, country_col=args.country_col, age_col=args.age_col,
                                pop_col=args.pop_col, skipped=skipped)
    if country is None:
        return entries, skipped
    found = ([entry for entry in entries if entry[0] == country],
             [record for record in skipped if record[0] == country])
    if not any(found):
        raise AgedistError(f"country {country!r} not found ({len(entries)} countries "
                           f"ingested, {len(skipped)} skipped)")
    return found


def _target(args):
    """``args.country``'s distribution; AgedistError naming why ingest skipped it."""
    entries, skipped = _ingest(args, args.country)
    if skipped:
        raise AgedistError(f"country {args.country!r} was skipped: {skipped[0][1]}")
    return entries[0][1]


def _add_input_options(sub) -> None:
    sub.add_argument("--input", required=True, help="long-format CSV dataset")
    sub.add_argument("--country-col", default="country")
    sub.add_argument("--age-col", default="age_group")
    sub.add_argument("--pop-col", default="population")


def _add_run_options(sub) -> None:
    defaults = simulator.SimConfig  # a dataclass: its fields' defaults
    sub.add_argument("--agents", type=int, default=defaults.num_agents)
    sub.add_argument("--steps", type=int, default=defaults.num_steps)
    sub.add_argument("--seed", type=int, default=defaults.seed)


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_") or "unnamed"


def _file_stems(entries) -> dict:
    """Each country's output file stem; AgedistError when two countries
    would share one and overwrite each other's files."""
    stems, owners = {}, {}
    for name, _ in entries:
        stem = stems[name] = _safe_name(name)
        if owners.setdefault(stem, name) != name:
            raise AgedistError(f"countries {owners[stem]!r} and {name!r} would both "
                               f"write the output files named {stem!r}; rename one")
    return stems


def _parse_pn(text: str):
    if text in ("mid", "rand"):
        return text
    try:
        return float(text)
    except ValueError:
        raise AgedistError(
            f"--pn must be 'mid', 'rand' or a number, got {text!r}"
        ) from None


def cmd_classify(args) -> int:
    entries, skipped = _ingest(args, args.country)
    rows = [[name, classify(dist).value, _route_name(dist)] for name, dist in entries]
    rows += [[name, "skipped", "none"] for name, _ in skipped]
    dataio.write_csv(sys.stdout, ["country", "classification", "eligible_route"], rows)
    return 0


def _route_name(dist) -> str:
    try:
        return pipeline.solve(dist).route.value
    except AgedistError:
        return pipeline.Route.FAILED.value


def cmd_solve(args) -> int:
    dist = _target(args)
    solution = pipeline.solve(dist, _parse_pn(args.pn), seed=args.seed)
    params = solution.params
    dataio.emit_params(params, args.out, target=dist, config={"seed": args.seed, "pn": args.pn})
    print(f"{args.country}: route {solution.route.value}, mae {params.diagnostics['mae']:.3g}, "
          f"wrote {args.out}")
    return 0


def _fitted_params(fit: curvefit.CurveFitResult) -> tuple:
    """``fit-curve``'s parameters: the station on the fitted surrogate
    (monotone, so a MODEL1 set), with the fit's distance, residual and
    curve parameters in its diagnostics; returns (params, analytic steady
    state)."""
    solution = pipeline.solve(fit.fitted)
    diagnostics = {
        "mae": solution.params.diagnostics["mae"],
        "wasserstein_to_original": fit.wasserstein_to_original,
        "residual_sse": fit.residual_sse,
        **asdict(fit.params),  # plateau, decay_scale, decay_shape, breakpoint
        "free_param_mode": solution.params.diagnostics["free_param_mode"],
    }
    return ModelParams(ModelKind.MODEL1_ON_FITTED, solution.params.survival,
                       diagnostics=diagnostics), solution.analytic


def cmd_fit_curve(args) -> int:
    dist = _target(args)
    result = curvefit.fit(dist)

    dataio.write_csv(args.fit_report, ["k", "sse", "wasserstein"], result.per_k_table)

    params, _ = _fitted_params(result)
    # The file's target is the fitted surrogate: that is the distribution
    # these parameters reproduce.
    dataio.emit_params(params, args.out, target=result.fitted,
                       config={"source_country": args.country})
    print(
        f"{args.country}: breakpoint {result.params.breakpoint}, "
        f"wasserstein {result.wasserstein_to_original:.10g}, wrote {args.out}"
    )
    return 0


def cmd_simulate(args) -> int:
    document = dataio.load_params_document(args.params)
    params, target = document.params, document.target
    labels = target.labels if target is not None else None
    try:
        analytic = distributions.stationary_distribution(params.survival, params.activation,
                                                         labels=labels)
    except AgedistError as exc:  # rates the value types accept but the law refuses
        raise type(exc)(f"{args.params}: {exc}") from None

    config = simulator.SimConfig(
        num_agents=args.agents,
        num_steps=args.steps,
        seed=args.seed,
        burn_in=args.burn_in,
        record_trajectory=args.trajectory is not None,
    )
    result = simulator.run(target if target is not None else analytic, params, config)
    mae = mean_absolute_error(result.steady_estimate, analytic.proportions)

    if args.trajectory is not None:
        dataio.write_trajectory_csv(result, args.trajectory)

    output = {
        "labels": result.labels,
        "steady_estimate": result.steady_estimate,
        "final_snapshot": result.final_snapshot,
        "mae_vs_analytic": mae,
        "total_deaths": result.total_deaths,
        "seed": result.seed,
        "num_agents": config.num_agents,
        "num_steps": config.num_steps,
        "burn_in": config.burn_in,
        "params_file": str(args.params),
    }
    dataio.write_json(output, args.out)
    print(f"simulated {config.num_steps} steps: mae vs analytic {mae:.3g}, "
          f"wrote {args.out}")
    return 0


def cmd_pipeline(args) -> int:
    entries, skipped = _ingest(args)
    stems = _file_stems(entries)
    sim_config = simulator.SimConfig(
        num_agents=args.agents,
        num_steps=args.steps,
        seed=args.seed,
    )
    report = pipeline.run_dataset(entries, sim_config)

    out_dir = Path(args.out_dir)
    params_dir = out_dir / "params"
    plots_dir = out_dir / "plots"
    params_dir.mkdir(parents=True, exist_ok=True)
    plots_dir.mkdir(parents=True, exist_ok=True)

    targets = dict(entries)
    for name, res in report.per_country.items():
        if res.solution is None:
            continue
        dist, stem = targets[name], stems[name]
        dataio.emit_params(
            res.solution.params,
            params_dir / f"{stem}.json",
            target=dist,
            config={"seed": args.seed, "num_agents": args.agents, "num_steps": args.steps},
        )
        dataio.write_csv(
            plots_dir / f"{stem}_distribution.csv",
            ["age_group", "target", "analytic", "simulated"],
            zip(dist.labels, dist.proportions, res.solution.analytic.proportions,
                res.sim_estimate),
        )

    dataio.write_csv(plots_dir / "nearest_reachable_wasserstein.csv",
                     ["country", "wasserstein"],
                     report.nearest_reachable_wasserstein.items())

    summary = {
        "library_version": __version__,
        "run": {
            "numpy_version": np.__version__,
            "python_version": platform.python_version(),
            "seed": args.seed,
            "num_agents": sim_config.num_agents,
            "num_steps": sim_config.num_steps,
            "burn_in": sim_config.burn_in,
        },
        "countries": len(entries),
        "skipped": [{"country": n, "reason": r} for n, r in skipped],
        "route_counts": {
            route.value: count for route, count in report.route_counts.items()
        },
        "mean_nearest_reachable_wasserstein": report.mean_wasserstein,
        "flagged_nearest_reachable": list(report.flagged),
        "per_country": {
            name: {
                "route": res.route.value,
                "sim_mae": res.sim_mae,
                "failure_reason": res.failure_reason,
                "diagnostics": res.solution.params.diagnostics if res.solution else None,
            }
            for name, res in report.per_country.items()
        },
    }
    dataio.write_json(summary, out_dir / "summary.json")

    counts = ", ".join(
        f"{route.value}={count}" for route, count in report.route_counts.items()
    )
    print(f"processed {len(entries)} countries ({counts}), wrote {out_dir}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="agedist", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="route eligibility per country")
    _add_input_options(p)
    p.add_argument("--country", help="restrict to one country")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="parameterise one country")
    _add_input_options(p)
    p.add_argument("--country", required=True)
    p.add_argument("--pn", default="mid",
                   help="last-group survival: mid, rand (drawn with --seed) or a number")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="parameter file to write")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("fit-curve",
                       help="plateau-decay surrogate plus closed-form solve")
    _add_input_options(p)
    p.add_argument("--country", required=True)
    p.add_argument("--out", required=True, help="parameter file to write")
    p.add_argument("--fit-report", required=True,
                   help="per-breakpoint table CSV to write")
    p.set_defaults(func=cmd_fit_curve)

    p = sub.add_parser("simulate", help="stochastic run from a parameter file")
    p.add_argument("--params", required=True)
    _add_run_options(p)
    p.add_argument("--burn-in", type=int, default=simulator.SimConfig.burn_in,
                   help="steps discarded before averaging "
                        "(default: all but the final seventh)")
    p.add_argument("--trajectory", help="optional per-step CSV dump")
    p.add_argument("--out", required=True, help="result JSON to write")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pipeline", help="full cascade over a dataset")
    _add_input_options(p)
    p.add_argument("--out-dir", required=True)
    # Still parsed: existing command lines (bench/run.py's warm-up) pass it.
    p.add_argument("--de-iters", type=int, default=250, help="ignored: no search runs")
    _add_run_options(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _configure_logging()
        return args.func(args)
    except Exception as exc:  # CLI contract: no bare tracebacks
        logger.debug("%s failed", args.command, exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
