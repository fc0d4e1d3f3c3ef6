"""Command-line front end.

  cbayes run <experiment>   run a verification suite, print the verdicts,
                            and exit 0 only when every verdict passes
  cbayes sample-prior       draw one truncated series sample as CSV
  cbayes hellinger          distance between two posteriors over a prior
  cbayes map                l1-penalized MAP estimate from a problem file

Reports are JSON with an embedded config; points export as CSV with the
stable columns (x, value, stderr, method, effort).
"""

from __future__ import annotations

import json

import click
import numpy as np

from .config import potential_from_json, prior_from_json
from .experiments import (
    _LAPLACE_SERIES,
    EXPERIMENT_NAMES,
    all_verdicts_pass,
    report_points_csv,
    run_experiment,
)
from .posterior import PosteriorSpec, hellinger, map_estimate_l1
from .series_prior import field_to_csv, sample_field

def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@click.group()
def main():
    """Convex series priors and well-posed Bayesian inversion."""


@main.command("run")
@click.argument("experiment", type=click.Choice(EXPERIMENT_NAMES))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON file overriding default config keys.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the report JSON here instead of stdout.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the measurement points as CSV.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.pass_context
def run_cmd(ctx, experiment, config_path, out_path, csv_path, seed):
    """Run one verification suite and report pass/fail verdicts."""
    overrides = _load_json(config_path) if config_path else None
    report = run_experiment(experiment, overrides, seed)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(report_points_csv(report))
    for name, v in sorted(report["verdicts"].items()):
        status = "PASS" if v["passed"] else "FAIL"
        click.echo(f"{status} {experiment}.{name} [{v['tolerance']}]", err=True)
    if not all_verdicts_pass(report):
        ctx.exit(1)


@main.command("sample-prior")
@click.option("--prior", "prior_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Prior JSON; defaults to the Laplace series prior.")
@click.option("--level", type=int, default=8, show_default=True, help="Truncation window level.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the coefficient CSV here instead of stdout.")
def sample_prior_cmd(prior_path, level, seed, out_path):
    """Draw one truncated series sample and emit index,coefficient rows."""
    prior = prior_from_json(_load_json(prior_path) if prior_path else _LAPLACE_SERIES)
    csv = field_to_csv(sample_field(prior, level, seed))
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(csv)
    else:
        click.echo(csv, nl=False)


@main.command("hellinger")
@click.option("--prior", "prior_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--potential-a", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--potential-b", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--level", type=int, required=True, help="Window level shared by both posteriors.")
@click.option("--method", type=click.Choice(["prior_mc", "quadrature"]), default="prior_mc", show_default=True)
@click.option("--effort", type=int, default=None, help="Samples (prior_mc) or nodes per axis (quadrature).")
@click.option("--seed", type=int, default=0, show_default=True)
def hellinger_cmd(prior_path, potential_a, potential_b, level, method, effort, seed):
    """Hellinger distance between two posteriors over one prior."""
    prior = prior_from_json(_load_json(prior_path))
    spec_a = PosteriorSpec(prior, potential_from_json(_load_json(potential_a)), level)
    spec_b = PosteriorSpec(prior, potential_from_json(_load_json(potential_b)), level)
    rep = hellinger(spec_a, spec_b, method=method, effort=effort, seed=seed)
    click.echo(f"{rep.value!r} stderr={rep.stderr!r} method={rep.method} effort={rep.effort}")


@main.command("map")
@click.option("--problem", "problem_path", type=click.Path(exists=True, dir_okay=False), required=True,
              help='JSON file with keys "matrix", "y", "sigma", "lam".')
@click.option("--tol", type=float, default=1e-10, show_default=True)
def map_cmd(problem_path, tol):
    """Solve 0.5||Az - y||^2 + (sigma^2/lam)||z||_1 and print the result."""
    prob = _load_json(problem_path)
    A = np.asarray(prob["matrix"], dtype=float)
    y = np.asarray(prob["y"], dtype=float)
    res = map_estimate_l1(A, y, float(prob["sigma"]), float(prob["lam"]), tol=tol)
    click.echo(",".join(repr(float(v)) for v in res.estimate))
    click.echo(f"objective={res.objective!r} iterations={res.iterations}", err=True)


if __name__ == "__main__":
    main(prog_name="cbayes")
