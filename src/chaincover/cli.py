"""Command-line surface.

Exit codes: 0 success, 1 bad input, 2 violated invariant/assertion.
CHAINCOVER_SEED supplies the default seed where one applies.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

import click
from click.core import ParameterSource

from . import experiments as xp
from .chain import NestedChain, nested_chain
from .compress import select
from .conformal import LabeledPair, calibrate, fixed_context_fit, quantile_index
from .hypergraph import InputError, InvariantError, as_fraction, rational_to_text as text
from .io import canonical_json, check_writable, load_chain_or_instance, load_instance, load_pairs
from .io import save_chain, write_result_csv

_ENV_SEED = "CHAINCOVER_SEED"
# the options each experiment kind reads; another one given on the command line is refused
_EXPERIMENT_OPTIONS = {
    "grid": ("seeds", "phi_grid"),
    "trip": ("seeds", "phi_grid", "alpha"),
    "adversarial": ("seeds", "path_len", "parallel", "eps", "kappa"),
}


def _seed(text: str) -> int:
    """A seed: a non-negative integer, as the random streams take."""
    seed = int(text)
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    return seed


def _default_seed() -> int:
    raw = os.environ.get(_ENV_SEED, "0")
    try:
        return _seed(raw)
    except ValueError:
        raise InputError(f"{_ENV_SEED} must be a non-negative integer, got {raw!r}") from None


def _fractions_csv(text: str) -> list[Fraction]:
    try:
        return [as_fraction(part.strip()) for part in text.split(",") if part.strip()]
    except InputError as exc:
        raise InputError(f"bad rational list {text!r}: {exc}") from None


def _seeds_csv(text: str) -> list[int]:
    try:
        return [_seed(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise InputError(f"bad seed list {text!r}: {exc}") from None


@click.group()
def cli() -> None:
    """Nested-chain subgraph compression toolkit."""


@cli.command("chain")
@click.argument("instance", type=click.Path(exists=False))
@click.argument("out", type=click.Path())
def cmd_chain(instance: str, out: str) -> None:
    """Write the full nested chain of INSTANCE to OUT."""
    h, _ = load_instance(instance)
    check_writable(out)
    chain = nested_chain(h)
    save_chain(out, chain)
    click.echo(f"{len(chain.sets)} sets, {len(chain.breakpoints)} breakpoints -> {out}")


@cli.command("compress")
@click.argument("source", type=click.Path())
@click.option("--tau", required=True, help="coverage target in [0, 1]")
@click.option("--kappa", default="1", show_default=True, help="slack parameter > 0")
def cmd_compress(source: str, tau: str, kappa: str) -> None:
    """Select a vertex set from SOURCE (an instance or a saved chain)."""
    chain = load_chain_or_instance(source)
    if not isinstance(chain, NestedChain):
        chain = nested_chain(chain)
    sel = select(chain, tau, kappa)
    report = {
        "vertices": sorted(sel.vertex_set),
        "size": len(sel.vertex_set),
        "residual": text(sel.residual),
        "residual_bound": text(sel.bound),
        "certified": sel.residual <= sel.bound,
    }
    click.echo(canonical_json(report), nl=False)


@cli.command("calibrate")
@click.argument("pairs", type=click.Path())
@click.option("--phi", required=True, help="target coverage level")
@click.option("--delta", default=None, help="stage-1 miss budget (default 0.05*phi)")
@click.option("--kappa", default="1", show_default=True)
def cmd_calibrate(pairs: str, phi: str, delta: str | None, kappa: str) -> None:
    """Two-stage calibration from a PAIRS file.

    PAIRS holds {"n", "edges", "pairs": [{"a": [...], "b": [...]}, ...]} with
    an optional "split" count for the stage-1 prefix (default: half).
    """
    universe, raw_pairs, split = load_pairs(pairs)
    items = [LabeledPair(a, b, universe) for a, b in raw_pairs]
    state = calibrate(items[:split], items[split:], phi, delta, kappa)
    overflow = quantile_index(state.phi, len(state.etas)) > len(state.etas)
    report = {
        "d_star": "inf" if state.d_star == float("inf") else state.d_star,
        "tau_star": text(state.tau_star),
        "phi": text(state.phi),
        "delta": text(state.delta),
        "kappa": text(state.kappa),
        "etas": [text(e.value) for e in state.etas],
        "censored": [e.censored for e in state.etas],
        "quantile_overflow": overflow,
    }
    click.echo(canonical_json(report), nl=False)


@cli.command("fixed")
@click.argument("samples", type=click.Path())
@click.option("--phi", required=True, help="target coverage level")
def cmd_fixed(samples: str, phi: str) -> None:
    """Fixed-context fit: SAMPLES is an instance file whose edges are the draws."""
    h, _ = load_instance(samples)
    draws = [e.vertices for e in h.edges]
    fit = fixed_context_fit(draws, phi, h.n)
    report = {
        "vertices": sorted(fit.vertex_set),
        "size": len(fit.vertex_set),
        "level_count": fit.level_count,
        "second_half_coverage": text(fit.second_half_coverage),
    }
    click.echo(canonical_json(report), nl=False)


@cli.command("experiment")
@click.argument("kind", type=click.Choice(["grid", "trip", "adversarial"]))
@click.option("--out", required=True, type=click.Path())
@click.option("--seeds", default=None, help="comma-separated seed list")
@click.option("--phi-grid", default=None, help="comma-separated coverage grid")
@click.option("--alpha", default=0.4, show_default=True, help="trip core density")
@click.option("--path-len", "path_len", default=30, show_default=True, help="adversarial a")
@click.option("--parallel", default=3, show_default=True, help="adversarial b")
@click.option("--eps", default="0.2", show_default=True, help="adversarial mass")
@click.option("--kappa", default="1", show_default=True)
def cmd_experiment(kind: str, out: str, seeds: str | None, phi_grid: str | None,
                   alpha: float, path_len: int, parallel: int, eps: str, kappa: str) -> None:
    """Run a generator + methods sweep and write the result CSV to OUT."""
    ctx = click.get_current_context()
    for param in ctx.command.params:
        if (param.name not in ("kind", "out", *_EXPERIMENT_OPTIONS[kind])
                and ctx.get_parameter_source(param.name) is ParameterSource.COMMANDLINE):
            raise InputError(f"{param.opts[0]} does not apply to experiment {kind}")
    seed_list = _seeds_csv(seeds) if seeds else [_default_seed()]
    phis = _fractions_csv(phi_grid) if phi_grid else list(xp.default_phi_grid())
    check_writable(out)
    if kind == "adversarial":
        rows = xp.adversarial_rows(path_len, parallel, eps, kappa, seed_list)
    else:
        rows = xp.comparison_rows(kind, seed_list, phis, alpha)
    write_result_csv(out, rows)
    click.echo(f"{len(rows)} rows -> {out}")


def main() -> None:
    try:
        cli.main(standalone_mode=False)
    except InputError as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(1)
    except InvariantError as exc:
        click.echo(f"invariant violated: {exc}", err=True)
        sys.exit(2)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)


if __name__ == "__main__":
    main()
