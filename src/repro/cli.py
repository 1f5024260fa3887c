"""Command-line interface: regenerate any table or figure of the paper,
or any parameterized variant of one.

Usage::

    repro-signaling list
    repro-signaling run fig4 [--fidelity {full,fast,smoke}] [--jobs N]
                             [--set key=value ...] [--protocols ss,hs]
                             [--format {text,csv,json}]
                             [--output fig4.txt] [--csv-dir results/]
    repro-signaling all [--fidelity fast] [--format json] [--jobs N]
                        [--output-dir results/] [--csv-dir results/]
    repro-signaling validate [fig11|all] [--fidelity smoke] [--jobs N]
                             [--format {text,json}] [--seed S]
                             [--output report.json] [--output-dir reports/]
    repro-signaling claims [--jobs N]
    repro-signaling report [--full]
    repro-signaling diagram ss [--multihop]
    repro-signaling --generate-docs [docs/cli.md]

(or ``python -m repro.cli ...``).  ``--generate-docs`` renders the
markdown CLI reference from the argparse tree (stdout, or the given
path) — the committed ``docs/cli.md`` is kept in sync by CI.

``--fidelity`` picks a named resolution profile (``full`` reproduces
the paper's axes, ``fast`` thins sweeps, ``smoke`` is a seconds-scale
sanity pass).  ``--set key=value`` overrides any field of
the scenario's base parameter preset and ``--protocols`` narrows the
protocol set, so arbitrary scenario variants run with no new code.
``--format`` renders text tables (default), per-panel CSV, or a
versioned JSON artifact with a provenance block.  ``--jobs N`` fans
sweep points (for ``run``/``claims``) or whole experiments (for
``all``) across N worker processes; results are identical to the
serial run, just faster.  ``--task-timeout`` and ``--max-retries``
(or ``$REPRO_TASK_TIMEOUT`` / ``$REPRO_MAX_RETRIES``) tune the worker
pools' fault tolerance — see :mod:`repro.runtime.executor`; the
counters of what tolerance actually absorbed print with ``--verbose``.

``validate`` turns every scenario spec into an executable validation
plan (see :mod:`repro.validation`): artifact round-trips, base-point
invariants, the dense/template/batched/sparse backend parity matrix,
and — for the simulation scenarios — Student-t equivalence between the
replicated simulations and the analytic curves.  It exits 1 when any
check fails, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections.abc import Sequence

from repro.analysis.sensitivity import robustness_report
from repro.core.multihop.transitions import multihop_protocol
from repro.core.protocols import Protocol
from repro.experiments import experiment_ids, run_experiments, run_scenario, scenario
from repro.experiments.claims import render_report
from repro.experiments.diagrams import render_multihop_chain, render_singlehop_chain
from repro.experiments.runner import ExperimentResult
from repro.experiments.spec import (
    FIDELITIES,
    FULL,
    SMOKE,
    ScenarioError,
    parse_overrides,
)
from repro.runtime import (
    effective_jobs,
    failure_report,
    global_cache,
    using_jobs,
    using_tolerance,
)

__all__ = ["build_parser", "generate_cli_markdown", "main"]

_FORMATS = ("text", "csv", "json")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _non_negative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative number, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative number, got {text!r}")
    return value


def _add_jobs_flag(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="solve across N worker processes (default: serial, or $REPRO_JOBS)",
    )
    command.add_argument(
        "--task-timeout",
        type=_non_negative_float,
        default=None,
        metavar="SECONDS",
        help="per-task stall timeout for worker pools; 0 disables "
        "(default: $REPRO_TASK_TIMEOUT, or no timeout)",
    )
    command.add_argument(
        "--max-retries",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help="re-run a failing task up to N times with exponential backoff "
        "(default: $REPRO_MAX_RETRIES, or 2)",
    )


def _add_verbose_flag(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--verbose",
        action="store_true",
        help="report solve-cache and fault-tolerance counters on stderr "
        "when done",
    )


def _add_fidelity_flag(command: argparse.ArgumentParser, default: str = FULL) -> None:
    command.add_argument(
        "--fidelity",
        choices=FIDELITIES,
        default=default,
        help=f"resolution profile (default: {default})",
    )


def _add_format_flag(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--format",
        choices=_FORMATS,
        default="text",
        help="output rendering: aligned text tables, per-panel CSV, "
        "or a versioned JSON artifact with provenance",
    )


def _print_cache_stats() -> None:
    """Solve-cache counters, so sweep dedup wins are observable.

    The counters cover this (parent) process.  For ``run``/``claims``
    the parent dedupes every sweep point, so with ``--jobs N`` the
    misses are exactly the work fanned to the workers and the hits are
    the solves the memo cache saved.  ``all --jobs N`` fans *whole
    experiments* into workers (each with its own per-process cache), so
    the parent counters only reflect parent-side solves — near zero
    there by design.
    """
    stats = global_cache().stats()
    lookups = stats["hits"] + stats["misses"]
    rate = (100.0 * stats["hits"] / lookups) if lookups else 0.0
    print(
        f"solve cache: {stats['hits']} hits, {stats['misses']} misses "
        f"({rate:.1f}% hit rate), {stats['size']} entries",
        file=sys.stderr,
    )
    print(f"failure report: {failure_report().summary()}", file=sys.stderr)


def _tolerance_kwargs(args: argparse.Namespace) -> dict:
    """Only the tolerance knobs the user actually set.

    Flags left at their ``None`` default are omitted entirely so
    :func:`repro.runtime.using_tolerance` keeps the environment-derived
    defaults (passing ``None`` through would *reset* them instead).
    """
    kwargs = {}
    if getattr(args, "task_timeout", None) is not None:
        kwargs["task_timeout"] = args.task_timeout
    if getattr(args, "max_retries", None) is not None:
        kwargs["max_retries"] = args.max_retries
    return kwargs


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-signaling",
        description=(
            "Reproduce tables/figures of 'A Comparison of Hard-state and "
            "Soft-state Signaling Protocols' (Ji et al., SIGCOMM 2003)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the available scenarios")

    run_cmd = commands.add_parser("run", help="run one scenario (or a variant of it)")
    run_cmd.add_argument(
        "experiment",
        choices=sorted(experiment_ids()),
        help="scenario id (see `list`)",
    )
    _add_fidelity_flag(run_cmd)
    run_cmd.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a base-preset parameter (repeatable), "
        "e.g. --set loss_rate=0.05",
    )
    run_cmd.add_argument(
        "--protocols",
        default=None,
        metavar="P1,P2",
        help="narrow the protocol set, e.g. --protocols ss,hs",
    )
    _add_format_flag(run_cmd)
    run_cmd.add_argument("--output", type=pathlib.Path, help="write the rendering here")
    run_cmd.add_argument(
        "--csv-dir",
        type=pathlib.Path,
        help="also write one CSV per panel into this directory",
    )
    _add_jobs_flag(run_cmd)
    _add_verbose_flag(run_cmd)

    all_cmd = commands.add_parser("all", help="run every scenario")
    _add_fidelity_flag(all_cmd)
    _add_format_flag(all_cmd)
    all_cmd.add_argument(
        "--output-dir",
        type=pathlib.Path,
        help="write one rendering per scenario into this directory",
    )
    all_cmd.add_argument(
        "--csv-dir",
        type=pathlib.Path,
        help="also write one CSV per panel per scenario into this directory",
    )
    _add_jobs_flag(all_cmd)
    _add_verbose_flag(all_cmd)

    validate_cmd = commands.add_parser(
        "validate",
        help="run the scenario validation plans (parity matrix, sim-vs-model "
        "equivalence, artifact and invariant checks)",
    )
    validate_cmd.add_argument(
        "target",
        nargs="?",
        default="all",
        choices=sorted(experiment_ids()) + ["all"],
        help="one scenario id, or 'all' (default) for every registered scenario",
    )
    _add_fidelity_flag(validate_cmd, default=SMOKE)
    validate_cmd.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="per-scenario text tables (default) or the versioned JSON "
        "validation artifact",
    )
    validate_cmd.add_argument(
        "--seed",
        type=_non_negative_int,
        default=None,
        metavar="S",
        help="override the simulation seed of validation scenarios",
    )
    validate_destination = validate_cmd.add_mutually_exclusive_group()
    validate_destination.add_argument(
        "--output", type=pathlib.Path, help="write the rendering here"
    )
    validate_destination.add_argument(
        "--output-dir",
        type=pathlib.Path,
        help="write one report per scenario into this directory",
    )
    _add_jobs_flag(validate_cmd)
    _add_verbose_flag(validate_cmd)

    claims_cmd = commands.add_parser(
        "claims", help="check the paper's qualitative claims across decodings"
    )
    _add_jobs_flag(claims_cmd)
    _add_verbose_flag(claims_cmd)

    report_cmd = commands.add_parser(
        "report", help="evaluate every per-figure claim against regenerated figures"
    )
    report_cmd.add_argument(
        "--full", action="store_true", help="use full-resolution sweeps (slower)"
    )

    lint_cmd = commands.add_parser(
        "lint",
        help="run the reprolint invariant checks (layer DAG, determinism, "
        "canonical order, parity registration, worker safety, silent "
        "failures); needs a source checkout",
    )
    lint_cmd.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: src/repro)",
    )
    lint_cmd.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="human-readable findings (default) or the schema-versioned "
        "JSON report",
    )

    diagram_cmd = commands.add_parser(
        "diagram", help="render a model chain (paper Figs. 3, 15, 16) as text"
    )
    diagram_cmd.add_argument(
        "protocol", choices=[p.value for p in Protocol], help="protocol to render"
    )
    diagram_cmd.add_argument(
        "--multihop", action="store_true", help="render the multi-hop chain instead"
    )
    return parser


def _option_signature(action: argparse.Action) -> str:
    """``--flag METAVAR`` (or the positional's metavar) for one action."""
    if not action.option_strings:
        metavar = action.metavar or action.dest
        if isinstance(action.choices, (list, tuple)) and len(action.choices) <= 6:
            return "{" + ",".join(str(c) for c in action.choices) + "}"
        return str(metavar)
    flags = ", ".join(action.option_strings)
    if action.nargs == 0:
        return flags
    metavar = action.metavar
    if metavar is None and action.choices is not None:
        metavar = "{" + ",".join(str(c) for c in action.choices) + "}"
    if metavar is None:
        metavar = action.dest.upper()
    return f"{flags} {metavar}"


def generate_cli_markdown(parser: argparse.ArgumentParser | None = None) -> str:
    """Render the CLI reference (``docs/cli.md``) from the argparse tree.

    Deterministic, so the committed file can be diffed against a fresh
    rendering — the ``docs`` CI job fails when the two drift apart.
    Regenerate with ``python -m repro.cli --generate-docs docs/cli.md``
    or ``python tools/generate_cli_docs.py``.
    """
    parser = parser or build_parser()
    subparsers_action = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    help_by_command = {
        choice.dest: choice.help for choice in subparsers_action._choices_actions
    }
    lines = [
        "# CLI reference",
        "",
        "<!-- Generated by `python -m repro.cli --generate-docs docs/cli.md`;",
        "     do not edit by hand.  The `docs` CI job fails on drift. -->",
        "",
        f"`{parser.prog}` — {parser.description}",
        "",
        "Run as the installed `repro-signaling` console script or as",
        "`python -m repro.cli` from a checkout (`PYTHONPATH=src`).",
        "",
    ]
    for name, subparser in subparsers_action.choices.items():
        lines.append(f"## `{name}`")
        lines.append("")
        summary = subparser.description or help_by_command.get(name, "")
        if summary:
            lines.append(f"{summary.strip().rstrip('.')}.")
            lines.append("")
        usage = " ".join(subparser.format_usage().split())
        usage = usage.removeprefix("usage: ")
        lines.append(f"```\n{usage}\n```")
        lines.append("")
        rows = [
            action
            for action in subparser._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        if rows:
            lines.append("| Argument | Description |")
            lines.append("| --- | --- |")
            for action in rows:
                help_text = (action.help or "").replace("|", "\\|")
                default = action.default
                # Skip only the "no meaningful default" sentinels; an
                # integer 0 default must not be conflated with False.
                suppressed = (
                    default is None
                    or default is False
                    or (isinstance(default, (tuple, list)) and not default)
                )
                if (
                    action.option_strings
                    and not suppressed
                    and "default" not in help_text
                ):
                    help_text = f"{help_text} (default: {default})"
                lines.append(f"| `{_option_signature(action)}` | {help_text} |")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _generate_docs(argv: list[str]) -> int:
    """Handle ``--generate-docs [PATH]``: print or write the reference."""
    rest = [arg for arg in argv if arg != "--generate-docs"]
    if len(rest) > 1 or any(arg.startswith("-") for arg in rest):
        # Option-like leftovers are mistakes (e.g. `--check` belongs to
        # tools/generate_cli_docs.py), not output paths to create.
        print("usage: repro-signaling --generate-docs [PATH]", file=sys.stderr)
        return 2
    text = generate_cli_markdown()
    if rest:
        path = pathlib.Path(rest[0])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")
    else:
        print(text, end="")
    return 0


def _render(result: ExperimentResult, fmt: str) -> str:
    if fmt == "json":
        return result.to_json()
    if fmt == "csv":
        blocks = []
        for panel_name, csv_text in result.to_csv().items():
            blocks.append(f"# panel: {panel_name}")
            blocks.append(csv_text.rstrip("\n"))
        return "\n".join(blocks)
    return result.to_text()


_EXTENSIONS = {"text": ".txt", "csv": ".csv", "json": ".json"}


def _emit(text: str, output: pathlib.Path | None) -> None:
    if output is None:
        print(text)
    else:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(text + "\n")
        print(f"wrote {output}")


def _emit_panel_csvs(
    result: ExperimentResult, experiment_id: str, csv_dir: pathlib.Path
) -> None:
    csv_dir.mkdir(parents=True, exist_ok=True)
    for panel_name, csv_text in result.to_csv().items():
        slug = "".join(ch if ch.isalnum() else "_" for ch in panel_name).strip("_")
        path = csv_dir / f"{experiment_id}_{slug}.csv"
        path.write_text(csv_text)
        print(f"wrote {path}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if "--generate-docs" in arguments:
        return _generate_docs(arguments)
    try:
        return _dispatch(arguments)
    except ScenarioError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch_validate(args: argparse.Namespace) -> int:
    """Run the ``validate`` verb; exit 1 when any check fails.

    Validation defaults to ``smoke`` fidelity (unlike ``run``/``all``,
    whose default is ``full``): the parity matrix and invariants are
    fidelity-thinned parameter grids, and full-fidelity simulation
    equivalence is a minutes-scale job best requested explicitly.
    """
    from repro.validation import validate_scenario

    ids = sorted(experiment_ids()) if args.target == "all" else [args.target]
    reports = []
    with using_jobs(args.jobs), using_tolerance(**_tolerance_kwargs(args)):
        for scenario_id in ids:
            reports.append(
                validate_scenario(scenario_id, args.fidelity, seed=args.seed)
            )
    failed = [report.scenario_id for report in reports if not report.passed]
    summary = (
        f"validated {len(reports)} scenario(s) at {args.fidelity} fidelity: "
        + ("all passed" if not failed else f"FAILED: {', '.join(failed)}")
    )
    if args.output_dir is not None:
        extension = ".json" if args.format == "json" else ".txt"
        for report in reports:
            path = args.output_dir / f"validate_{report.scenario_id}{extension}"
            _emit(
                report.to_json() if args.format == "json" else report.to_text(),
                path,
            )
        print(summary)
    elif args.format == "json":
        if len(reports) == 1:
            _emit(reports[0].to_json(), args.output)
        else:
            # One parseable document for the multi-scenario run.
            documents = [json.loads(report.to_json()) for report in reports]
            _emit(json.dumps(documents, indent=2), args.output)
    else:
        blocks = "\n\n".join(report.to_text() for report in reports)
        _emit(blocks + "\n\n" + summary, args.output)
    if args.verbose:
        _print_cache_stats()
    return 0 if all(report.passed for report in reports) else 1


def _find_reprolint_root() -> pathlib.Path | None:
    """Locate a repo checkout carrying ``tools/reprolint``.

    reprolint is repo tooling, not part of the installed package: it
    lints the source tree against ``tools/reprolint/layers.toml``.
    Try the checkout this module runs from (the ``PYTHONPATH=src``
    layout) first, then the working directory and its parents (the
    installed-console-script-from-a-checkout case).
    """
    candidates = [pathlib.Path(__file__).resolve().parents[2]]
    cwd = pathlib.Path.cwd().resolve()
    candidates.extend([cwd, *cwd.parents])
    for root in candidates:
        if (root / "tools" / "reprolint" / "layers.toml").is_file():
            return root
    return None


def _dispatch_lint(args: argparse.Namespace) -> int:
    """Run the ``lint`` verb by delegating to ``tools.reprolint``."""
    root = _find_reprolint_root()
    if root is None:
        print(
            "error: repro-signaling lint needs a source checkout "
            "(tools/reprolint/ was not found here or above the current "
            "directory); run it from the repo root, or use "
            "`python -m tools.reprolint` there",
            file=sys.stderr,
        )
        return 2
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from tools.reprolint.cli import main as reprolint_main

    forwarded = list(args.paths) + ["--format", args.format, "--root", str(root)]
    return reprolint_main(forwarded)


def _dispatch(argv: Sequence[str] | None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in sorted(experiment_ids()):
            print(experiment_id)
        return 0
    if args.command == "run":
        overrides = parse_overrides(args.overrides)
        with using_jobs(args.jobs), using_tolerance(**_tolerance_kwargs(args)):
            result = run_scenario(
                scenario(args.experiment),
                args.fidelity,
                overrides=overrides,
                protocols=args.protocols,
            )
        _emit(_render(result, args.format), args.output)
        if args.csv_dir is not None:
            _emit_panel_csvs(result, args.experiment, args.csv_dir)
        if args.verbose:
            _print_cache_stats()
        return 0
    if args.command == "all":
        ids = sorted(experiment_ids())
        with using_tolerance(**_tolerance_kwargs(args)):
            if effective_jobs(args.jobs) <= 1:
                # Serial: stream each experiment's output as it
                # completes, so a long run shows progress and a late
                # crash cannot discard the artifacts already produced.
                results = (
                    run_experiments([experiment_id], fidelity=args.fidelity)[0]
                    for experiment_id in ids
                )
            else:
                results = run_experiments(ids, fidelity=args.fidelity, jobs=args.jobs)
            for experiment_id, result in zip(ids, results):
                output = (
                    args.output_dir / f"{experiment_id}{_EXTENSIONS[args.format]}"
                    if args.output_dir is not None
                    else None
                )
                _emit(_render(result, args.format), output)
                if args.csv_dir is not None:
                    _emit_panel_csvs(result, experiment_id, args.csv_dir)
                if output is None:
                    print()
        if args.verbose:
            _print_cache_stats()
        return 0
    if args.command == "validate":
        return _dispatch_validate(args)
    if args.command == "lint":
        return _dispatch_lint(args)
    if args.command == "claims":
        with using_tolerance(**_tolerance_kwargs(args)):
            print(robustness_report(jobs=args.jobs))
        if args.verbose:
            _print_cache_stats()
        return 0
    if args.command == "report":
        print(render_report(fidelity="full" if args.full else "fast"))
        return 0
    if args.command == "diagram":
        protocol = Protocol(args.protocol)
        if args.multihop:
            try:
                protocol = multihop_protocol(protocol)
            except ValueError as error:
                print(error)
                return 1
            print(render_multihop_chain(protocol))
        else:
            print(render_singlehop_chain(protocol))
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
