"""Command line interface.

Exit codes: 0 on success, 1 when a sign test came back contradicted or a
simulate or sweep-gap job diverged, 2 on usage, configuration, or I/O
problems, and on a problem too large to allocate.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .errors import AlignlabError
from .harness import (
    ExperimentConfig,
    cmd_drift_test,
    cmd_projected_test,
    cmd_report,
    cmd_simulate,
    cmd_sweep_gap,
    load_config,
)


def _config_flags() -> argparse.ArgumentParser:
    """The config flags that every preset subcommand takes, built once as a
    parent parser."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", metavar="PATH", help="JSON config file; flags override its keys")
    # each dest is the ExperimentConfig field the flag overrides
    parser.add_argument("--d", type=int)
    parser.add_argument("--k", type=int)
    parser.add_argument("--m", dest="m_list", metavar="M", type=float, action="append", help="gap ratio; repeatable")
    parser.add_argument("--eta", type=float)
    parser.add_argument("--steps", dest="T", metavar="STEPS", type=int)
    parser.add_argument("--sigma2", type=float)
    parser.add_argument("--init-scale", dest="init_scale", type=float)
    parser.add_argument("--seed", dest="seeds", metavar="SEED", type=int, action="append", help="seed; repeatable")
    parser.add_argument(
        "--n-mc", dest="n_mc", type=int,
        help="Monte-Carlo samples; a cap for the sign tests, which stop once every verdict is settled",
    )
    parser.add_argument("--record-every", dest="record_every", type=int)
    parser.add_argument("--t-start", dest="T_start", metavar="T_START", type=int)
    parser.add_argument("--out", dest="output_dir", metavar="DIR")
    return parser


# how drift-test and projected-test spend --n-mc
_LOOKS = (
    "--n-mc caps the Monte-Carlo samples. The verdicts look after 512, 1024, 2048, ... antithetic pairs "
    "and at the cap, K looks in all, and test every row at z_K, where 2(1 - Phi(z_K)) = 2(1 - Phi(z_crit))/K. "
    "The one shared draw stops at the first look where every row is confirmed or contradicted at z_K, or has "
    "mean +- z_K*stderr inside its slack band; every row reports at that look, and its pairs column says how "
    "many pairs it rests on."
)


def _resolve(args: argparse.Namespace):
    return load_config(args.config, {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="alignlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = _config_flags()
    for name, help_text in (
        ("simulate", "constant-step trajectories per (m, seed) with summary"),
        ("sweep-gap", "late-phase alignment vs gap ratio"),
        ("drift-test", "sign tests of the one-step alignment drift"),
        ("projected-test", "loss-change tests for block-projected updates"),
        ("print-config", "echo the fully resolved config"),
    ):
        p = sub.add_parser(
            name, help=help_text, description=_LOOKS if name.endswith("-test") else None, parents=[common]
        )
        if name == "drift-test":
            p.add_argument(
                "--theta-target", action="append", dest="theta_targets",
                help="alignment target: a float, 'X*ggap', or 'high'; repeatable",
            )
            p.add_argument("--eta-factor", action="append", dest="eta_factors", type=float)
        if name == "projected-test":
            p.add_argument("--n-states", dest="n_states", type=int)

    rep = sub.add_parser("report", help="closed-form report for explicit inputs")
    rep.add_argument("--spectrum", required=True, metavar="PATH")
    rep.add_argument("--noise", required=True, metavar="PATH")
    rep.add_argument("--state", required=True, metavar="PATH")
    rep.add_argument("--eta", type=float, required=True)
    return parser


# each preset subcommand's command and the flags it passes on when given
_PRESETS = {
    "simulate": (cmd_simulate, ()),
    "sweep-gap": (cmd_sweep_gap, ()),
    "drift-test": (cmd_drift_test, ("theta_targets", "eta_factors")),
    "projected-test": (cmd_projected_test, ("n_states",)),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            report = cmd_report(args.spectrum, args.noise, args.state, args.eta)
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0

        config = _resolve(args)
        if args.command == "print-config":
            print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
            return 0
        command, flags = _PRESETS[args.command]
        given = {flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}
        # a diverged job or a failed verdict exits 1
        _, failed = command(config, **given)
        return int(failed)
    except (AlignlabError, OSError, MemoryError) as exc:
        print(f"alignlab: error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
