"""Batch command-line front door.

Commands and the flags each takes:

- run: --config, --modulus, --seed, --policy, --transcript, --verify
- attack-demo: --config, --modulus, --seed
- oracle: --config, --modulus
- count: --min, --max

--modulus, --seed and --policy override the config keys of the same name.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

from . import analysis
from .config import RunConfig, parse_config, parse_modulus
from .errors import ConfigError, ScalarProtocolError
from .protocol import Policy, run_protocol
from .ring import Ring


def _open(path: str, mode: str):
    """`path` opened in `mode`; an OSError becomes an error naming the path."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ConfigError(f"cannot open {path}: {exc.strerror}") from exc


def _load_config(args) -> RunConfig:
    if not args.config:
        raise ScalarProtocolError("a config file is required (--config PATH)")
    with _open(args.config, "r") as f:
        cfg = parse_config(f.read())
    # a command without --seed or --policy has no such attribute
    seed = getattr(args, "seed", None)
    if seed is not None:
        cfg.seed = seed
    policy = getattr(args, "policy", None)
    if policy:
        cfg.policy = Policy(policy)
    if args.modulus is not None:
        cfg.modulus = parse_modulus(args.modulus)
    return cfg


def cmd_run(args) -> int:
    cfg = _load_config(args)
    vectors = cfg.vectors
    # opened before the run, so a bad destination costs no run
    out = _open(args.transcript, "w") if args.transcript else contextlib.nullcontext()
    with out:
        start = time.perf_counter()
        run = run_protocol(
            vectors, modulus=cfg.modulus, seed=cfg.seed, policy=cfg.policy
        )
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        if args.transcript:
            out.write(run.transcript.export_jsonl() + "\n")
    lines = [
        f"result: {run.result}",
        f"policy: {cfg.policy.value}",
        f"seed: {cfg.seed}",
        f"modulus: {cfg.modulus}",
        f"parties: {' '.join(cfg.names)}",
        f"instances: {run.instance_count}",
        f"messages: {run.message_count}",
    ]
    status = 0
    if args.verify:
        oracle = analysis.plaintext_oracle(vectors, Ring(cfg.modulus))
        match = oracle == run.result
        lines += [f"oracle: {oracle}", f"oracle-match: {str(match).lower()}"]
        status = 0 if match else 1
    lines.append(f"elapsed-ms: {elapsed_ms:.1f}")
    if args.transcript:
        lines.append(f"transcript: {args.transcript}")
    print(*lines, sep="\n")
    return status


def cmd_attack_demo(args) -> int:
    cfg = _load_config(args)
    if len(cfg.parties) == 2:
        print("warning: no sub-protocols exist for 2 parties;")
        print("the flawed and secure policies behave identically")
        return 0
    lines = []
    vectors = cfg.vectors
    for policy in (Policy.FLAWED, Policy.SECURE):
        run = run_protocol(vectors, modulus=cfg.modulus, seed=cfg.seed, policy=policy)
        name_of = dict(zip(run.data_parties, cfg.names))
        truth = dict(zip(run.data_parties, vectors))
        view = run.view_of(run.ttp)
        recovered = analysis.reconstruct_inputs(view)
        lines.append(f"policy {policy.value}:")
        if recovered:
            for party in sorted(recovered):
                exact = recovered[party] == truth[party]
                lines.append(
                    f"  recovered {name_of[party]}: {list(recovered[party])}"
                    f" exact={str(exact).lower()}"
                )
        else:
            lines.append("  recovered: none")
        if policy is Policy.SECURE:
            guesses = analysis.forced_guess_inputs(view)
            mismatches = sum(g != truth[p] for p, g in guesses.items())
            lines.append(f"  forced-guess mismatches: {mismatches}/{len(guesses)}")
            secure_holds = not recovered and mismatches == len(guesses) > 0
        else:
            flawed_full = recovered == truth
    dichotomy = flawed_full and secure_holds
    lines.append(f"dichotomy: {str(dichotomy).lower()}")
    print(*lines, sep="\n")
    return 0 if dichotomy else 1


def cmd_count(args) -> int:
    if args.min > args.max:
        raise ScalarProtocolError(f"--min {args.min} exceeds --max {args.max}")
    lines = ["n direct-children total-instances messages"]
    for n in range(args.min, args.max + 1):
        c = analysis.count_instances(n)
        lines.append(f"{c.n} {c.direct_children} {c.total_instances} {c.messages}")
    print(*lines, sep="\n")
    return 0


def cmd_oracle(args) -> int:
    cfg = _load_config(args)
    value = analysis.plaintext_oracle(cfg.vectors, Ring(cfg.modulus))
    print(f"oracle: {value}", f"modulus: {cfg.modulus}", sep="\n")
    return 0


def _add_common(parser):
    parser.add_argument("--config", help="path to a YAML run config")
    parser.add_argument("--modulus", default=None, help='e.g. "2^64" or "251"')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npscalar",
        description="simulator and analysis harness for the masked n-party "
        "scalar product protocol",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one protocol run")
    _add_common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--policy", choices=["secure", "flawed"], default=None)
    p.add_argument("--transcript", default=None, help="write a JSONL transcript")
    p.add_argument(
        "--verify", action="store_true", help="check the result against the oracle"
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("attack-demo", help="semi-honest TTP attack, both policies")
    _add_common(p)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_attack_demo)

    p = sub.add_parser("count", help="instance census table")
    p.add_argument("--min", type=int, default=2)
    p.add_argument("--max", type=int, default=10)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("oracle", help="plaintext oracle value for a config")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScalarProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
