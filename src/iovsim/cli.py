"""Command line front end.

    iovsim run   --config cfg.json --seed 7 --out run.csv [--attack on|off] [--trace t.jsonl]
    iovsim sweep --config cfg.json --comms 50:500:50 --seeds 1..5 --out sweep.csv [--jobs 4]
    iovsim bfo   --config cfg.json --chain-len 300 --out trace.csv

Exit codes: 0 on success, 2 on configuration errors (including malformed
--comms/--seeds ranges), 1 on sweep or I/O failures.
"""

import argparse
import sys
from typing import List, Optional

from .bfo import optimize_trace
from .config import ConfigError, load_config
from .harness import SweepError, emit_csv, run_scenario, sweep
from .ledger import build_chain


def _ints(parts: List[str], flag: str, text: str) -> List[int]:
    """Parse each part as an integer; a bad one is a config error."""
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ConfigError(f"bad {flag} value {text!r}") from None


def _parse_comms(text: str) -> List[int]:
    """'50:500:50' is an inclusive start:stop:step range; a bare integer
    or comma list also works."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--comms range must be start:stop:step, got {text!r}")
        start, stop, step = _ints(parts, "--comms", text)
        if step <= 0 or stop < start:
            raise ConfigError(f"--comms range {text!r} is empty or descending")
        return list(range(start, stop + 1, step))
    values = _ints(text.split(","), "--comms", text)
    if not values or any(v < 0 for v in values):
        raise ConfigError(f"bad --comms value {text!r}")
    return values


def _parse_seeds(text: str) -> List[int]:
    """'1..5' is an inclusive range; a bare integer or comma list also works."""
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        lo, hi = _ints([lo_s, hi_s], "--seeds", text)
        if hi < lo:
            raise ConfigError(f"--seeds range {text!r} is descending")
        return list(range(lo, hi + 1))
    return _ints(text.split(","), "--seeds", text)


def _apply_attack_flag(cfg, flag: Optional[str]):
    if flag is None:
        return cfg
    return cfg.with_attacks(flag == "on")


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.reseeded(args.seed)
    cfg = _apply_attack_flag(cfg, args.attack)
    report = run_scenario(cfg, trace_path=args.trace)
    emit_csv([report], args.out)
    print(f"wrote {args.out}: {report.scenario} seed={report.seed} "
          f"pdr={report.pdr_pct:.2f}% delay={report.avg_delay_ms:.2f}ms")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    cfg = _apply_attack_flag(cfg, args.attack)
    comm_counts = _parse_comms(args.comms)
    seeds = _parse_seeds(args.seeds)
    reports = sweep(cfg, comm_counts, seeds, jobs=args.jobs)
    emit_csv(reports, args.out)
    print(f"wrote {args.out}: {len(reports)} runs "
          f"({len(comm_counts)} comm counts x {len(seeds)} seeds)")
    return 0


def _cmd_bfo(args) -> int:
    cfg = load_config(args.config)
    if args.chain_len < 2:
        raise ConfigError("--chain-len must be >= 2")
    chain = build_chain(args.chain_len)
    chosen, history = optimize_trace(cfg.bfo, chain, cfg.cost_model, miners=[(0, 1.0)])
    lines = ["iteration,best_fitness,split"]
    lines += [f"{it},{fit:.4f},{split}" for it, fit, split in history]
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}: split={chosen.split_point} of {chosen.total_len}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="iovsim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write its report")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--attack", choices=["on", "off"], default=None)
    p_run.add_argument("--trace", default=None, help="write a JSONL event trace")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a comm-count x seed grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--comms", required=True, help="inclusive range start:stop:step")
    p_sweep.add_argument("--seeds", required=True, help="inclusive range lo..hi")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--attack", choices=["on", "off"], default=None)
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bfo = sub.add_parser("bfo", help="trace the split optimizer on a synthetic chain")
    p_bfo.add_argument("--config", required=True)
    p_bfo.add_argument("--chain-len", type=int, required=True)
    p_bfo.add_argument("--out", required=True)
    p_bfo.set_defaults(func=_cmd_bfo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SweepError as exc:
        print(f"sweep error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
