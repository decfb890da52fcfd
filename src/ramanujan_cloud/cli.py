"""Command-line front door.

Subcommands: csum, classify, expand, verdict, absconv, sfcount, lemma7,
reproduce-all.  JSON goes to stdout (schemas ship under schemas/); series
exports are CSV with columns x, re, im.  Exit codes: 0 success, 1 input
error or a size over the resource budget, 2 inconclusive verdict under
--strict.

Bounds and tolerances come from an EngineConfig: --config FILE, else the
RAMANUJAN_CLOUD_CONFIG environment variable, else the documented defaults;
individual flags override single fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import EngineConfig
from .core import ResourceLimitError
from .expansion import (
    absolute_convergence_report,
    expansion_partial_sums,
    zero_cloud_verdict,
)
from .multiplicative import catalog, catalog_names, spectrum
from .reproduce import run_all
from .squarefree import balanced_series_demo, count_squarefree_in_ap, hooley_constant
from .sums import c_direct, c_holder, c_kluyver
from ._serialize import to_jsonable


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; keep 2 reserved for --strict.
    def error(self, message):
        raise _CliError(message)


def _parse_param(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise _CliError(f"--param expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    for cast in (int, float, complex):
        try:
            return key, cast(raw)
        except ValueError:
            continue
    if raw in ("true", "false"):
        return key, raw == "true"
    return key, raw


def _load_config(args) -> EngineConfig:
    path = getattr(args, "config", None) or os.environ.get("RAMANUJAN_CLOUD_CONFIG")
    cfg = EngineConfig.from_file(path) if path else EngineConfig()
    overrides = {}
    for field in ("scan_bound", "k_max", "Q", "window", "seed"):
        value = getattr(args, field, None)
        if value is not None:
            overrides[field] = value
    if getattr(args, "tol", None) is not None:
        overrides["conv_tol"] = args.tol
    return cfg.replace(**overrides) if overrides else cfg


def _emit_json(payload, path: str | None = None) -> None:
    text = json.dumps(to_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_csv(series, path: str | None) -> None:
    lines = ["x,re,im"]
    for x, v in series.checkpoints:
        z = complex(v)
        lines.append(f"{x},{z.real!r},{z.imag!r}")
    text = "\n".join(lines) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ramanujan-cloud", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("csum", help="Ramanujan sum c_q(a)")
    p.add_argument("q", type=int)
    p.add_argument("a", type=int)
    p.add_argument("--verify", action="store_true", help="print all three formula values as JSON")

    p = sub.add_parser("classify", help="spectrum report for a catalog entry")
    p.add_argument("name", choices=catalog_names())
    p.add_argument("--param", action="append", default=[], help="catalog parameter key=value")
    p.add_argument("--scan-bound", dest="scan_bound", type=int)
    p.add_argument("--kmax", dest="k_max", type=int)
    p.add_argument("--config")

    p = sub.add_parser("expand", help="checkpointed partial sums of the expansion")
    p.add_argument("name", choices=catalog_names())
    p.add_argument("--param", action="append", default=[])
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--csv", help="write CSV here instead of stdout")

    p = sub.add_parser("verdict", help="zero-cloud membership verdict")
    p.add_argument("name", choices=catalog_names())
    p.add_argument("--param", action="append", default=[])
    p.add_argument("--config")
    p.add_argument("--Q", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--scan-bound", dest="scan_bound", type=int)
    p.add_argument("--kmax", dest="k_max", type=int)
    p.add_argument("--strict", action="store_true", help="exit 2 on an inconclusive verdict")

    p = sub.add_parser("absconv", help="absolute-convergence diagnostics")
    p.add_argument("name", choices=catalog_names())
    p.add_argument("--param", action="append", default=[])
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--B", type=int, required=True, help="prime bound for sum of |G(p)|")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--config")

    p = sub.add_parser("sfcount", help="squarefree count in a progression")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("lemma7", help="balanced squarefree series demo")
    p.add_argument("--s", type=float, default=0.6)
    p.add_argument("--to", dest="x_max", type=int, default=1_000_000)
    p.add_argument("--csv", help="write the full-series checkpoints here")
    p.add_argument("--csv-odd", help="write the odd-restricted checkpoints here")

    p = sub.add_parser("reproduce-all", help="regenerate every battery artifact")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--strict", action="store_true")

    return parser


def _make_entry(args):
    params = dict(_parse_param(s) for s in args.param)
    return catalog(args.name, **params)


def run(argv: list[str]) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)

        if args.command == "csum":
            if args.verify:
                d = c_direct(args.q, args.a)
                k = c_kluyver(args.q, args.a)
                h = c_holder(args.q, args.a)
                _emit_json({"q": args.q, "a": args.a, "direct": d, "kluyver": k,
                            "holder": h, "agree": d == k == h})
            else:
                print(c_holder(args.q, args.a))
            return 0

        if args.command == "classify":
            cfg = _load_config(args)
            _emit_json(spectrum(_make_entry(args), cfg.scan_bound, cfg.k_max, cfg.one_tol))
            return 0

        if args.command == "expand":
            G = _make_entry(args)
            series = expansion_partial_sums(G, args.a, args.Q, exact=True if args.exact else None)
            _write_csv(series, args.csv)
            return 0

        if args.command == "verdict":
            cfg = _load_config(args)
            verdict = zero_cloud_verdict(_make_entry(args), cfg)
            _emit_json(verdict)
            if args.strict and verdict.conclusion == "inconclusive":
                return 2
            return 0

        if args.command == "absconv":
            cfg = _load_config(args)
            _emit_json(absolute_convergence_report(
                _make_entry(args), args.B, args.a, args.Q,
                scan_bound=cfg.scan_bound, k_max=cfg.k_max, tol=cfg.one_tol,
                slow_growth_tol=cfg.slow_growth_tol,
            ))
            return 0

        if args.command == "sfcount":
            count = count_squarefree_in_ap(args.x, args.m, args.r)
            c = hooley_constant(args.m)
            density = count / args.x
            _emit_json({"x": args.x, "m": args.m, "r": args.r, "count": count,
                        "density": density, "c_m": c,
                        "rel_error": abs(density - c) / c})
            return 0

        if args.command == "lemma7":
            demo = balanced_series_demo(args.s, args.x_max)
            if args.csv:
                _write_csv(demo.full, args.csv)
            if args.csv_odd:
                _write_csv(demo.odd, args.csv_odd)
            _emit_json({
                "s": args.s,
                "x_max": args.x_max,
                "window_sums": [{"y": y, "abs_sum": w} for y, w in demo.window_sums],
                "window_threshold": demo.window_threshold,
                "full_windows_shrink": demo.full_windows_shrink,
                "odd_final": abs(complex(demo.odd.final)),
                "odd_outcome": demo.odd_verdict.outcome,
                "odd_growth_exponent": demo.odd_verdict.growth_exponent,
            })
            return 0

        if args.command == "reproduce-all":
            cfg = _load_config(args)
            code = run_all(args.out, cfg)
            if args.strict and code:
                return 2
            return code

        raise _CliError(f"unknown command {args.command!r}")
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, ArithmeticError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
