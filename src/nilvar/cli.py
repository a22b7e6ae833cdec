"""Command-line interface.

    nilvar classify --n 12 --a 3 --b 3
    nilvar tables --a 3 --b 3 --max-n 12
    nilvar hom --source xxy --target xy --oracle
    nilvar ext --source xy --target xxyy
    nilvar module --word xxyy --format json
    nilvar verify --level full --seed 0

Exit codes: 0 on success, 1 on usage or domain errors and, quietly,
when stdout closes early (`nilvar ... | head`), 2 when a
verification-style command finds a disagreement.  Output is plain text
or JSON (--format) and is byte-identical across runs for fixed inputs.

One output path: each `cmd_*` prints nothing and returns its exit code,
its JSON payload and its text lines; `main` alone writes stdout, the
payload as JSON under --format json and the lines otherwise.  `module`
alone builds its payload only under --format json, as its dense
matrices cost far more than its table.
"""

from __future__ import annotations

import argparse
import os
import sys

# json is imported by `_dump` under --format json alone; fractions, the
# Hom layer (homalg), the matrix stack (modmatrix, exactla) and the
# classifier (classify, partitions) by the commands that use them
from .words import AlgebraParams, Word


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; keep 2 reserved for failed
    # verification and report usage trouble as 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _VerifyHelp(argparse.HelpFormatter):
    # names the checks in the --check help; nilvar.verify, which holds
    # them, is imported only when that help is shown
    def _get_help_string(self, action):
        if action.dest != "check":
            return action.help
        from .verify import CHECKS
        return action.help + ", ".join(name for name, _ in CHECKS)


def _dump(obj) -> str:
    import json
    return json.dumps(obj, indent=2, sort_keys=True)


def cmd_classify(args) -> tuple:
    from .classify import components, normalize_params
    comps = components(args.n, args.a, args.b)
    params = normalize_params(args.n, args.a, args.b)
    payload = {"n": args.n, "a": params.a, "b": params.b,
               "components": [c.as_dict() for c in comps]}
    heads = {"regular": "regular:", "orbit": "open orbits:", "zero": "point:"}
    width = max(len(c.label()) for c in comps)
    lines = [f"V({args.n}, {args.a}, {args.b}): {len(comps)} "
             f"component{'s' if len(comps) != 1 else ''}"]
    for c in comps:
        if c.kind in heads:  # a kind's head once, above its first row
            lines.append(heads.pop(c.kind))
        lines.append(f"  {c.label():<{width}}  {c.dim}")
    return 0, payload, lines


def cmd_tables(args) -> tuple:
    from .classify import components
    AlgebraParams(args.a, args.b)  # rejects a or b < 2 before any work
    if args.max_n < 2:
        raise ValueError(f"need --max-n >= 2, got {args.max_n}")
    rows_reg, rows_orb = [], []
    for n in range(2, args.max_n + 1):
        for c in components(n, args.a, args.b):
            target = rows_reg if c.kind == "regular" else rows_orb
            if c.kind == "orbit" and c.side != "semi-projective":
                continue
            target.append((n, c.label(), c.dim))
    payload = {"a": args.a, "b": args.b, "max_n": args.max_n,
               "regular": [{"n": n, "component": s, "dim": d}
                           for n, s, d in rows_reg],
               "open_orbits": [{"n": n, "component": s, "dim": d}
                               for n, s, d in rows_orb]}
    lines = []
    for title, rows in ((f"regular components, a = {args.a}, b = {args.b}",
                         rows_reg),
                        (f"open-orbit components, semi-projective side, "
                         f"a = {args.a}, b = {args.b} "
                         f"(semi-injective mirrors have equal dimensions)",
                         rows_orb)):
        lines.append(title)
        if not rows:
            lines.append("  (none)")
        else:
            width = max(len(s) for _, s, _ in rows)
            last_n = None
            for n, s, d in rows:
                tag = f"n = {n:<3}" if n != last_n else " " * 7
                lines.append(f"{tag} {s:<{width}}  {d}")
                last_n = n
        lines.append("")
    return 0, payload, lines[:-1]  # no blank line after the last table


def cmd_hom(args) -> tuple:
    from .homalg import hom_dim_graph, hom_dim_oracle
    params = AlgebraParams(args.a, args.b)
    src = Word(args.source, params)
    tgt = Word(args.target, params)
    graph = hom_dim_graph(src, tgt)
    payload = {"source": str(src), "target": str(tgt), "graph": graph}
    lines = [f"Hom(M({src}), M({tgt})) = {graph}"]
    if not args.oracle:
        return 0, payload, lines
    from .modmatrix import string_module
    oracle = hom_dim_oracle(string_module(src), string_module(tgt))
    payload.update(oracle=oracle, agree=graph == oracle)
    lines.append(f"linear-algebra oracle = {oracle}")
    if graph != oracle:
        lines.append("DISAGREEMENT between counting and linear algebra")
    return 0 if graph == oracle else 2, payload, lines


def cmd_ext(args) -> tuple:
    from .homalg import ext1_vanishes
    params = AlgebraParams(args.a, args.b)
    src = Word(args.source, params)
    tgt = Word(args.target, params)
    vanishes = ext1_vanishes(src, tgt)
    payload = {"source": str(src), "target": str(tgt), "vanishes": vanishes}
    return 0, payload, [
        f"Ext^1(M({src}), M({tgt})) {'=' if vanishes else '!='} 0"]


def cmd_module(args) -> tuple:
    from fractions import Fraction

    from .modmatrix import band_module, string_module
    params = AlgebraParams(args.a, args.b)
    word = Word(args.word, params)
    if args.lambdas is not None:
        try:
            lambdas = [Fraction(part) for part in args.lambdas.split(",")]
        except ZeroDivisionError:
            raise ValueError(f"--lambdas needs nonzero denominators, "
                             f"got {args.lambdas}") from None
        except ValueError:
            raise ValueError(f"--lambdas needs rationals like 2 or -1/2, "
                             f"got {args.lambdas}") from None
        mod = band_module(word, lambdas)
        label = f"band {word.caret()} with parameters {args.lambdas}"
    else:
        mod = string_module(word)
        label = f"M({word})"
    stats = mod.stats()
    pa, pb = mod.jordan_pair()
    payload = None
    if args.format == "json":  # the dense matrices cost far more than lines
        payload = mod.to_json()
        payload["stats"] = stats
        payload["jordan"] = {"A": list(pa), "B": list(pb)}
    return 0, payload, [
        f"{label}: dimension {mod.n} over K[x, y] / "
        f"(xy, x^{params.a}, y^{params.b})",
        f"  rank A = {stats['rkA']}, rank B = {stats['rkB']}",
        f"  top = {stats['top_dim']}, socle = {stats['soc_dim']}",
        f"  Jordan type of A: {tuple(pa)}",
        f"  Jordan type of B: {tuple(pb)}",
        f"  regular: {'yes' if stats['regular'] else 'no'}"]


def cmd_verify(args) -> tuple:
    from .verify import run_suite  # only this command loads the checks
    results = run_suite(args.level, seed=args.seed, names=args.check or None)
    return (0 if all(r.passed for r in results) else 2,
            [{"name": r.name, "passed": r.passed, "detail": r.detail}
             for r in results],
            [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"
             for r in results])


def build_parser() -> _Parser:
    parser = _Parser(prog="nilvar",
                     description="Irreducible components of the varieties "
                                 "of matrix pairs (A, B) with AB = BA = "
                                 "A^a = B^b = 0.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_format(p):
        p.add_argument("--format", choices=("table", "json"),
                       default="table")

    def add_params(p, a_default=None, b_default=None):
        p.add_argument("--a", type=int, default=a_default,
                       required=a_default is None,
                       help="nilpotency bound for A")
        p.add_argument("--b", type=int, default=b_default,
                       required=b_default is None,
                       help="nilpotency bound for B")

    p = sub.add_parser("classify",
                       help="irreducible components of one V(n, a, b)")
    p.add_argument("--n", type=int, required=True, help="matrix size")
    add_params(p)
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tables",
                       help="component tables over a range of n")
    add_params(p)
    p.add_argument("--max-n", type=int, default=12)
    add_format(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("hom", help="Hom dimension between string modules")
    p.add_argument("--source", required=True, help="source string, e.g. xxy")
    p.add_argument("--target", required=True, help="target string")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the count against exact linear algebra")
    add_params(p, 3, 3)
    add_format(p)
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("ext", help="does Ext^1 between string modules vanish")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    add_params(p, 3, 3)
    add_format(p)
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("module", help="inspect one string or band module")
    p.add_argument("--word", required=True)
    p.add_argument("--lambdas",
                   help="comma-separated nonzero rationals; builds the band "
                        "module with these parameters instead of the string")
    add_params(p, 3, 3)
    add_format(p)
    p.set_defaults(func=cmd_module)

    p = sub.add_parser("verify", help="run the self-verification suites",
                       formatter_class=_VerifyHelp)
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", action="append", metavar="NAME",
                   help="run only this check (repeatable); available: ")
    add_format(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, lines = args.func(args)
        print(_dump(payload) if args.format == "json" else "\n".join(lines))
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"nilvar: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone: send what is left, and the flush at exit,
        # to devnull (the recipe of the `signal` module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
