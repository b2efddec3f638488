"""Function file formats and the command-line front end."""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Optional, Sequence

from .boolfn import MAX_VARS, TruthTable
from .matcher import BudgetExceededError, Observer, match_npn
from .oracle import (
    enumerate_npn_classes,
    exhaustive_match,
    random_equivalent_pair,
    random_function,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _hex_digits(n: int) -> int:
    return (1 << max(n, 2)) // 4


def _parse_count(raw: str, what: str, no: int, col: int) -> int:
    """A count of ASCII digits; col is where raw starts. int() alone
    would also take a sign, underscores and non-ASCII digits."""
    bad = next((k for k, c in enumerate(raw) if c not in "0123456789"), None)
    if bad is not None or not raw:
        raise ParseError(f"bad {what} {raw!r}", no, col + (bad or 0))
    return int(raw)


def parse_function(text: str) -> TruthTable:
    """Read the PLA subset (.i/.o/.p/.e directives plus cover lines;
    leftmost input column is x0, '1' outputs only) when the first line
    opens with '.', and the hex form (vars=N / tt=HEX) otherwise."""
    # lines keep their indent, so columns count from the line's first
    # character; they end at \n only (str.splitlines also breaks at \x0c)
    lines = [
        (no, raw.rstrip())
        for no, raw in enumerate(text.split("\n"), start=1)
        if raw.strip() and not raw.strip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty function file", 1)
    if lines[0][1].lstrip().startswith("."):
        return _parse_pla(lines)
    return _parse_hex(lines)


def _parse_hex(lines: list[tuple[int, str]]) -> TruthTable:
    fields = {}
    for no, line in lines:
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", no)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in ("vars", "tt"):
            raise ParseError(f"unknown key {key!r}", no)
        if key in fields:
            raise ParseError(f"repeated {key}= line", no)
        # column of the value's first character
        col = line.index("=") + 2 + len(value) - len(value.lstrip())
        fields[key] = (no, value.strip(), col)
    if "vars" not in fields:
        raise ParseError("missing vars= line", lines[0][0])
    no, raw_n, col = fields["vars"]
    n = _parse_count(raw_n, "variable count", no, col)
    if not 0 <= n <= MAX_VARS:
        raise ParseError(f"variable count {n} out of range [0, {MAX_VARS}]", no, col)
    if "tt" not in fields:
        raise ParseError("missing tt= line", lines[-1][0])
    no, digits, col = fields["tt"]
    # int(digits, 16) would also take a 0x prefix, a sign and underscores
    bad = next((i for i, c in enumerate(digits) if c not in "0123456789abcdefABCDEF"), None)
    if bad is not None:
        raise ParseError(f"bad hex digit {digits[bad]!r}", no, col + bad)
    want = _hex_digits(n)
    if len(digits) != want:
        raise ParseError(
            f"tt needs {want} hex digits for vars={n}, got {len(digits)}", no, col
        )
    try:
        return TruthTable(n, int(digits, 16))
    except ValueError as exc:
        raise ParseError(str(exc), no, col) from None


def _parse_pla(lines: list[tuple[int, str]]) -> TruthTable:
    n: Optional[int] = None
    cover: list[Sequence[tuple[int, bool]]] = []
    for k, (no, line) in enumerate(lines):
        # a directive is the first blank-separated token; its value follows
        indent = len(line) - len(line.lstrip())
        directive = line.split()[0]
        value = line.lstrip()[len(directive):].lstrip()
        col = len(line) - len(value) + 1
        if directive in (".i", ".o", ".p") and not value:
            raise ParseError(f"missing {directive} count", no, col)
        if directive == ".i":
            if n is not None:
                raise ParseError("repeated .i directive", no, indent + 1)
            n = _parse_count(value, ".i count", no, col)
            if not 0 <= n <= MAX_VARS:
                raise ParseError(f".i {n} out of range [0, {MAX_VARS}]", no, col)
        elif directive == ".o":
            if value != "1":
                raise ParseError("only single-output PLA is supported", no, col)
        elif directive == ".p":
            _parse_count(value, ".p count", no, col)
        elif directive == ".e":
            if value:
                raise ParseError("text after .e", no, col)
            if k + 1 < len(lines):
                raise ParseError("text after .e", lines[k + 1][0])
            break
        elif directive.startswith("."):
            raise ParseError(f"unsupported directive {directive!r}", no, indent + 1)
        else:
            if n is None:
                raise ParseError("cover line before .i", no, indent + 1)
            parts = line.split()
            if n == 0 and len(parts) == 1:
                parts.insert(0, "")  # no inputs: the row is its output column
            if len(parts) != 2:
                raise ParseError("cover line needs input and output columns", no, indent + 1)
            inp, out = parts
            if len(inp) != n:
                raise ParseError(f"expected {n} input columns, got {len(inp)}", no, indent + 1)
            if out != "1":
                col = len(line) - len(out) + 1
                raise ParseError("only '1' output rows are supported", no, col)
            cube = []
            for col, ch in enumerate(inp):  # leftmost column is x0
                if ch == "1":
                    cube.append((col, True))
                elif ch == "0":
                    cube.append((col, False))
                elif ch != "-":
                    raise ParseError(f"bad input character {ch!r}", no, indent + col + 1)
            cover.append(cube)
    if n is None:
        raise ParseError("missing .i directive", lines[0][0])
    return TruthTable.from_cover(n, cover)


def serialize_function(f: TruthTable, form: str = "hex") -> str:
    if form == "hex":
        return f"vars={f.n}\ntt={f.bits:0{_hex_digits(f.n)}x}\n"
    if form == "pla":
        rows = []
        for m in f.minterms():
            rows.append(
                "".join("1" if (m >> i) & 1 else "0" for i in range(f.n)) + " 1"
            )
        body = "\n".join(rows)
        return f".i {f.n}\n.o 1\n.p {len(rows)}\n{body}\n.e\n"
    raise ValueError(f"unknown form {form!r}")


class TraceObserver(Observer):
    """Prints the per-recursion search narrative in dump notation."""

    def __init__(self, out):
        self.out = out

    def on_arm(self, output_negated):
        which = "negated" if output_negated else "positive"
        print(f"-- detecting against {which} target --", file=self.out)

    def on_vectors(self, depth, state):
        print(f"[{depth}] V_f={state.f.dump()}", file=self.out)
        print(f"[{depth}] V_g={state.g.dump()}", file=self.out)

    def on_incompatible(self, depth, state):
        print(f"[{depth}] vectors incompatible; prune", file=self.out)

    def on_collision(self, m):
        print(f"phase collision on {m}", file=self.out)

    def on_commit(self, m):
        print(f"commit {m}", file=self.out)

    def on_cubes(self, state):
        cube_f, cube_g = state.cubes()
        print(f"cube_f={cube_f} cube_g={cube_g}", file=self.out)

    def on_branch(self, chosen, candidate):
        body = ", ".join(str(m) for m in candidate)
        print(f"branch on subject {chosen.subject}: {{{body}}}", file=self.out)

    def on_complete(self, map_list, verified):
        verdict = "verified" if verified else "rejected"
        body = ", ".join(str(m) for m in map_list)
        print(f"complete branch {{{body}}}: {verdict}", file=self.out)


def _load(path: str) -> TruthTable:
    with open(path) as fh:
        return parse_function(fh.read())


def _witness_json(result) -> dict:
    payload = {
        "verdict": result.verdict.value,
        "witness": None,
        "nodes_visited": result.stats.nodes_visited,
        "verify_calls": result.stats.verify_calls,
        "vectors_reused": result.stats.vectors_reused,
    }
    if result.witness is not None:
        payload["witness"] = {
            "perm": list(result.witness.perm),
            "input_pol": list(result.witness.input_pol),
            "output_pol": int(result.witness.output_negated),
        }
    return payload


def _cmd_match(args) -> int:
    f, g = _load(args.f), _load(args.g)
    observer = TraceObserver(sys.stdout) if args.trace else Observer()
    start = time.perf_counter()
    result = match_npn(f, g, node_cap=args.node_cap, observer=observer)
    elapsed = time.perf_counter() - start
    if args.json:
        payload = _witness_json(result)
        payload["elapsed_s"] = elapsed
        print(json.dumps(payload))
    elif result.equivalent:
        print(result.witness_text())
    else:
        print("non-equivalent")
    return 0 if result.equivalent else 1


def _cmd_oracle(args) -> int:
    f, g = _load(args.f), _load(args.g)
    t = exhaustive_match(f, g)
    if t is None:
        print("non-equivalent")
        return 1
    pol = "".join(str(p) for p in t.input_pol)
    out = "neg" if t.output_negated else "pos"
    print(f"perm={list(t.perm)} input_pol={pol} output={out}")
    return 0


def _cmd_gen(args) -> int:
    # argparse has checked the kind; n is checked here so that a count of 0
    # does not hide a bad n, which each draw would reject
    if not 0 <= args.vars <= MAX_VARS:
        raise ValueError(f"n={args.vars} out of range [0, {MAX_VARS}]")
    if args.count < 0:
        raise ValueError(f"count={args.count} is negative")
    rng = random.Random(args.seed)
    for _ in range(args.count):
        seed = rng.randrange(1 << 62)
        if args.equivalent_pair:
            f, g, _ = random_equivalent_pair(args.vars, args.kind, seed)
            print(serialize_function(f), end="")
            print(serialize_function(g), end="")
        else:
            print(serialize_function(random_function(args.vars, args.kind, seed)), end="")
        print()
    return 0


def _cmd_classify(args) -> int:
    print(f"{enumerate_npn_classes(args.vars).count} classes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npnmatch", description="NPN Boolean matching toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="decide NPN equivalence of two functions")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--json", action="store_true")
    p.add_argument("--node-cap", type=int, default=None)
    p.set_defaults(func=_cmd_match, trace=False)

    p = sub.add_parser("oracle", help="brute-force matching (n <= 8)")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="generate random functions")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--kind", choices=["type1", "type2"], required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--equivalent-pair", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("classify", help="count NPN classes (n <= 4)")
    p.add_argument("--vars", type=int, required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("trace", help="match with per-recursion vector dumps")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=_cmd_match, trace=True, json=False, node_cap=None)
    return parser


def cli_dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (OSError, ValueError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch())
