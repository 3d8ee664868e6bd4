"""Command-line frontend.

Verbs: `ord` (notation arithmetic), `check` (certificate verification),
`ti` (emit a canonical TI certificate), `bound` (order-type bounds and
semantic claims), `spector` (certified-sup witnesses), `lab` (certificate
stores) and `regress` (the acceptance suite).

Every semantic check is budgeted; the budget flags carry safe defaults and
may also be set through PROOFBENCH_DEPTH / _WIDTH / _EVAL / _CHAIN.
Exit status: 0 all verdicts pass, 1 a verdict failed, 2 an input file or
command-line value could not be read, 3 any failure after that.

Machine-readable mode (--json) prints line-delimited records followed by a
single top-level verdict object; the record schema is versioned.

Each verb's handler returns its records, its verdict and its human lines;
`run` alone prints them and picks the exit status.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

from .boundedness import BoundednessError, bounded_truth, otyp_bound
from .derivations import DerivationError, check_local, code_text, derive_ti, expand, parse_code, root_label
from .formulas import FormulaError, sequent_text
from .lab import LabError, build_precT, chain_check, parse_store, reflect_check, retype
from .orderings import SpecError, UnsupportedRankError, otyp, parse_spec, spec_text
from .ordinals import CapExceededError, NotationError, compare, from_int, le
from .ordinals import parse as ord_parse
from .ordinals import text as ord_text
from .sexpr import SexprError
from .spector import SpectorError, parse_enumeration, verify_domination, witness
from .verdict import Verdict

SCHEMA = "proofbench/1"

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3

# `ti` writes out certificates of fields with at most this many elements, and
# gives any other field the compact term: Fin(12) writes 4.6 MB in about 0.25 s,
# interpreter start included (2-vCPU Xeon).
MAX_EXPANDED_FIELD = 12

_PARSE_ERRORS = (SexprError, NotationError, SpecError, FormulaError)
_PRECONDITION_ERRORS = (
    BoundednessError,
    CapExceededError,
    DerivationError,
    LabError,
    SpectorError,
    UnsupportedRankError,
)


# held while a call reads and pauses the collector, and while it re-enables
# it, so that no call on another thread pauses it for good in between
_COLLECTOR = threading.Lock()


class _ParseFailure(Exception):
    pass


# every budget: its flag and its default; PROOFBENCH_<NAME> in the
# environment overrides the default
_BUDGETS = {"depth": ("--depth", 64), "width": ("--width", 8), "eval": ("--eval-budget", 200),
            "chain": ("--chain-budget", 50)}


def _arguments(command: str) -> tuple:
    """The verb's arguments, then the budget flags and --json.

    A budget flag's default is the environment's string when it is set, which
    is read with `type` as argparse reads it, so a bad value exits 2 like a
    bad flag.
    """
    budgets = tuple(
        (flag, {"type": int, "dest": name, "default": os.environ.get(f"PROOFBENCH_{name.upper()}", default)})
        for name, (flag, default) in _BUDGETS.items()
    )
    return VERBS[command][2] + budgets + (("--json", {"action": "store_true", "help": "line-delimited records"}),)


def build_parser():
    """The argparse parser of the verb table, for --help and error messages."""
    import argparse

    top = argparse.ArgumentParser(prog="proofbench", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_text, *_) in VERBS.items():
        p = sub.add_parser(command, help=help_text)
        for *names, keywords in _arguments(command):
            p.add_argument(*names, **keywords)
    return top


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a plainly well-formed argv, else None.

    None leaves argv to argparse: an unknown verb, -h, any `-`-leading token
    that is not an exact flag (abbreviations, `--x=y`, `--`, negative
    numbers), a positional after an option, a flag without its value, a
    missing required option, a bad choice or count of positionals, and an
    `int` that does not read.
    """
    if not argv or argv[0] not in VERBS:
        return None
    command = argv[0]
    positionals, flags, options = [], {}, {}
    for *names, keywords in _arguments(command):
        if names[0].startswith("-"):
            dest = keywords.get("dest", names[-1].lstrip("-").replace("-", "_"))
            flags.update((name, dest) for name in names)
            options[dest] = keywords
        else:
            positionals.append((names[0], keywords))

    words, given = [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if given:  # a positional after an option
                return None
            words.append(token)
            continue
        dest = flags.get(token)
        if dest is None:
            return None
        if options[dest].get("action") == "store_true":
            given[dest] = True
            continue
        value = next(tokens, "-")  # a flag at the end has no value
        if value.startswith("-"):
            return None
        if "type" in options[dest]:
            try:
                value = options[dest]["type"](value)
            except ValueError:
                return None
        given[dest] = value

    # only a verb's last positional may take "+"
    many = bool(positionals) and positionals[-1][1].get("nargs") == "+"
    if len(words) < len(positionals) or (len(words) > len(positionals) and not many):
        return None
    values = {"command": command}
    for k, (dest, keywords) in enumerate(positionals):
        taken = words[k:] if keywords.get("nargs") == "+" else words[k:k + 1]
        choices = keywords.get("choices")
        if choices is not None and any(w not in choices for w in taken):
            return None
        values[dest] = taken if keywords.get("nargs") == "+" else taken[0]

    for dest, keywords in options.items():
        if dest in given:
            values[dest] = given[dest]
        elif keywords.get("required"):
            return None
        elif keywords.get("action") == "store_true":
            values[dest] = False
        else:
            # argparse reads a string default (the environment's) with `type`
            default = keywords.get("default")
            if "type" in keywords and type(default) is str:
                try:
                    default = keywords["type"](default)
                except ValueError:
                    return None
            values[dest] = default
    return SimpleNamespace(**values)


def _read_input(path: Path) -> str:
    """The text of an input file, read as UTF-8 with universal newlines."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise _ParseFailure(f"{path}: not UTF-8 at byte {e.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_file(name: str, reader, prefix: str = ""):
    """`reader(text, load)` of the input file `name`, where `load` reads a
    file named relative to it; a file that cannot be read or does not read
    as its format is bad input, its message after `prefix`."""
    path = Path(name)
    try:
        return reader(_read_input(path), lambda rel: _read_input(path.parent / rel))
    except (OSError, DerivationError, LabError, SpectorError, *_PARSE_ERRORS) as e:
        raise _ParseFailure(f"{prefix}{e}") from None


def _read_arg(reader, text: str):
    """`reader(text)` of a command-line value; one that does not read is bad input."""
    try:
        return reader(text)
    except _PARSE_ERRORS as e:
        raise _ParseFailure(e) from None


def _write_output(path: Path, text: str):
    """Write `text`, then a newline, as UTF-8; a path that cannot be written is bad input."""
    try:
        with path.open("w", encoding="utf-8") as f:
            print(text, file=f)
    except OSError as e:
        raise _ParseFailure(f"cannot write {path}: {e.strerror or e}") from None


def _emit(records, ok: bool, json_mode: bool, human_lines):
    if json_mode:
        for r in records:
            print(json.dumps(r, sort_keys=True))
        print(json.dumps({"schema": SCHEMA, "verdict": "pass" if ok else "fail"}, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


# Each handler takes the argument namespace and returns its records, its
# verdict and its human lines; `run` prints them and picks the exit status.


def _cmd_ord(args):
    want = 2 if args.op in ("compare", "add", "mul") else 1
    if len(args.operands) != want:
        raise _ParseFailure(f"{args.op} wants {want} operand(s)")
    from .ordinals import add, mul, pow2, succ

    operands = [_read_arg(ord_parse, s) for s in args.operands]
    if args.op == "compare":
        out = compare(*operands).name
    else:
        fn = {"add": add, "mul": mul, "succ": succ, "pow2": pow2}[args.op]
        out = ord_text(fn(*operands))
    return [{"op": args.op, "result": out}], True, [out]


def _cmd_check(args):
    code = _read_file(args.file, lambda text, _: parse_code(text))
    report = check_local(code, args.depth, args.width, require_cut_free=args.cut_free)
    human = [
        f"{'pass' if report.passed else 'fail'}: {report.nodes_visited} nodes"
        f" ({report.nodes_checked} checked), depth {report.max_depth},"
        f" cut_free={report.cut_free}, truncated={report.truncated}"
    ]
    if not report.passed:
        human.append(f"  at path {list(report.fail_path)}: {report.fail_reason}")
    return [{name: getattr(report, name) for name in report.__match_args__}], report.passed, human


def _cmd_ti(args):
    spec = _read_arg(parse_spec, args.spec)
    code = derive_ti(spec)
    if not args.compact and le(otyp(spec), from_int(MAX_EXPANDED_FIELD)):
        code = expand(code)
    payload = code_text(code)
    if not args.output:
        return [{"certificate": payload}], True, [payload]
    _write_output(Path(args.output), payload)
    tag = ord_text(root_label(code).tag)
    return [{"written": args.output, "root_tag": tag}], True, [f"wrote {args.output} (root tag {tag})"]


def _rank_check_record(c) -> dict:
    return {"element": c.element, "rank": ord_text(c.rank), "bound": ord_text(c.bound), "ok": c.ok}


def _cmd_bound(args):
    spec = _read_arg(parse_spec, args.ordering)
    code = _read_file(args.cert, lambda text, _: parse_code(text))
    if args.truth:
        claim = bounded_truth(code, spec, args.eval, args.depth, args.width)
        record = {
            "ordering": spec_text(spec),
            "alpha": ord_text(claim.alpha),
            "beta": ord_text(claim.beta),
            "gamma": ord_text(claim.gamma),
            "claim": sequent_text(claim.sequent),
            "checks": [_rank_check_record(c) for c in claim.rank_checks],
            "verdict": claim.verdict.value,
        }
        human = [
            f"gamma = {ord_text(claim.gamma)} (beta {ord_text(claim.beta)}, alpha {ord_text(claim.alpha)})",
            f"claim verdict: {claim.verdict.value} ({len(claim.rank_checks)} rank checks)",
        ]
        return [record], claim.verdict is Verdict.TRUE, human
    cert = otyp_bound(spec, code, args.eval, args.depth, args.width)
    record = {
        "ordering": spec_text(spec),
        "alpha": ord_text(cert.alpha),
        "bound": ord_text(cert.bound),
        "otyp": ord_text(cert.otyp_value),
        "checks": [_rank_check_record(c) for c in cert.checks],
        "verdict": "pass" if cert.valid else "fail",
    }
    human = [
        f"otyp {ord_text(cert.otyp_value)} {'<' if cert.comparison.name == 'LT' else '!<'} "
        f"2^alpha = {ord_text(cert.bound)}",
        f"{len(cert.checks)} pointwise rank checks, "
        f"{'all passed' if all(c.ok for c in cert.checks) else 'FAILURES'}",
    ]
    return [record], cert.valid, human


def _cmd_spector(args):
    entries = _read_file(args.file, parse_enumeration)
    w = witness(entries, args.depth, args.width)
    report = verify_domination(entries, w, sample=50)
    if args.emit_cert and w.certificate is not None:
        _write_output(Path(args.emit_cert), code_text(w.certificate))
    record = {
        "alpha": ord_text(w.alpha),
        "witness_index": w.index,
        "witness_spec": spec_text(w.ordering),
        "witness_otyp": ord_text(w.order_type),
        "dominates": [
            {"index": r.index, "otyp": ord_text(r.entry_otyp), "ok": r.dominated}
            for r in report.rows
        ],
        "spot_checks": len(report.spot_checks),
        "ok": report.ok,
    }
    human = [
        f"alpha = {ord_text(w.alpha)}; witness #{w.index} is {spec_text(w.ordering)}"
        f" of type {ord_text(w.order_type)}",
        f"dominates {len(report.rows)} entries; {len(report.spot_checks)} spot checks"
        f" {'ok' if report.ok else 'FAILED'}",
    ]
    return [record], report.ok, human


def _cmd_lab(args):
    base = _read_arg(parse_spec, args.base)
    stores = [_read_file(name, parse_store, prefix=f"{name}: ") for name in args.stores]

    if args.verb == "chain":
        report = chain_check(stores, base, args.depth, args.width)
        witnessed_ok = all(e.witnessed is not False for e in report.entries)
        record = {
            "entries": [
                {"name": e.name, "otyp": ord_text(e.order_type), "witnessed": e.witnessed}
                for e in report.entries
            ],
            "descent_ok": report.descent_ok,
            "first_violation": report.first_violation,
        }
        human = [" > ".join(ord_text(e.order_type) for e in report.entries)]
        human.append("strict descent confirmed" if report.descent_ok
                     else f"descent fails at index {report.first_violation}")
        if not witnessed_ok:
            human.append("warning: a successor's order type is not witnessed by a checked claim")
        return [record], report.descent_ok and witnessed_ok, human

    results = []
    ok = True
    human = []
    for store in stores:
        prec = build_precT(store, base, args.depth, args.width)
        if args.verb == "build":
            record = {
                "name": store.name,
                "claims": len(store.claims),
                "usable": list(prec.usable),
            }
            human.append(f"{store.name}: {len(prec.usable)}/{len(store.claims)} claims usable")
        elif args.verb == "retype":
            value = retype(prec)
            record = {"name": store.name, "otyp": ord_text(value)}
            human.append(f"{store.name}: order type {ord_text(value)}")
        else:
            verdict = reflect_check(prec, args.chain)
            if verdict is not None:
                ok = False
                record = {
                    "name": store.name,
                    "verdict": "culprit",
                    "claim_index": verdict.claim_index,
                    "ordering": spec_text(verdict.ordering),
                    "evidence": verdict.evidence.value,
                    "chain": list(verdict.chain),
                }
                human.append(
                    f"{store.name}: claim {verdict.claim_index} ({spec_text(verdict.ordering)},"
                    f" {verdict.evidence.value}) admits a descending chain of length {len(verdict.chain)}"
                )
            else:
                record = {
                    "name": store.name,
                    "verdict": "well-founded-up-to-budget",
                    "budget": args.chain,
                    "claims_checked": len(prec.usable),
                }
                human.append(f"{store.name}: well-founded up to budget {args.chain}")
        results.append(record)
    return results, ok, human


def _cmd_regress(args):
    # imported here, as no other verb needs the suite or the generators
    from .regress import format_result, run_all

    only = None
    if args.only:
        try:
            only = [int(x) for x in args.only.split(",")]
        except ValueError:
            raise _ParseFailure(f"--only wants comma-separated numbers, got {args.only!r}")
    results = run_all(seed=args.seed, only=only)
    # wall-clock stays out of the structured records so a fixed seed yields
    # bit-identical output; the human lines and exit status still enforce
    # the per-criterion time budgets
    records = [
        {
            "criterion": r.number,
            "name": r.name,
            "ok": r.ok,
            "limit": r.limit,
            "details": r.details,
        }
        for r in results
    ]
    return records, all(r.within_budget for r in results), [format_result(r) for r in results]


# Every verb once: its help, its handler and its own arguments, each given as
# the names and keywords of one `add_argument` call; `_arguments` adds the
# budget flags and --json.  `main` reads argv straight from this table, and `build_parser`
# builds argparse from it only for --help and for argv the direct reader
# leaves to argparse.
VERBS = {
    "ord": ("notation arithmetic", _cmd_ord, (
        ("op", {"choices": ("compare", "add", "mul", "succ", "pow2")}),
        ("operands", {"nargs": "+"}),
    )),
    "check": ("verify a certificate file", _cmd_check, (
        ("file", {}),
        ("--cut-free", {"action": "store_true"}),
    )),
    "ti": ("emit the canonical TI certificate of a spec", _cmd_ti, (
        ("spec", {}),
        ("-o", "--output", {}),
        ("--compact", {"action": "store_true", "help": "emit the builder term instead of expanding"}),
    )),
    "bound": ("order-type bound / semantic claim extraction", _cmd_bound, (
        ("--ordering", {"required": True}),
        ("--cert", {"required": True}),
        ("--truth", {"action": "store_true", "help": "run the claim walk instead of the order-type bound"}),
    )),
    "spector": ("certified-sup witness from an enumeration file", _cmd_spector, (
        ("file", {}),
        ("--emit-cert", {}),
    )),
    "lab": ("certificate-store workbench", _cmd_lab, (
        ("verb", {"choices": ("build", "retype", "reflect", "chain")}),
        ("stores", {"nargs": "+", "help": "store files"}),
        ("--base", {"required": True}),
    )),
    "regress": ("run the acceptance suite", _cmd_regress, (
        ("--seed", {"type": int, "default": 0}),
        ("--only", {"help": "comma-separated criterion numbers"}),
    )),
}


def run(args: SimpleNamespace) -> int:
    """Run the request's handler, print what it returns and give the exit
    status: its verdict, or the kind of error that stopped it."""
    try:
        records, ok, human = VERBS[args.command][1](args)
    except _ParseFailure as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (*_PRECONDITION_ERRORS, *_PARSE_ERRORS) as e:
        print(f"precondition failed: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    _emit(records, ok, args.json, human)
    return EXIT_OK if ok else EXIT_VERDICT


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
    for name, (flag, _) in _BUDGETS.items():
        if getattr(args, name) <= 0:
            print(f"budget {flag} (PROOFBENCH_{name.upper()}) must be positive", file=sys.stderr)
            return EXIT_PARSE
    # values are immutable DAGs, so the cyclic collector's passes find next
    # to nothing to free: the verb runs with it paused, and it is re-enabled
    # only if this call paused it, so the caller's setting is restored
    with _COLLECTOR:
        paused = gc.isenabled()
        gc.disable()
    try:
        return run(args)
    finally:
        if paused:
            with _COLLECTOR:
                gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
