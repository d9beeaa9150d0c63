"""Command-line front end: construct / analyze / find / count / verify /
supersat / turan over ECG files and CSV outputs.

Exit codes: 0 success; 1 verification failure or pattern absent with
--require; 2 usage error; 3 parse or IO error.
"""

from __future__ import annotations

import argparse
import sys

from .constructions import counterexample_n7, extremal, k6_variant, lexicographic
from .graph import ECGParseError, format_ecg, is_complete, parse_ecg, saturation
from .search import (
    count_rainbow_cliques,
    find_monochromatic_cycle,
    find_monochromatic_path,
    find_properly_colored_c4,
    find_rainbow_clique,
    find_rainbow_complete_bipartite,
    find_rainbow_turan,
)
from .turan import thresholds, turan_number
from .verify import (
    falsify_two_cliques,
    format_report,
    supersaturation_experiment,
    verify_k6_dichotomy,
    verify_k8_reduction,
    verify_k9_reduction,
    verify_tightness,
    verify_triangle_threshold,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


# choice -> (flags it requires, its call), one table per subcommand; the
# calls are looked up at call time, so a patched module attribute is the one
# called
_CONSTRUCTIONS = {
    "extremal": (("n", "k"), lambda a: extremal(a.n, a.k)),
    "lexicographic": (("n",), lambda a: lexicographic(a.n)),
    "k6-variant": (("which",), lambda a: k6_variant(a.which)),
    "counterexample-n7": ((), lambda a: counterexample_n7()),
}

_FINDERS = {
    "rainbow-clique": (("k",), lambda g, a: find_rainbow_clique(g, a.k)),
    "rainbow-bipartite": (("a", "b"), lambda g, a: find_rainbow_complete_bipartite(g, a.a, a.b)),
    "rainbow-turan": (("r",), lambda g, a: find_rainbow_turan(g, a.r)),
    "mono-cycle": (("len",), lambda g, a: find_monochromatic_cycle(g, a.len)),
    "mono-path": (("len",), lambda g, a: find_monochromatic_path(g, a.len)),
    "proper-c4": ((), lambda g, a: find_properly_colored_c4(g)),
}

_LEMMAS = {
    "triangle-n3": ((), lambda a: verify_triangle_threshold(3)),
    "triangle-n4": ((), lambda a: verify_triangle_threshold(4)),
    "triangle-n5": ((), lambda a: verify_triangle_threshold(5)),
    "k6-dichotomy": ((), lambda a: verify_k6_dichotomy()),
    "k8-reduction": ((), lambda a: verify_k8_reduction()),
    "k9-reduction": ((), lambda a: verify_k9_reduction()),
    "tightness": (("n", "k"), lambda a: verify_tightness(a.n, a.k)),
    "two-cliques": (
        ("n", "k", "seed", "trials"), lambda a: falsify_two_cliques(a.k, a.n, a.trials, a.seed)
    ),
}

# flags that a choice may leave out, with the value it then gets
_DEFAULTS = {"trials": 10000, "seed": 1}


def _require(command: str, table: dict, choice: str, args):
    """table[choice]'s call, once its flags are set, or defaulted, and no
    other entry's is."""
    taken, call = table[choice]
    needed = [name for name in taken if name not in _DEFAULTS]
    if any(getattr(args, name) is None for name in needed):
        flags = " and ".join(f"--{name}" for name in needed)
        raise UsageError(f"{command} {choice} requires {flags}")
    for name in (name for other, _ in table.values() for name in other):
        if name not in taken and getattr(args, name) is not None:
            raise UsageError(f"{command} {choice} does not take --{name}")
    for name in taken:
        if getattr(args, name) is None:
            setattr(args, name, _DEFAULTS[name])
    return call


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rbc",
        description="Edge-colored graph extremal analysis toolkit.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="generate a named coloring as ECG")
    c.add_argument("target", choices=list(_CONSTRUCTIONS))
    c.add_argument("--n", type=int)
    c.add_argument("--k", type=int)
    c.add_argument("--which", choices=["turan-pair", "mono-c6"])
    c.add_argument("--out")

    a = sub.add_parser("analyze", help="print counts and saturation tallies")
    a.add_argument("file")

    f = sub.add_parser("find", help="search for a colored pattern")
    f.add_argument("file")
    f.add_argument("--pattern", required=True, choices=list(_FINDERS))
    f.add_argument("--k", type=int)
    f.add_argument("--a", type=int)
    f.add_argument("--b", type=int)
    f.add_argument("--r", type=int)
    f.add_argument("--len", type=int, metavar="LENGTH")
    f.add_argument("--require", action="store_true")

    cn = sub.add_parser("count", help="count rainbow k-cliques")
    cn.add_argument("file")
    cn.add_argument("--k", type=int, required=True)

    v = sub.add_parser("verify", help="run a lemma verifier")
    v.add_argument("lemma", choices=list(_LEMMAS))
    v.add_argument("--n", type=int)
    v.add_argument("--k", type=int)
    v.add_argument("--trials", type=int)
    v.add_argument("--seed", type=int)
    v.add_argument("--out")

    s = sub.add_parser("supersat", help="supersaturation counting experiment")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--ns", required=True, help="comma-separated vertex counts")
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--csv")

    t = sub.add_parser("turan", help="print a table of Turán numbers")
    t.add_argument("--max-n", type=int, required=True)
    t.add_argument("--max-k", type=int, required=True)
    return p


def _read_graph(path: str):
    # an OSError goes up to `run`, which reports it as an io error
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is the data after a leading byte-order mark
        offset = exc.start + len(data) - len(exc.object)
        byte = exc.object[exc.start]
        raise OSError(
            f"cannot read {path}: not UTF-8 text (byte {byte:#04x} at offset {offset})"
        ) from None
    if "\r" in text:  # newlines translated as text mode would
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_ecg(text)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_construct(args) -> int:
    construct = _require("construct", _CONSTRUCTIONS, args.target, args)
    g = construct(args)
    _emit(format_ecg(g), args.out)
    if args.out:
        print(f"wrote {args.target}: n={g.n} e={g.e} c={g.c} -> {args.out}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    g = _read_graph(args.file)
    prof = saturation(g)
    c0, c1, c2 = prof.tallies
    print(
        f"e={g.e} c={g.c} e+c={g.e + g.c} "
        f"complete={'true' if is_complete(g) else 'false'}"
    )
    print(f"c0={c0} c1={c1} c2={c2} sum_ds={prof.sum_ds}")
    return EXIT_OK


def _cmd_find(args) -> int:
    pattern = args.pattern
    find = _require("find", _FINDERS, pattern, args)
    w = find(_read_graph(args.file), args)
    if w is None:
        print(f"{pattern}: absent")
        return EXIT_FAIL if args.require else EXIT_OK
    if pattern == "rainbow-turan":
        print(f"parts={sorted(w.parts, reverse=True)}")
    print(f"{pattern}: found vertices={list(w.vertices)}")
    for u, v, c in w.edges:
        print(f"  {u} {v} {c}")
    return EXIT_OK


def _cmd_count(args) -> int:
    g = _read_graph(args.file)
    print(count_rainbow_cliques(g, args.k))
    return EXIT_OK


def _cmd_verify(args) -> int:
    verify = _require("verify", _LEMMAS, args.lemma, args)
    report = verify(args)
    text = format_report(report)
    _emit(text, args.out)
    if args.out:
        print(text.splitlines()[0])
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_supersat(args) -> int:
    try:
        ns = [int(x) for x in args.ns.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"bad --ns list {args.ns!r}") from None
    if not ns:
        raise UsageError("--ns must name at least one vertex count")
    rows, slope = supersaturation_experiment(args.k, ns, args.eps, args.seed)
    lines = ["n,ec,count"] + [f"{n},{ec},{cnt}" for n, ec, cnt in rows]
    _emit("\n".join(lines) + "\n", args.csv)
    print(f"slope={slope:.4f}")
    return EXIT_OK


def _cmd_turan(args) -> int:
    if args.max_n < 1 or args.max_k < 1:
        raise UsageError("turan table bounds must be positive")
    header = "n\\k " + " ".join(f"{k:>6}" for k in range(1, args.max_k + 1))
    print(header)
    for n in range(1, args.max_n + 1):
        cells = " ".join(f"{turan_number(n, k):>6}" for k in range(1, args.max_k + 1))
        print(f"{n:>4} {cells}")
    for k in (4, 5):
        if args.max_n >= k:
            ext, exi = thresholds(args.max_n, k)
            print(f"thresholds(n={args.max_n}, k={k}): extremal={ext} existence={exi}")
    return EXIT_OK


_COMMANDS = {
    "construct": _cmd_construct,
    "analyze": _cmd_analyze,
    "find": _cmd_find,
    "count": _cmd_count,
    "verify": _cmd_verify,
    "supersat": _cmd_supersat,
    "turan": _cmd_turan,
}


_PARSER = _build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ECGParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
