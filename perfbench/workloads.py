"""The benchmark workloads.

Each workload is a closed loop with one caller: an operation is issued only
after the previous one returned, as a researcher runs ``rbc`` commands in
sequence.  A workload builds one pass of operations at a time from a seeded
``random.Random``; the library receives only those generated inputs and
seeds.  Every operation carries a check of the guarantee its output must
meet, which the runner applies outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass, field
from itertools import combinations
from math import ceil, comb
from pathlib import Path
from typing import Callable

import oracle


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    meta: dict = field(default_factory=dict)


def _stirling2(m: int, r: int) -> int:
    row = [1] + [0] * r  # S(0, j)
    for _ in range(m):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, r + 1)]
    return row[r]


def _ce0(report) -> bool:
    return not report.counterexamples


def median(xs):
    s = sorted(xs)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


TAIL_LADDER = (50, 75, 90, 95, 98, 99, 99.5, 99.9, 99.95, 99.99)


def tail(samples) -> tuple[float, float]:
    """(percentile, value) for the highest percentile of TAIL_LADDER that
    leaves at least 10 samples beyond it, by the nearest-rank rule."""
    xs = sorted(samples)
    best = None
    for p in TAIL_LADDER:
        rank = ceil(p * len(xs) / 100)
        if rank >= 1 and len(xs) - rank >= 10:
            best = (p, xs[rank - 1])
    if best is None:
        raise ValueError(f"{len(xs)} samples leave no percentile with 10 beyond it")
    return best


class Workload:
    """Base for workloads whose end-to-end parts are sums of op kinds."""

    name = ""
    # per-step metric printed before the result -> op kinds it sums, per pass
    named: dict[str, tuple[str, ...]] = {}
    parts: tuple[tuple[str, ...], tuple[str, ...]] = ((), ())

    def setup(self, lib, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def ops(self, lib, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def summarize(self, passes) -> tuple[float, float, list[tuple[str, float, str]]]:
        """From per-pass [(kind, seconds)] records: part1_s, part2_s and the
        named per-step metrics, each a median over passes."""
        def per_pass(kinds):
            return median([sum(dt for k, dt in recs if k in kinds) for recs in passes])

        named = [(name, per_pass(kinds), "s") for name, kinds in self.named.items()]
        return per_pass(self.parts[0]), per_pass(self.parts[1]), named


class Lemmas(Workload):
    """Deterministic lemma verifiers; the seed is ignored.  The four timed
    verifiers differ by up to 3x in cost, so they are split over two
    workloads, each pairing a partition enumeration (part1_s) with a
    regular-graph reduction (part2_s), and a slowdown of any one of them
    moves a gated metric by itself."""

    kinds: tuple[str, ...] = ()  # the op kinds of one pass, in order

    def setup(self, lib, seed, workdir):
        lib.verify.verify_triangle_threshold(4)
        lib.verify.verify_tightness(8, 4)

    def ops(self, lib, rng):
        v = lib.verify
        k6_space = _stirling2(15, 10)
        steps = {
            "lemma.triangle": [
                (lambda n=n: v.verify_triangle_threshold(n), _ce0, {"n": n}) for n in (3, 4, 5)
            ],
            # looked up at call time, so that a traced pass calls the wrapper
            "lemma.k6": [(lambda: v.verify_k6_dichotomy(),
                          lambda r: r.space_size == k6_space and _ce0(r), {})],
            "lemma.k8": [(lambda: v.verify_k8_reduction(), _ce0, {})],
            "lemma.k9": [(lambda: v.verify_k9_reduction(), _ce0, {})],
            # about 3 ms each, too short to time steadily: wall_s only
            "lemma.tightness": [
                (lambda: v.verify_tightness(8, 4), _ce0, {}),
                (lambda: v.verify_tightness(9, 5), _ce0, {}),
            ],
        }
        return [
            Op(kind, call, check, meta)
            for kind in self.kinds
            for call, check, meta in steps[kind]
        ]


class LemmasTriK9(Lemmas):
    name = "lemmas-tri-k9"
    named = {"lemma.triangle_s": ("lemma.triangle",), "lemma.k9_s": ("lemma.k9",)}
    parts = (("lemma.triangle",), ("lemma.k9",))
    kinds = ("lemma.triangle", "lemma.k9", "lemma.tightness")


class LemmasK6K8(Lemmas):
    name = "lemmas-k6-k8"
    named = {"lemma.k6_s": ("lemma.k6",), "lemma.k8_s": ("lemma.k8",)}
    parts = (("lemma.k6",), ("lemma.k8",))
    kinds = ("lemma.k6", "lemma.k8")


class Falsify(Workload):
    """Two-cliques falsifier: many small complete graphs."""

    name = "falsify"
    TRIALS = 2000
    CASES = (("falsify.k6n8", 6, 8), ("falsify.k5n10", 5, 10))
    named = {"falsify.k6n8_s": ("falsify.k6n8",), "falsify.k5n10_s": ("falsify.k5n10",)}
    parts = (("falsify.k6n8",), ("falsify.k5n10",))

    def setup(self, lib, seed, workdir):
        for _, k, n in self.CASES:
            lib.verify.falsify_two_cliques(k, n, 20, seed)

    def ops(self, lib, rng):
        v = lib.verify
        trials = self.TRIALS

        def check(r):
            return r.space_size == trials and _ce0(r)

        return [
            Op(kind, lambda k=k, n=n, s=rng.randrange(2**31): v.falsify_two_cliques(k, n, trials, s), check)
            for kind, k, n in self.CASES
        ]


class Supersat(Workload):
    """Supersaturation counting: a few large graphs, n up to 80."""

    name = "supersat"
    NS = (30, 40, 50, 60, 70, 80)
    EPS = 0.1
    SLOPES = {3: (2.7, 3.3), 4: (3.6, 4.4)}
    named = {"supersat.k3_s": ("supersat.k3",), "supersat.k4_s": ("supersat.k4",)}
    parts = (("supersat.k3",), ("supersat.k4",))

    def setup(self, lib, seed, workdir):
        lib.verify.supersaturation_experiment(3, [8, 10], self.EPS, seed)

    def check(self, k: int, result) -> bool:
        rows, slope = result
        lo, hi = self.SLOPES[k]
        if [n for n, _, _ in rows] != list(self.NS) or not lo <= slope <= hi:
            return False
        for n, ec, count in rows:
            target = ceil((1 + (k - 3) / (k - 2) + 2 * self.EPS) * comb(n, 2))
            if ec < target or count < 1:
                return False
        return True

    def ops(self, lib, rng):
        v = lib.verify
        seed = rng.randrange(2**31)
        return [
            Op(f"supersat.k{k}",
               lambda k=k: v.supersaturation_experiment(k, list(self.NS), self.EPS, seed),
               lambda r, k=k: self.check(k, r))
            for k in (3, 4)
        ]


_FOUND = re.compile(r"^(\S+): found vertices=\[([\d, ]*)\]$")


class Cli(Workload):
    """In-process ``rbc`` commands over a seeded ECG corpus."""

    name = "cli"
    NS = (8, 12, 16, 20, 24, 28, 32, 36, 40)
    DENSITIES = (0.35, 0.7, 1.0)
    PER_CELL = 3
    READS = (
        ("analyze", []),
        ("find", ["--pattern", "rainbow-clique", "--k", "4"]),
        ("find", ["--pattern", "proper-c4"]),
        ("find", ["--pattern", "mono-path", "--len", "4"]),
        ("count", ["--k", "3"]),
    )

    def setup(self, lib, seed, workdir):
        """Generate the corpus: every (n, density) cell with a few and with
        many colors, so each seed exercises the same mix of sizes and shapes,
        and several graphs per cell, so the slowest commands (searches that
        find nothing) are not a handful of chance outcomes.  The files are
        written by the first ``ops``, outside the timed set-up: rewriting
        them on every set-up made it wait on the file system, by an amount
        that grew from run to run."""
        rng = random.Random(seed)
        self.workdir = workdir
        self.unwritten = []
        self.graphs = []
        for n in self.NS:
            for density in self.DENSITIES:
                for palette in (max(3, n // 2), comb(n, 2)) * self.PER_CELL:
                    colors = {
                        e: rng.randint(1, palette)
                        for e in combinations(range(1, n + 1), 2)
                        if rng.random() < density
                    }
                    path = workdir / f"g{len(self.graphs)}.ecg"
                    self.unwritten.append((path, oracle.format_ecg(n, colors)))
                    self.graphs.append((str(path), n, colors))
        self.writes = [
            (f"extremal{n}", ["extremal", "--n", str(n), "--k", str(rng.choice((4, 5)))])
            for n in self.NS
        ] + [(f"lex{n}", ["lexicographic", "--n", str(n)]) for n in self.NS]
        self.expected: dict = {}
        self.passes = 0
        self._run(lib, ["construct", "lexicographic", "--n", "8"])

    def _run(self, lib, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.run(argv)
        return code, out.getvalue()

    def _expect(self, key, compute):
        if key not in self.expected:
            self.expected[key] = compute()
        return self.expected[key]

    def check_read(self, gi: int, cmd: str, args: list[str], result) -> bool:
        code, out = result
        _, n, colors = self.graphs[gi]
        lines = out.splitlines()
        if code != 0:
            return False
        if cmd == "analyze":
            return lines == self._expect((gi, cmd), lambda: oracle.analyze_lines(n, colors))
        if cmd == "count":
            return lines == [str(self._expect((gi, cmd), lambda: oracle.count_rainbow_cliques(n, colors, 3)))]
        pattern, k = args[1], int(args[3]) if len(args) > 2 else 4
        exists = {
            "rainbow-clique": lambda: oracle.count_rainbow_cliques(n, colors, k) > 0,
            "proper-c4": lambda: oracle.has_proper_c4(n, colors),
            "mono-path": lambda: oracle.has_mono_path4(colors),
        }[pattern]
        if lines == [f"{pattern}: absent"]:
            return not self._expect((gi, pattern), exists)
        found = _FOUND.match(lines[0]) if lines else None
        if not found or found.group(1) != pattern:
            return False
        verts = [int(x) for x in found.group(2).split(",")]
        edges = [tuple(int(x) for x in line.split()) for line in lines[1:]]
        return oracle.witness_ok(pattern, k, colors, verts, edges)

    def check_write(self, path: Path, args: list[str], result) -> bool:
        code, out = result
        n = int(args[2])
        if code != 0 or not out.startswith(f"wrote {args[0]}: n={n} "):
            return False
        gn, colors = oracle.parse_ecg(path.read_text())
        if args[0] == "extremal":
            want_c = oracle.turan_number(n, int(args[4]) - 2) + 1
        else:
            want_c = n - 1
        return gn == n and len(colors) == comb(n, 2) and len(set(colors.values())) == want_c

    def ops(self, lib, rng):
        for path, text in self.unwritten:
            path.write_text(text)
        self.unwritten = []
        # each pass writes new files, as overwriting the last pass's would
        # wait for the kernel to write those back
        self.passes += 1
        writes = [(self.workdir / f"{stem}-{self.passes}.ecg", args) for stem, args in self.writes]
        ops = [
            Op(f"cli.{cmd}", lambda argv=[cmd, path, *args]: self._run(lib, argv),
               lambda r, gi=gi, cmd=cmd, args=args: self.check_read(gi, cmd, args, r))
            for gi, (path, _, _) in enumerate(self.graphs)
            for cmd, args in self.READS
        ]
        ops += [
            Op("cli.construct",
               lambda argv=["construct", *args, "--out", str(path)]: self._run(lib, argv),
               lambda r, path=path, args=args: self.check_write(path, args, r))
            for path, args in writes
        ]
        rng.shuffle(ops)
        return ops

    def summarize(self, passes):
        """Median and tail latency of each pass, then the median over passes.
        Every pass issues the same number of commands, so the tail
        percentile stays the same however many passes fit in a run."""
        p50 = median([median([dt for _, dt in recs]) for recs in passes])
        tails = [tail([dt for _, dt in recs]) for recs in passes]
        tail_s = median([t for _, t in tails])
        named = [
            ("cmd_p50_ms", p50 * 1e3, "ms"),
            ("cmd_tail_ms", tail_s * 1e3, "ms"),
            ("cmd_tail_percentile", tails[0][0], "%"),
            ("cmd_per_pass", len(passes[0]), "count"),
        ]
        return p50, tail_s, named


WORKLOADS = {w.name: w for w in (LemmasTriK9, LemmasK6K8, Falsify, Supersat, Cli)}
