from math import ceil, comb

import pytest

from rainbow_cliques import cli, count_rainbow_cliques, extremal, perturb_fresh_colors, verify
from rainbow_cliques.cli import run
from oracles import count_rainbow_cliques_naive


def test_construct_analyze_round_trip(tmp_path, capsys):
    out = tmp_path / "g.ecg"
    assert run(["construct", "extremal", "--n", "8", "--k", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["analyze", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "e=28 c=17 e+c=45 complete=true"
    assert lines[1] == "c0=1 c1=0 c2=16 sum_ds=32"


def test_construct_to_stdout(capsys):
    assert run(["construct", "counterexample-n7"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("7 20\n")


def test_construct_into_a_missing_directory_exit_3(tmp_path, capsys):
    out = tmp_path / "missing" / "x.ecg"
    assert run(["construct", "extremal", "--n", "8", "--k", "4", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("io error: ")


def test_find_present_and_absent(tmp_path, capsys):
    g = tmp_path / "g.ecg"
    run(["construct", "extremal", "--n", "8", "--k", "4", "--out", str(g)])
    capsys.readouterr()
    assert run(["find", str(g), "--pattern", "rainbow-clique", "--k", "3"]) == 0
    assert "found" in capsys.readouterr().out
    assert run(["find", str(g), "--pattern", "rainbow-clique", "--k", "4"]) == 0
    assert "absent" in capsys.readouterr().out
    assert run(["find", str(g), "--pattern", "rainbow-clique", "--k", "4", "--require"]) == 1
    assert run(["find", str(g), "--pattern", "rainbow-turan", "--r", "2"]) == 0
    assert "parts=[4, 4]" in capsys.readouterr().out


def test_count(tmp_path, capsys):
    g = tmp_path / "g.ecg"
    run(["construct", "extremal", "--n", "8", "--k", "4", "--out", str(g)])
    capsys.readouterr()
    assert run(["count", str(g), "--k", "3"]) == 0
    assert capsys.readouterr().out.strip() == "48"


def test_verify_triangle(tmp_path, capsys):
    assert run(["verify", "triangle-n3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("LEMMA triangle-n3 SPACE 15 CE 0 TIME ")
    # with --out the report goes to the file and its LEMMA line to stdout
    report = tmp_path / "report.txt"
    assert run(["verify", "triangle-n3", "--out", str(report)]) == 0
    text = report.read_text()
    assert text.startswith("LEMMA triangle-n3 SPACE 15 CE 0 TIME ")
    assert capsys.readouterr().out == text.splitlines()[0] + "\n"


def test_verify_tightness_flags(capsys):
    assert run(["verify", "tightness", "--n", "8", "--k", "4"]) == 0
    assert run(["verify", "tightness"]) == 2


@pytest.mark.parametrize("n, k", [("2", "4"), ("3", "5")])
def test_verify_tightness_below_k_exit_2(n, k, capsys):
    assert run(["verify", "tightness", "--n", n, "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n must be >= {k}, got {n}\n"


@pytest.mark.parametrize("n, k", [("4", "4"), ("5", "5"), ("8", "4"), ("9", "5")])
def test_verify_tightness_from_n_equals_k_reports_ce_0(n, k, capsys):
    assert run(["verify", "tightness", "--n", n, "--k", k]) == 0
    fields = capsys.readouterr().out.split()
    assert fields[:2] == ["LEMMA", f"tightness-n{n}-k{k}"] and fields[4:6] == ["CE", "0"]


def test_two_cliques_range_error(capsys):
    assert run(["verify", "two-cliques", "--n", "9", "--k", "5", "--trials", "1"]) == 2


@pytest.mark.parametrize("flags, trials, seed", [
    ([], 10000, 1), (["--trials", "7", "--seed", "5"], 7, 5), (["--seed", "0"], 10000, 0),
])
def test_two_cliques_trials_and_seed(flags, trials, seed, monkeypatch, capsys):
    calls = []

    def falsify(k, n, trials, seed):
        calls.append((k, n, trials, seed))
        return verify.VerificationReport("two-cliques", trials)

    monkeypatch.setattr(cli, "falsify_two_cliques", falsify)
    assert run(["verify", "two-cliques", "--n", "8", "--k", "6", *flags]) == 0
    assert calls == [(6, 8, trials, seed)]


def test_two_cliques_zero_trials_exit_2(capsys):
    assert run(["verify", "two-cliques", "--n", "8", "--k", "6", "--trials", "0"]) == 2
    assert "trials must be >= 1, got 0" in capsys.readouterr().err


def test_supersat_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = run([
        "supersat", "--k", "3", "--ns", "10,12", "--eps", "0.1",
        "--seed", "1", "--csv", str(out),
    ])
    assert rc == 0
    assert "slope=" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "n,ec,count"
    assert len(lines) == 3


def test_turan_table(capsys):
    assert run(["turan", "--max-n", "9", "--max-k", "3"]) == 0
    out = capsys.readouterr().out
    assert " 27" in out  # t_{9,3}
    assert run(["turan", "--max-n", "0", "--max-k", "3"]) == 2
    assert capsys.readouterr().err == "error: turan table bounds must be positive\n"


def test_parse_error_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.ecg"
    bad.write_text("3 1\n1 1 1\n")
    assert run(["analyze", str(bad)]) == 3
    missing = tmp_path / "missing.ecg"
    capsys.readouterr()
    assert run(["analyze", str(missing)]) == 3
    assert capsys.readouterr().err == (
        f"io error: [Errno 2] No such file or directory: {str(missing)!r}\n"
    )


@pytest.mark.parametrize("argv", [
    ["analyze"], ["find", "--pattern", "rainbow-clique", "--k", "3"], ["count", "--k", "3"],
])
def test_undecodable_file_exit_3(tmp_path, capsys, argv):
    bad = tmp_path / "bad.ecg"
    bad.write_bytes(b"2 1\n1 2 \xff\n")
    assert run(argv[:1] + [str(bad)] + argv[1:]) == 3
    assert capsys.readouterr().err == (
        f"io error: cannot read {bad}: not UTF-8 text (byte 0xff at offset 8)\n"
    )


@pytest.mark.parametrize("argv, first", [
    (["analyze"], "e=1 c=1 e+c=2 complete=true"),
    (["find", "--pattern", "rainbow-clique", "--k", "2"], "rainbow-clique: found vertices=[1, 2]"),
    (["count", "--k", "2"], "1"),
])
def test_byte_order_mark_is_skipped(tmp_path, capsys, argv, first):
    g = tmp_path / "bom.ecg"
    g.write_bytes(b"\xef\xbb\xbf2 1\n1 2 1\n")
    assert run(argv[:1] + [str(g)] + argv[1:]) == 0
    assert capsys.readouterr().out.splitlines()[0] == first


@pytest.mark.parametrize("data", [
    b"2 1\r\n1 2 1\r\n", b"2 1\r1 2 1\r", b"\xef\xbb\xbf2 1\r\n1 2 1\r\n",
])
def test_crlf_and_lone_cr_newlines_are_read(tmp_path, capsys, data):
    g = tmp_path / "g.ecg"
    g.write_bytes(data)
    assert run(["analyze", str(g)]) == 0
    assert capsys.readouterr().out.startswith("e=1 c=1 e+c=2 ")


def test_undecodable_file_after_a_byte_order_mark_counts_its_bytes(tmp_path, capsys):
    bad = tmp_path / "bad.ecg"
    bad.write_bytes(b"\xef\xbb\xbf2 1\n1 2 \xff\n")
    assert run(["analyze", str(bad)]) == 3
    assert capsys.readouterr().err == (
        f"io error: cannot read {bad}: not UTF-8 text (byte 0xff at offset 11)\n"
    )


def test_usage_error_exit_2(capsys):
    assert run(["nonsense"]) == 2
    cases = [
        (["construct", "extremal"], "construct extremal requires --n and --k"),
        (["construct", "extremal", "--n", "8"], "construct extremal requires --n and --k"),
        (["construct", "k6-variant"], "construct k6-variant requires --which"),
        (["find", "x", "--pattern", "rainbow-clique"], "find rainbow-clique requires --k"),
        (["find", "x", "--pattern", "rainbow-bipartite", "--a", "2"],
         "find rainbow-bipartite requires --a and --b"),
        (["find", "x", "--pattern", "mono-path"], "find mono-path requires --len"),
        (["verify", "tightness", "--k", "4"], "verify tightness requires --n and --k"),
        (["verify", "two-cliques"], "verify two-cliques requires --n and --k"),
        # a flag that another choice of the same subcommand takes
        (["verify", "triangle-n5", "--n", "4"], "verify triangle-n5 does not take --n"),
        (["verify", "k6-dichotomy", "--k", "5"], "verify k6-dichotomy does not take --k"),
        (["verify", "triangle-n3", "--seed", "5", "--trials", "3"],
         "verify triangle-n3 does not take --seed"),
        (["verify", "triangle-n3", "--trials", "3"], "verify triangle-n3 does not take --trials"),
        (["verify", "k6-dichotomy", "--trials", "3"], "verify k6-dichotomy does not take --trials"),
        (["verify", "tightness", "--n", "8", "--k", "4", "--seed", "2"],
         "verify tightness does not take --seed"),
        (["construct", "lexicographic", "--n", "8", "--k", "4"],
         "construct lexicographic does not take --k"),
        (["construct", "extremal", "--n", "8", "--k", "4", "--which", "mono-c6"],
         "construct extremal does not take --which"),
        (["find", "x", "--pattern", "proper-c4", "--k", "4"], "find proper-c4 does not take --k"),
        (["find", "x", "--pattern", "mono-cycle", "--len", "4", "--r", "2"],
         "find mono-cycle does not take --r"),
    ]
    for argv, message in cases:
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_supersat_zero_count_exit_2(capsys):
    assert run(["supersat", "--k", "4", "--ns", "4,5", "--eps", "0.1"]) == 2
    err = capsys.readouterr().err
    assert "no rainbow K_4 at n=4" in err and "math domain error" not in err


@pytest.mark.parametrize("ns, message", [
    ("a,b", "bad --ns list 'a,b'"), (",", "--ns must name at least one vertex count"),
])
def test_supersat_bad_ns_list_exit_2(ns, message, capsys):
    assert run(["supersat", "--k", "3", "--ns", ns, "--eps", "0.1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_supersat_single_n_exit_2(capsys):
    assert run(["supersat", "--k", "3", "--ns", "10,10", "--eps", "0.1"]) == 2
    assert "at least two distinct n" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["inf", "nan"])
def test_supersat_non_finite_eps_exit_2(eps, capsys):
    assert run(["supersat", "--k", "3", "--ns", "10,12", "--eps", eps]) == 2
    assert capsys.readouterr().err == f"error: need a finite eps > 0, got {eps}\n"


@pytest.mark.parametrize("k", [5, 6])
def test_supersat_k5_k6_counts_match_the_oracle(k, capsys):
    assert run(["supersat", "--k", str(k), "--ns", "10,12", "--eps", "0.1", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,ec,count"
    for line, n in zip(lines[1:3], (10, 12)):
        target = ceil((1 + (k - 3) / (k - 2) + 0.2) * comb(n, 2))
        g = perturb_fresh_colors(extremal(n, k), target, 1)
        count = count_rainbow_cliques_naive(g, k)
        assert count == count_rainbow_cliques(g, k) > 0
        assert line == f"{n},{g.e + g.c},{count}"
    assert lines[3].startswith("slope=")


@pytest.mark.parametrize("k, ns, cap, n", [
    ("6", "30,100", 80, 100), ("6", "81,30", 80, 81),
    ("5", "30,101", 100, 101), ("3", "10,101", 100, 101),
])
def test_supersat_n_above_the_cap_for_k_exit_2_before_counting(k, ns, cap, n, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("counted before checking the cap")

    monkeypatch.setattr(verify, "count_rainbow_cliques", refuse)
    assert run(["supersat", "--k", k, "--ns", ns, "--eps", "0.1"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: experiment for k={k} capped at n <= {cap}, got n={n}\n"


def test_supersat_n_at_the_cap_for_k_6_is_counted(capsys, monkeypatch):
    counted = []

    def stub(g, k):
        counted.append((g.n, k))
        return g.n

    monkeypatch.setattr(verify, "count_rainbow_cliques", stub)
    assert run(["supersat", "--k", "6", "--ns", "30,80", "--eps", "0.1"]) == 0
    assert counted == [(30, 6), (80, 6)]
    assert capsys.readouterr().out.splitlines()[2].startswith("80,")


def test_supersat_k_outside_3_to_6_exit_2(capsys):
    for k in ("2", "7"):
        assert run(["supersat", "--k", k, "--ns", "10,12", "--eps", "0.1"]) == 2
        assert f"k must be in 3..6, got {k}" in capsys.readouterr().err


@pytest.mark.parametrize("k, eps, budget", [("6", "0.13", "2.01"), ("3", "1e308", "inf")])
def test_supersat_large_eps_exceeds_the_maximum_exit_2(k, eps, budget, capsys):
    assert run(["supersat", "--k", k, "--ns", "10,12", "--eps", eps]) == 2
    assert capsys.readouterr().err == (
        f"error: target {budget}*C(n,2) exceeds the all-rainbow maximum 2*C(n,2)\n"
    )
