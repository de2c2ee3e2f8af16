"""Command-line behavior: formats, exit codes, determinism."""
import contextlib
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringlab import cli
from ringlab.cli import _resolve_threads, main, parse_edge_list
from ringlab.core import core_report
from ringlab.graph import _MATCH_MIN_EDGES

TOY = """\
# three users, three rings
3 3
0 0
1 1
2 2
0 2
1 2
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- core ------------------------------------------------------------------------------


def test_core_toy_text(tmp_path, capsys):
    path = _write(tmp_path, "toy.txt", TOY)
    assert main(["core", path]) == 0
    out = capsys.readouterr().out
    assert "graph users=3 rings=3 edges=5" in out
    assert "removed_edge user=0 ring=2" in out
    assert "removed_edge user=1 ring=2" in out
    assert "deanonymised_rings count=3" in out
    assert "ring index=0 core_degree=1 deanonymised=true sole_user=0" in out


def test_core_toy_csv(tmp_path, capsys):
    path = _write(tmp_path, "toy.txt", TOY)
    assert main(["core", path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "ring_index,core_degree,deanonymised",
        "0,1,true",
        "1,1,true",
        "2,1,true",
    ]


@pytest.mark.parametrize("n_users", [2**63, 2**40])
def test_core_work_is_bounded_by_edges_not_header(tmp_path, capsys, n_users):
    # users in no ring take no memory: a header past int64 or RAM still runs
    path = _write(tmp_path, "wide.txt", f"{n_users} 1\n0 0\n")
    tracemalloc.start()
    try:
        code = main(["core", path, "--format", "csv"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out == "ring_index,core_degree,deanonymised\n0,1,true\n"
    assert peak < 2**20


def test_core_crlf_and_comments(tmp_path, capsys):
    path = _write(tmp_path, "crlf.txt", "2 2\r\n0 0\r\n# x\r\n\r\n1 1\r\n")
    assert main(["core", path]) == 0
    assert "graph users=2 rings=2 edges=2" in capsys.readouterr().out


def _seeded_core_input(seed=4, n_users=500, n_rings=450):
    """Edge list with distinct signers, 0-3 decoys per ring and one-member rings.

    A one-member ring pins its signer, so that user's decoy edges in other
    rings leave the core; the 50 users who sign nothing keep some of theirs.
    """
    gen = np.random.default_rng(seed)
    signers = gen.permutation(n_users)[:n_rings]
    lines = [f"{n_users} {n_rings}"]
    for r in range(n_rings):
        ring = {int(signers[r])}
        ring.update(int(u) for u in gen.integers(0, n_users, size=int(gen.integers(0, 4))))
        lines.extend(f"{u} {r}" for u in sorted(ring))
    return "\n".join(lines) + "\n"


# sha256 of `ringlab core` stdout on _seeded_core_input(), per --format.
CORE_GOLDEN_SHA256 = {
    "text": "d5f9abf48ac9f37c6685fbecc5915747733695dda9b84b6c61bc76ab2b9a8d7d",
    "csv": "2e60cee0a6ae49d4ba381aa75d7dc39f18fed19a2b22b473b19f5b3be4b363d2",
}


@pytest.mark.parametrize("fmt", sorted(CORE_GOLDEN_SHA256))
def test_core_output_golden(tmp_path, capsys, fmt):
    path = _write(tmp_path, "seeded.txt", _seeded_core_input())
    assert main(["core", path, "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "text":
        removed = int(out.splitlines()[2].split("removed=")[1])
        deanonymised = int(out.splitlines()[-1].split("count=")[1])
        assert removed > 0 and 0 < deanonymised < 450
    assert hashlib.sha256(out.encode()).hexdigest() == CORE_GOLDEN_SHA256[fmt]


def _reference_core_output(graph, report, fmt):
    """``ringlab core`` output built from the ``core_report`` fields, one line per row."""
    degrees = report.per_ring_core_degree
    deanon = dict(report.deanonymised_rings)
    if fmt == "csv":
        lines = ["ring_index,core_degree,deanonymised"]
        lines += [f"{r},{d},{'true' if r in deanon else 'false'}" for r, d in enumerate(degrees)]
        return "\n".join(lines) + "\n"
    lines = [
        "# seed 0",
        f"graph users={graph.n_users} rings={graph.n_rings} edges={graph.edge_count}",
        f"core edges={graph.edge_count - len(report.removed_edges)} "
        f"removed={len(report.removed_edges)}",
    ]
    lines += [f"removed_edge user={u} ring={r}" for u, r in sorted(report.removed_edges)]
    for r, d in enumerate(degrees):
        sole = f"true sole_user={deanon[r]}" if r in deanon else "false"
        lines.append(f"ring index={r} core_degree={d} deanonymised={sole}")
    lines.append(f"deanonymised_rings count={len(deanon)}")
    return "\n".join(lines) + "\n"


class _CountingOut(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_core_output_across_write_chunks(tmp_path, monkeypatch, fmt):
    # more rings than one write holds: the rows are written a chunk at a time
    # and equal the rows of the report, at the default chunk size and at one
    # that divides neither the rings nor the removed edges
    path = _write(tmp_path, "big.txt", _seeded_core_input(seed=13, n_users=2**13, n_rings=7500))
    graph = parse_edge_list(path)
    assert graph.n_rings > cli._ROWS_PER_WRITE
    report = core_report(graph)
    expected = _reference_core_output(graph, report, fmt)
    n_removed = len(report.removed_edges)
    assert n_removed > 1000
    for rows_per_write in (cli._ROWS_PER_WRITE, 1000):
        monkeypatch.setattr(cli, "_ROWS_PER_WRITE", rows_per_write)
        out = _CountingOut()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["core", path, "--format", fmt]) == 0
        assert out.getvalue() == expected
        # one write per header or closing line, one per chunk of rows
        writes = math.ceil(graph.n_rings / rows_per_write)
        if fmt == "csv":
            writes += 1
        else:
            writes += 4 + math.ceil(n_removed / rows_per_write)
        assert out.writes == writes


def test_core_empty_ring_exit3(tmp_path, capsys):
    path = _write(tmp_path, "empty.txt", "3 2\n0 0\n1 0\n")
    assert main(["core", path]) == 3
    assert "EmptyRing at ring 1" in capsys.readouterr().err


def test_core_unmatchable_exit3(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", "2 2\n0 0\n0 1\n")
    assert main(["core", path]) == 3


def test_core_unmatchable_past_hall_exit_exit3(tmp_path, capsys):
    # three rings touch three users, but rings 0 and 1 share their only member
    path = _write(tmp_path, "short.txt", "3 3\n0 0\n0 1\n1 2\n2 2\n")
    assert main(["core", path]) == 3
    captured = capsys.readouterr()
    assert "maximum matching has size 2 < 3 rings" in captured.err
    assert captured.out == ""


def test_core_parse_error_has_line_number(tmp_path, capsys):
    path = _write(tmp_path, "parse.txt", "3 3\n0 0\nnot numbers\n")
    assert main(["core", path]) == 2
    err = capsys.readouterr().err
    assert "parse.txt:3" in err


def test_core_bad_index_is_parse_diagnostic(tmp_path, capsys):
    path = _write(tmp_path, "range.txt", "2 2\n0 0\n5 1\n")
    assert main(["core", path]) == 2
    assert "range.txt:3: user index 5 outside [0, 2)" in capsys.readouterr().err


def test_core_duplicate_edge_names_its_line(tmp_path, capsys):
    path = _write(tmp_path, "d.txt", "2 2\n0 0\n1 1\n# the same edge again\n0 0\n")
    assert main(["core", path]) == 2
    assert "d.txt:5: duplicate edge (0, 0)" in capsys.readouterr().err


def test_core_non_utf8_names_its_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"2 1\n0 0\n\xff 0\n")
    assert main(["core", str(path)]) == 2
    assert "bad.txt:3: byte 0xff starts no valid UTF-8 sequence" in capsys.readouterr().err


def test_core_missing_file(tmp_path, capsys):
    assert main(["core", str(tmp_path / "nope.txt")]) == 2


def test_parse_edge_list_roundtrip(tmp_path):
    path = _write(tmp_path, "toy.txt", TOY)
    g = parse_edge_list(path)
    assert g.n_users == 3 and g.n_rings == 3 and g.edge_count == 5


# -- edge-list parsing against a line-by-line reference -------------------------------------

_REF_INTEGER = re.compile(r"[+-]?[0-9]+")


def _reference_parse(text):
    """The edge-list format read one line at a time, with Python ints.

    Returns ("graph", (n_users, n_rings, sorted members per ring)) or
    ("error", line number of the first bad line).
    """
    header, seen = None, set()
    for line_no, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or not all(_REF_INTEGER.fullmatch(p) for p in parts):
            return ("error", line_no)
        a, b = int(parts[0]), int(parts[1])
        if header is None:
            if a < 0 or b < 0:
                return ("error", line_no)
            header = (a, b)
        elif not (0 <= a < header[0] and 0 <= b < header[1]) or (a, b) in seen:
            return ("error", line_no)
        else:
            seen.add((a, b))
    if header is None:
        return ("error", 1)
    members = tuple(tuple(sorted(u for u, r in seen if r == ring)) for ring in range(header[1]))
    return ("graph", (header[0], header[1], members))


_FILLERS = ("", "  ", "\t", "# comment", " # 1 2", "#", "\t# x 3 4 5")
_EOLS = ("\n", "\r\n")


@st.composite
def _edge_files(draw):
    """A valid edge-list file as lines [lead, tokens, sep, trail, comment, eol];
    a filler line (blank or comment only) has no tokens."""
    n_users = draw(st.integers(1, 9))
    n_rings = draw(st.integers(0, n_users))
    pairs = [(u, r) for r in range(n_rings) for u in range(n_users)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=18)) if pairs else []
    lines = []
    for row in [(n_users, n_rings)] + edges:
        for _ in range(draw(st.integers(0, 2))):
            filler = draw(st.sampled_from(_FILLERS))
            lines.append(["", [], "", "", filler, draw(st.sampled_from(_EOLS))])
        tokens = [draw(st.sampled_from(["", "+"])) + str(v) for v in row]
        lines.append([
            draw(st.sampled_from(["", " ", "\t"])),
            tokens,
            draw(st.sampled_from([" ", "\t", "  ", " \t "])),
            draw(st.sampled_from(["", " ", "\t "])),
            draw(st.sampled_from(["", "# c", " #x 1"])),
            draw(st.sampled_from(_EOLS)),
        ])
    return lines


def _render(lines):
    return "".join(lead + sep.join(tokens) + trail + comment + eol
                   for lead, tokens, sep, trail, comment, eol in lines)


def _run_core(path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["core", path])
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(lines=_edge_files())
def test_parse_edge_list_matches_reference(tmp_path_factory, lines):
    path = str(tmp_path_factory.getbasetemp() / "property_ok.txt")
    text = _render(lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    kind, (n_users, n_rings, members) = _reference_parse(text)
    assert kind == "graph"
    g = parse_edge_list(path)
    assert (g.n_users, g.n_rings) == (n_users, n_rings)
    assert tuple(g.ring_members(r) for r in range(g.n_rings)) == members


_MUTATIONS = ("word", "third_column", "third_column_everywhere", "missing_header",
              "negative_header", "out_of_range", "repeat", "beyond_int64")


@settings(max_examples=300, deadline=None)
@given(lines=_edge_files(), kind=st.sampled_from(_MUTATIONS), data=st.data())
def test_parse_errors_match_reference(tmp_path_factory, lines, kind, data):
    data_lines = [line for line in lines if line[1]]
    edge_lines = data_lines[1:]
    if kind in ("out_of_range", "repeat", "beyond_int64"):
        assume(edge_lines)
    if kind == "word":
        line = data.draw(st.sampled_from(data_lines))
        word = data.draw(st.sampled_from(["x", "one", "1_0", "\u0663", "1.0", "0x1", "+-1", "--"]))
        line[1][data.draw(st.integers(0, 1))] = word
    elif kind == "third_column":
        data.draw(st.sampled_from(data_lines))[1].append("0")
    elif kind == "third_column_everywhere":
        for line in data_lines:
            line[1].append("0")
    elif kind == "missing_header":
        lines = [line for line in lines if not line[1]]
    elif kind == "negative_header":
        data_lines[0][1][data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(["-1", "-5"]))
    elif kind == "out_of_range":
        n_users, n_rings = (int(v) for v in data_lines[0][1])
        line = data.draw(st.sampled_from(edge_lines))
        field = data.draw(st.integers(0, 1))
        limit = (n_users, n_rings)[field]
        line[1][field] = str(data.draw(st.sampled_from([limit, limit + 3, -1, -7])))
    elif kind == "repeat":
        source = data.draw(st.sampled_from(edge_lines))
        at = next(i for i, line in enumerate(lines) if line is source)
        copy = [source[0], list(source[1]), *source[2:]]
        lines.insert(data.draw(st.integers(at + 1, len(lines))), copy)
    else:  # beyond_int64
        line = data.draw(st.sampled_from(edge_lines))
        value = data.draw(st.sampled_from([2**63, -(2**63) - 1, 10**30]))
        line[1][data.draw(st.integers(0, 1))] = str(value)
    text = _render(lines)
    expected = _reference_parse(text)
    assert expected[0] == "error"
    path = str(tmp_path_factory.getbasetemp() / "property_bad.txt")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    code, err = _run_core(path)
    assert code == 2
    assert f"{path}:{expected[1]}: " in err


# -- conjecture -------------------------------------------------------------------------


def test_conjecture_small_grid(tmp_path, capsys):
    out_csv = str(tmp_path / "grid.csv")
    rc = main(
        [
            "conjecture",
            "--k-min", "2", "--k-max", "3",
            "--n-min", "4", "--n-max", "8",
            "--trials", "400",
            "--seed", "5",
            "--out", out_csv,
            "--threads", "1",
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "# seed 5" in stdout
    assert "cells=4" in stdout
    with open(out_csv, "rb") as fh:
        data = fh.read()
    text = data.decode()
    assert text.startswith("model,k,n,p,trials,failures,estimate")
    assert len(text.splitlines()) == 1 + 2 * 4
    assert b"\r" not in data


# sha256 of the `ringlab conjecture` CSV for the grid below (n from 4 to 4096).
CONJECTURE_GOLDEN_SHA256 = "90749e3df6bac4bec3a6f0172bc279c6b53588cd5276bfe025de812fc17c18c7"


def test_conjecture_output_golden(tmp_path):
    out_csv = tmp_path / "grid.csv"
    rc = main(
        [
            "conjecture",
            "--k-min", "1", "--k-max", "8",
            "--n-min", "4", "--n-max", "4096",
            "--trials", "20",
            "--seed", "3",
            "--threads", "1",
            "--out", str(out_csv),
        ]
    )
    assert rc == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == CONJECTURE_GOLDEN_SHA256


def _conjecture(tmp_path, capsys, k_min, k_max, n_max):
    out_csv = tmp_path / "grid.csv"
    assert main([
        "conjecture",
        "--k-min", str(k_min), "--k-max", str(k_max),
        "--n-min", "4", "--n-max", str(n_max),
        "--trials", "2", "--seed", "1", "--threads", "1", "--out", str(out_csv),
    ]) == 0
    return capsys.readouterr().out.replace(str(out_csv), "OUT"), out_csv.read_bytes()


def test_conjecture_k_beyond_largest_n_costs_nothing(tmp_path, capsys, monkeypatch):
    # a cell needs k < n, so k >= n_max adds no cell and must not be held in memory
    monkeypatch.delenv("RING_LAB_THREADS", raising=False)
    small_out, small_csv = _conjecture(tmp_path, capsys, 1, 3, 4)
    tracemalloc.start()
    try:
        big = _conjecture(tmp_path, capsys, 1, 10**6, 4)
        empty = _conjecture(tmp_path, capsys, 9, 10**6, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert big == (small_out.replace("grid k=1..3 ", "grid k=1..1000000 "), small_csv)
    header = small_csv.split(b"\n")[0] + b"\n"
    assert empty == (
        "# seed 1\ngrid k=9..1000000 n=4..8 trials=2 cells=0\n"
        "conj1_violations 0\nconj2_violations 0\nwrote OUT\n",
        header,
    )


def test_conjecture_rejects_zero_trials(capsys):
    assert main(["conjecture", "--trials", "0"]) == 2


@pytest.mark.parametrize("argv", [
    ["core", "TOY"],
    ["conjecture", "--k-max", "2", "--n-max", "8", "--trials", "2"],
    ["simulate", "--users", "4", "--chunk-size", "2", "--k", "1", "--trials", "5"],
    ["recommend", "--users", "100"],
    ["entropy", "--chunk-size", "4", "--k", "1"],
])
def test_unwritable_out_is_a_usage_error_before_any_work(tmp_path, capsys, monkeypatch, argv):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid ran before the output was opened")

    monkeypatch.setattr("ringlab.cli.conj.check_conjectures_grid", no_grid)
    target = tmp_path / "missing" / "out.txt"
    argv = [_write(tmp_path, "toy.txt", TOY) if a == "TOY" else a for a in argv]
    assert main(argv + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cannot write {target}: ")
    assert captured.out == ""


def test_conjecture_byte_identical_across_threads(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "RING_LAB_THREADS"}
    outputs = []
    for threads in ("1", "3"):
        out_csv = tmp_path / f"grid_{threads}.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "ringlab", "conjecture",
                "--k-min", "1", "--k-max", "2",
                "--n-min", "4", "--n-max", "8",
                "--trials", "300",
                "--seed", "7",
                "--out", str(out_csv),
                "--threads", threads,
            ],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out_csv.read_bytes())
    assert outputs[0] == outputs[1]


# -- simulate ---------------------------------------------------------------------------


def test_simulate_biclique_rate(capsys):
    rc = main(
        [
            "simulate",
            "--users", "20", "--chunk-size", "4", "--k", "3",
            "--adversary", "trivial", "--trials", "4000", "--seed", "1",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    est = float(next(l for l in out.splitlines() if l.startswith("success")).split("estimate=")[1].split()[0])
    assert abs(est - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / 4000)
    mism = next(l for l in out.splitlines() if l.startswith("core_mismatch"))
    assert "estimate=0 " in mism


def test_simulate_beta_zero_matches_omitted(capsys):
    args = [
        "simulate", "--users", "12", "--chunk-size", "4", "--k", "2",
        "--adversary", "core", "--trials", "300", "--seed", "9",
    ]
    assert main(args) == 0
    without = capsys.readouterr().out
    assert main(args + ["--beta", "0"]) == 0
    with_zero = capsys.readouterr().out
    assert without == with_zero


def test_simulate_beta_campaign(capsys):
    rc = main(
        [
            "simulate",
            "--users", "12", "--chunk-size", "4", "--k", "1",
            "--adversary", "trivial", "--trials", "300",
            "--beta", "0.5", "--seed", "3",
        ]
    )
    assert rc == 0
    assert "beta=0.5" in capsys.readouterr().out


def test_simulate_flag_validation(capsys):
    base = ["simulate", "--users", "12", "--chunk-size", "5"]
    assert main(base + ["--k", "2"]) == 2  # 5 does not divide 12
    assert main(["simulate", "--users", "12", "--chunk-size", "4"]) == 2  # no --k/--p
    assert (
        main(["simulate", "--users", "12", "--chunk-size", "4", "--k", "4"]) == 2
    )  # k too big
    assert (
        main(
            [
                "simulate", "--users", "30", "--chunk-size", "5", "--k", "2",
                "--adversary", "matching_count",
            ]
        )
        == 2
    )  # over the exhaustive cap
    assert (
        main(
            ["simulate", "--users", "12", "--chunk-size", "4", "--k", "2", "--trials", "0"]
        )
        == 2
    )
    for beta in ("1.0", "-0.1"):
        assert (
            main(
                [
                    "simulate", "--users", "12", "--chunk-size", "4", "--k", "2",
                    "--beta", beta,
                ]
            )
            == 2
        )
        assert "need 0 <= --beta < 1" in capsys.readouterr().err


# Output bytes of ``ringlab simulate`` under stream layout 3: both README
# commands at reduced --trials, the binomial sampler, --beta, matching_count
# and --chunk-size 1.
@pytest.mark.parametrize(
    "argv, out",
    [
        ("--users 40 --chunk-size 4 --k 3 --adversary trivial --trials 2000",
         "# seed 0\n"
         "simulate users=40 chunk_size=4 sampler=regular k=3 adversary=trivial trials=2000 beta=0\n"
         "success trials=2000 successes=494 estimate=0.247 ci_low=0.22859583081 ci_high=0.266374230695\n"
         "core_mismatch trials=2000 mismatches=0 estimate=0 ci_low=0 ci_high=0.00191711760051\n"),
        ("--users 40 --chunk-size 8 --k 3 --adversary core --beta 0.25 --trials 1000",
         "# seed 0\n"
         "simulate users=40 chunk_size=8 sampler=regular k=3 adversary=core trials=1000 beta=0.25\n"
         "success trials=1000 successes=262 estimate=0.262 ci_low=0.235693466154 ci_high=0.290128137573\n"
         "core_mismatch trials=1000 mismatches=558 estimate=0.558 ci_low=0.527055080616 ci_high=0.588500999148\n"),
        ("--users 12 --chunk-size 4 --p 0.3 --adversary core --trials 500 --seed 2",
         "# seed 2\n"
         "simulate users=12 chunk_size=4 sampler=binomial p=0.3 adversary=core trials=500 beta=0\n"
         "success trials=500 successes=500 estimate=1 ci_low=0.992375381469 ci_high=1\n"
         "core_mismatch trials=500 mismatches=500 estimate=1 ci_low=0.992375381469 ci_high=1\n"),
        ("--users 12 --chunk-size 4 --k 2 --adversary core --beta 0.5 --trials 500 --seed 3",
         "# seed 3\n"
         "simulate users=12 chunk_size=4 sampler=regular k=2 adversary=core trials=500 beta=0.5\n"
         "success trials=500 successes=164 estimate=0.328 ci_low=0.288295488973 ci_high=0.370327379802\n"
         "core_mismatch trials=500 mismatches=195 estimate=0.39 ci_low=0.348240583905 ci_high=0.433436832172\n"),
        ("--users 9 --chunk-size 9 --p 0.2 --adversary matching_count --trials 200 --seed 4",
         "# seed 4\n"
         "simulate users=9 chunk_size=9 sampler=binomial p=0.2 adversary=matching_count trials=200 beta=0\n"
         "success trials=200 successes=199 estimate=0.995 ci_low=0.97222560013 ci_high=0.999116854011\n"
         "core_mismatch trials=200 mismatches=190 estimate=0.95 ci_low=0.910420943702 ci_high=0.972617650971\n"),
        ("--users 6 --chunk-size 3 --k 1 --adversary matching_count --beta 0.5 --trials 100 --seed 5",
         "# seed 5\n"
         "simulate users=6 chunk_size=3 sampler=regular k=1 adversary=matching_count trials=100 beta=0.5\n"
         "success trials=100 successes=51 estimate=0.51 ci_low=0.413478404774 ci_high=0.605781699076\n"
         "core_mismatch trials=100 mismatches=95 estimate=0.95 ci_low=0.888248034728 ci_high=0.978456638544\n"),
        ("--users 8 --chunk-size 1 --k 0 --adversary core --trials 100 --seed 6",
         "# seed 6\n"
         "simulate users=8 chunk_size=1 sampler=regular k=0 adversary=core trials=100 beta=0\n"
         "success trials=100 successes=100 estimate=1 ci_low=0.963005192524 ci_high=1\n"
         "core_mismatch trials=100 mismatches=0 estimate=0 ci_low=0 ci_high=0.036994807476\n"),
        ("--users 16 --chunk-size 4 --p 1 --adversary trivial --trials 300 --seed 7",
         "# seed 7\n"
         "simulate users=16 chunk_size=4 sampler=binomial p=1 adversary=trivial trials=300 beta=0\n"
         "success trials=300 successes=74 estimate=0.246666666667 ci_low=0.201293033786 ci_high=0.29844630408\n"
         "core_mismatch trials=300 mismatches=0 estimate=0 ci_low=0 ci_high=0.0126434299977\n"),
        ("--users 30 --chunk-size 10 --p 0 --adversary core --beta 0.3 --trials 50 --seed 8",
         "# seed 8\n"
         "simulate users=30 chunk_size=10 sampler=binomial p=0 adversary=core trials=50 beta=0.3\n"
         "success trials=50 successes=50 estimate=1 ci_low=0.928649965826 ci_high=1\n"
         "core_mismatch trials=50 mismatches=0 estimate=0 ci_low=0 ci_high=0.0713500341743\n"),
    ],
)
def test_simulate_output_bytes(capsys, argv, out):
    assert main(["simulate", *argv.split()]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, "")


@pytest.mark.parametrize(
    "argv",
    [
        "simulate --users 4294967296 --chunk-size 4294967296 --k 1",
        "simulate --users 4096 --chunk-size 2048 --k 1",
        "conjecture --n-min 1073741824 --n-max 1073741824",
        "conjecture --k-max 1024 --n-min 8192 --n-max 8192",
        "entropy --chunk-size 1099511627776 --k 3",
    ],
)
def test_instance_cap_rejects_before_allocating(capsys, argv):
    # the check runs before any partition or array is built, so even the
    # 2^32-user request exits at once
    tracemalloc.start()
    try:
        assert main(argv.split()) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the instance cap of 4194304" in captured.err


def test_instance_cap_admits_its_edge(capsys):
    assert main("simulate --users 2048 --chunk-size 2048 --k 1 --trials 1".split()) == 0


# -- recommend ---------------------------------------------------------------------------


def test_recommend_reference_output(capsys):
    assert main(["recommend", "--users", "18446744073709551616"]) == 0
    out = capsys.readouterr().out
    assert "k_closed_form 55" in out
    assert "security 2/56 = " in out
    assert f"{2/56:.12g}" in out


def test_recommend_beta_domain_error(capsys):
    assert main(["recommend", "--users", "2", "--beta", "0.99"]) == 2


def test_recommend_beta_zero_same_as_omitted(capsys):
    assert main(["recommend", "--users", "1000000"]) == 0
    plain = capsys.readouterr().out
    assert main(["recommend", "--users", "1000000", "--beta", "0"]) == 0
    zero = capsys.readouterr().out
    k_plain = next(l for l in plain.splitlines() if l.startswith("k_closed_form"))
    k_zero = next(l for l in zero.splitlines() if l.startswith("k_closed_form"))
    assert k_plain == k_zero


def test_recommend_with_chunks(capsys):
    assert main(
        ["recommend", "--users", "1048576", "--chunks", "16", "--chunk-size", "65536"]
    ) == 0
    out = capsys.readouterr().out
    assert "k_numeric" in out


def test_recommend_infeasible_chunks(capsys):
    assert main(
        ["recommend", "--users", "16", "--chunks", "4", "--chunk-size", "4"]
    ) == 0
    assert "k_numeric infeasible" in capsys.readouterr().out


def test_recommend_csv(capsys):
    assert main(["recommend", "--users", "18446744073709551616", "--csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "users,beta,n_chunks,chunk_size,k_closed_form,k_numeric,security"
    fields = lines[1].split(",")
    assert fields[0] == "18446744073709551616" and fields[4] == "55"


def test_recommend_requires_paired_chunk_flags(capsys):
    assert main(["recommend", "--users", "100", "--chunks", "2"]) == 2


_CLOSED_FORM_ERROR = "effective user count 2*(1-beta)*|U| <= 1 for beta=0.99, users=2\n"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        ("--users 18446744073709551616", 0,
         "# seed 0\nrecommend users=18446744073709551616 beta=0\nk_closed_form 55\n"
         "security 2/56 = 0.0357142857143\n", ""),
        ("--users 18446744073709551616 --csv", 0,
         "users,beta,n_chunks,chunk_size,k_closed_form,k_numeric,security\n"
         "18446744073709551616,0,,,55,,0.0357142857143\n", ""),
        ("--users 1000 --beta 0.5", 0,
         "# seed 0\nrecommend users=1000 beta=0.5\n"
         "k_closed_form 22 (heuristic corrupted-user adjustment)\n"
         "security 2/23 = 0.0869565217391\n", ""),
        ("--users 1048576 --chunks 16 --chunk-size 65536", 0,
         "# seed 0\nrecommend users=1048576 beta=0\nk_closed_form 20\n"
         "security 2/21 = 0.0952380952381\nchunks n_chunks=16 chunk_size=65536\n"
         "k_numeric 18\n", ""),
        ("--users 1048576 --chunks 16 --chunk-size 65536 --csv", 0,
         "users,beta,n_chunks,chunk_size,k_closed_form,k_numeric,security\n"
         "1048576,0,16,65536,20,18,0.0952380952381\n", ""),
        ("--users 16 --chunks 4 --chunk-size 4", 0,
         "# seed 0\nrecommend users=16 beta=0\nk_closed_form 7\nsecurity 2/8 = 0.25\n"
         "chunks n_chunks=4 chunk_size=4\nk_numeric infeasible\n", ""),
        ("--users 16 --chunks 4 --chunk-size 4 --csv", 0,
         "users,beta,n_chunks,chunk_size,k_closed_form,k_numeric,security\n"
         "16,0,4,4,7,infeasible,0.25\n", ""),
        # a chunk count beyond float range is compared in log space
        (f"--users 10 --chunks {10**400} --chunk-size 8", 0,
         "# seed 0\nrecommend users=10 beta=0\nk_closed_form 6\nsecurity 2/7 = 0.285714285714\n"
         f"chunks n_chunks={10**400} chunk_size=8\nk_numeric infeasible\n", ""),
        ("--users 16 --chunks 16 --chunk-size 1", 2, "", "need chunk_size >= 2, got 1\n"),
        ("--users 2 --beta 0.99", 2, "", _CLOSED_FORM_ERROR),
        # the closed form is checked before the chunk geometry
        ("--users 2 --beta 0.99 --chunks 2 --chunk-size 1", 2, "", _CLOSED_FORM_ERROR),
        ("--users 2 --beta 0.99 --chunks 4 --chunk-size 4", 2, "", _CLOSED_FORM_ERROR),
    ],
)
def test_recommend_output_bytes(capsys, argv, code, out, err):
    assert main(["recommend", *argv.split()]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


# -- entropy -----------------------------------------------------------------------------


def test_entropy_regular_exact(capsys):
    assert main(["entropy", "--chunk-size", "8", "--k", "3", "--exact"]) == 0
    out = capsys.readouterr().out
    exact_line = next(l for l in out.splitlines() if l.startswith("alpha_exact_nats"))
    bound_line = next(l for l in out.splitlines() if l.startswith("alpha_bound_nats"))
    exact = float(exact_line.split()[1])
    bound = float(bound_line.split()[1])
    assert exact == pytest.approx(math.log(4), abs=1e-10)
    assert bound == pytest.approx(math.log(3), abs=1e-10)
    assert bound <= exact


def test_entropy_binomial_bound_k_selection(capsys):
    assert main(["entropy", "--chunk-size", "8", "--p", "0.5", "--exact"]) == 0
    out = capsys.readouterr().out
    assert "(k=3)" in out  # largest k with k < p * chunk_size = 4


def test_entropy_exact_of_certain_signer_is_positive_zero(capsys):
    # p = 0 gives rings of one member: the sum is exactly 1 and alpha is +0
    assert main(["entropy", "--chunk-size", "8", "--p", "0", "--exact"]) == 0
    out = capsys.readouterr().out
    assert "alpha_exact_nats 0\n" in out


def test_entropy_weights_file(tmp_path, capsys):
    path = _write(tmp_path, "w.txt", "# skewed\n0.4\n0.3\n0.2\n0.1\n")
    assert main(["entropy", "--chunk-size", "4", "--k", "2", "--weights", path, "--exact"]) == 0
    out = capsys.readouterr().out
    assert "alpha_exact_nats" in out


def test_entropy_weights_file_errors(tmp_path, capsys):
    bad = _write(tmp_path, "bad.txt", "0.5\nnope\n")
    assert main(["entropy", "--chunk-size", "2", "--k", "1", "--weights", bad]) == 2
    assert "bad.txt:2" in capsys.readouterr().err
    short = _write(tmp_path, "short.txt", "0.5\n0.5\n")
    assert main(["entropy", "--chunk-size", "4", "--k", "1", "--weights", short]) == 2


def test_entropy_weights_non_utf8_names_its_line(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_bytes(b"# weights\r\n0.5\r\n0.\xc3\r\n")
    assert main(["entropy", "--chunk-size", "2", "--k", "1", "--weights", str(path)]) == 2
    assert "w.txt:3: byte 0xc3 starts no valid UTF-8 sequence" in capsys.readouterr().err


def test_entropy_flag_validation(capsys):
    assert main(["entropy", "--chunk-size", "8"]) == 2
    assert main(["entropy", "--chunk-size", "8", "--k", "3", "--p", "0.5"]) == 2
    assert main(["entropy", "--chunk-size", "8", "--k", "8"]) == 2


# -- plumbing ----------------------------------------------------------------------------


def test_threads_env_override(monkeypatch):
    monkeypatch.setenv("RING_LAB_THREADS", "5")
    assert _resolve_threads(2) == 5
    monkeypatch.setenv("RING_LAB_THREADS", "garbage")
    assert _resolve_threads(2) == 2
    monkeypatch.delenv("RING_LAB_THREADS")
    assert _resolve_threads(3) == 3
    assert _resolve_threads(None) >= 1


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.txt"
    path = _write(tmp_path, "toy.txt", TOY)
    assert main(["core", path, "--out", str(target)]) == 0
    assert "deanonymised_rings count=3" in target.read_text()


@pytest.mark.parametrize("text, argv, code, stderr", [
    pytest.param(
        "2 1\n0 0\n0 7\n", ["core", "{bad}"], 2,
        "parse error: {bad}:3: ring index 7 outside [0, 1)\n", id="ring_out_of_range",
    ),
    pytest.param(
        "2 2\n0 0\n0 1\n", ["core", "{bad}"], 3,
        "2 rings have only 1 distinct members\n", id="no_covering_matching",
    ),
    pytest.param(
        None, ["simulate", "--users", "8", "--chunk-size", "4", "--k", "1", "--trials", "0"], 2,
        "--trials must be >= 1\n", id="bad_flag",
    ),
    pytest.param(
        "0.5\nabc\n", ["entropy", "--chunk-size", "2", "--k", "1", "--weights", "{bad}"], 2,
        "parse error: {bad}:2: expected a number, got 'abc'\n", id="malformed_weights",
    ),
    pytest.param(
        None, ["core", "{bad}"], 2,
        "cannot read {bad}: [Errno 2] No such file or directory: '{bad}'\n", id="unreadable_input",
    ),
    pytest.param(
        None, ["recommend", "--users", "2", "--beta", "0.99"], 2, _CLOSED_FORM_ERROR,
        id="library_error",
    ),
])
def test_failed_run_keeps_the_previous_out_file(tmp_path, capsys, text, argv, code, stderr):
    target = tmp_path / "prev.txt"
    target.write_bytes(b"previous output\r\n")
    bad = str(tmp_path / "bad.txt")
    if text is not None:
        _write(tmp_path, "bad.txt", text)
    assert main([arg.format(bad=bad) for arg in argv] + ["--out", str(target)]) == code
    assert capsys.readouterr() == ("", stderr.format(bad=bad))
    assert target.read_bytes() == b"previous output\r\n"
    left = sorted(p.name for p in tmp_path.iterdir())
    assert left == (["prev.txt"] if text is None else ["bad.txt", "prev.txt"])


def test_out_through_a_symlink_is_written_in_place(tmp_path):
    # like /dev/stdout, a symlink is not replaced: its target is written
    target = tmp_path / "real.txt"
    target.write_text("previous output\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert main(["recommend", "--users", "100", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert "k_closed_form" in target.read_text()


def test_unknown_command_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main reuses the parser that build_parser made at its first call; each
    # output must equal that of the same call on a freshly built parser
    path = _write(tmp_path, "seeded.txt", _seeded_core_input())
    csv_out = str(tmp_path / "core.csv")
    argvs = [
        ["core", path, "--format", "csv", "--out", csv_out],
        ["core", path, "--seed", "5"],
        ["core", path],
        ["entropy", "--chunk-size", "6", "--k", "2", "--exact"],
        ["entropy", "--chunk-size", "6", "--k", "2"],
        ["recommend", "--users", "100", "--beta", "0.5"],
        ["recommend", "--users", "100"],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        with open(csv_out, encoding="utf-8") as fh:
            return code, captured.out, captured.err, fh.read()

    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    cli.build_parser.cache_clear()
    shared = [run(argv) for argv in argvs]
    assert cli.build_parser.cache_info().misses == 1
    assert shared == fresh
    assert shared[1][1].startswith("# seed 5\n") and shared[2][1].startswith("# seed 0\n")
    assert "alpha_exact_nats" in shared[3][1] and "alpha_exact_nats" not in shared[4][1]
    assert "heuristic" in shared[5][1] and "heuristic" not in shared[6][1]


def test_import_builds_no_parser():
    # the parser is built at the first main call, so an import does not pay for it
    code = "import ringlab.cli; print(ringlab.cli.build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_import_pulls_in_neither_scipy_nor_mpmath():
    # scipy's import costs start-up time and memory; mpmath is not a declared
    # dependency.  Both are often installed, so only a fresh interpreter shows
    # whether the package imports them.
    code = (
        "import sys, ringlab, ringlab.cli; "
        "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_core_run_at_scale_imports_neither_numpy_ma_nor_scipy(tmp_path):
    # a 2^12-user edge list is past the matching's switch to numpy rounds;
    # a plain np.unique call there would import numpy.ma, which costs start-up
    # time and memory.  Only the modules the run adds count, as in
    # test_core_run_imports_no_numpy_ma.  Both formats run: the text sorts
    # the removed edges.
    text = _seeded_core_input(seed=12, n_users=2**12, n_rings=3840)
    assert text.count("\n") - 1 >= _MATCH_MIN_EDGES
    path = _write(tmp_path, "edges.txt", text)
    for fmt in ("csv", "text"):
        out = str(tmp_path / f"core.{fmt}")
        code = (
            "import sys, ringlab.cli; before = set(sys.modules); "
            f"status = ringlab.cli.main(['core', {path!r}, '--format', {fmt!r}, '--out', {out!r}]); "
            "print(status, sorted({'numpy.ma', 'scipy'} & (set(sys.modules) - before)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 []\n", fmt


def test_import_pulls_in_no_process_pool():
    # only ``--threads`` above 1 makes a process pool; a serial run should not
    # pay for loading concurrent.futures and multiprocessing at import
    code = (
        "import sys, ringlab, ringlab.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_core_run_imports_no_numpy_ma(tmp_path):
    # numpy imports numpy.ma on the first np.unique call, which raises the
    # memory of a ``core`` run; comparing the modules before and after the
    # call keeps the test valid where numpy imports numpy.ma at start-up
    path = _write(tmp_path, "edges.txt", "4 3\n0 0\n1 0\n1 1\n2 1\n0 2\n2 2\n3 2\n")
    out = str(tmp_path / "core.csv")
    code = (
        "import sys, ringlab.cli; before = set(sys.modules); "
        f"status = ringlab.cli.main(['core', {path!r}, '--format', 'csv', '--out', {out!r}]); "
        "print(status, 'numpy.ma' in set(sys.modules) - before)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False\n"
