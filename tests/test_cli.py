"""Command-line behavior: formats, pipelines, exit codes, goldens."""

import contextlib
import gc
import hashlib
import io
import json
import operator
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nquasigroups import (analysis, census, cli, commands, core, shells,
                          tableio)
from nquasigroups import constructions as C

from capped import run_capped
from oracles import reference_build_parser, reference_read_table
from test_package import source_tokens

GOLDEN = Path(__file__).parent / "golden"
SRC_PACKAGE = Path(__file__).parent.parent / "src" / "nquasigroups"


# runs cli.run on the child's argv and prints the exit code and stdout,
# after run_capped's resource caps
CAPPED_CLI = (
    "import contextlib, io, sys\n"
    "from nquasigroups import cli\n"
    "out = io.StringIO()\n"
    "with contextlib.redirect_stdout(out):\n"
    "    code = cli.run(sys.argv[1:])\n"
    "print(code, out.getvalue())\n")


def child_env():
    """The environment of a child interpreter that imports this tree's
    package."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).parent.parent / "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def feed_stdin(monkeypatch, text):
    # a text layer over bytes, as a process's stdin has: tables are read
    # from its buffer
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(text.encode()), encoding="utf-8"))


class TestValidate:
    def test_ok_json(self, capsys, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(tableio.to_json(C.fixture("Q62")))
        code, out, err = run_cli(capsys, "validate", str(p))
        assert code == 0
        assert json.loads(out) == {"ok": True}

    def test_text_from_stdin(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, "0 1\n1 0\n")
        code, out, _ = run_cli(capsys, "validate", "-")
        assert code == 0 and json.loads(out) == {"ok": True}

    def test_latin_violation_exit_1(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, "0 1\n0 1\n")
        code, out, _ = run_cli(capsys, "validate", "-")
        assert code == 1
        obj = json.loads(out)
        assert obj["ok"] is False
        assert obj["violations"][0] == {"axis": 1, "fixed": [None, 0]}

    def test_structural_error_to_stderr(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, "0 9\n1 0\n")
        code, out, err = run_cli(capsys, "validate", "-")
        assert code == 1 and out == "" and "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "validate", "/does/not/exist")
        assert code == 1 and err


@st.composite
def table_files(draw):
    """The bytes of a table file: compact, spaced or indented JSON, or the
    k-line text form, of a small table, with up to three drawn edits:
    CRLF or lone-CR line ends, whitespace around it, a non-ASCII extra
    key, a raw CRLF in a string, a multi-digit value, a misplaced comma,
    a missing "]}", a BOM, an invalid UTF-8 byte."""
    k = draw(st.integers(1, 12))
    n = draw(st.integers(1, 3 if k < 5 else 2))
    t = core.QTable(n, k, draw(st.lists(
        st.integers(0, k - 1), min_size=k ** n, max_size=k ** n)))
    form = draw(st.sampled_from(("compact", "spaced", "indented", "text")))
    if form == "text" and n == 2:
        text = tableio.to_text(t)
    elif form == "indented":
        text = json.dumps(tableio.to_json_obj(t), indent=1)
    else:
        text = tableio.to_json(t, *[(",", ":")] * (form == "compact"))
        text += draw(st.sampled_from(("\n", "")))
    for edit in draw(st.lists(st.sampled_from((
            "crlf", "cr", "around", "key", "raw-crlf", "multi-digit",
            "comma", "unclosed", "bom", "invalid")), max_size=3)):
        if edit == "crlf":
            text = text.replace("\n", "\r\n")
        elif edit == "cr":
            text = text.replace("\n", "\r")
        elif edit == "around":
            ws = st.text(" \t\r\n", max_size=3)
            text = draw(ws) + text + draw(ws)
        elif edit in ("key", "raw-crlf"):
            key = '"cl\u00e9":1,' if edit == "key" else '"x":"\r\n",'
            text = text.replace("{", "{" + key, 1)
        elif edit == "multi-digit" and "[" in text:
            i = text.index("[") + 1
            text = text[:i] + draw(st.sampled_from(("10", "12", "007"))) \
                + text[i + 1:]
        elif edit == "comma" and "," in text:
            i = draw(st.sampled_from(
                [i for i, c in enumerate(text) if c == ","][-4:]))
            text = text[:i] + text[i + 1:i + 2] + "," + text[i + 2:]
        elif edit == "unclosed":
            text = text.rstrip()[:-2]
        elif edit == "bom":
            text = "\ufeff" + text
        elif edit == "invalid":
            i = draw(st.integers(0, len(text)))
            # a lone surrogate encodes (surrogateescape) as a bad byte
            text = text[:i] + draw(st.sampled_from(("\udcff", "\udcc3"))) \
                + text[i:]
    return text.encode("utf-8", "surrogateescape")


def read_outcome(read, path):
    """The table read, or the type and text of the error that nqg reports
    with exit code 1 as "error: <text>"."""
    try:
        t = read(path)
    except (ValueError, OSError) as e:
        return type(e).__name__, str(e)
    return t.arity, t.order, t.values.obj


def pipe_stdin(data, errors):
    """A text stream over a real pipe holding data, built as a process's
    stdin is on POSIX: UTF-8, errors, no newline translation."""
    r, w = os.pipe()
    with open(w, "wb") as fh:
        fh.write(data)
    return io.TextIOWrapper(open(r, "rb"), encoding="utf-8", errors=errors,
                            newline="\n")


# validate through cli with commands._read_table replaced by the oracle,
# as nqg validated before tables were read as bytes
REFERENCE_VALIDATE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from nquasigroups import cli, commands\n"
    "from oracles import reference_read_table\n"
    "commands._read_table = reference_read_table\n"
    "sys.argv[1:] = ['validate', '-']\n"
    "cli.main()\n")


class TestReaderAgainstTextMode:
    """commands._read_table reads bytes; every text gives the table, or
    the error, that the text-mode read gave (reference_read_table)."""

    @given(data=table_files(), errors=st.sampled_from(
        ("strict", "surrogateescape")))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_file_and_pipe(self, tmp_path, data, errors):
        path = tmp_path / "t.json"
        path.write_bytes(data)
        assert read_outcome(commands._read_table, str(path)) \
            == read_outcome(reference_read_table, str(path))
        outcomes = []
        saved = sys.stdin
        for read in (commands._read_table, reference_read_table):
            sys.stdin = pipe_stdin(data, errors)
            try:
                outcomes.append(read_outcome(read, "-"))
            finally:
                sys.stdin.close()
                sys.stdin = saved
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("data", [
        b'{"arity":2,"order":2,"values":[0,1,1,0]}\r\n',
        b'{"arity":2,\r\n"order":2,"values":[0,1,1,0],"x":"\r\n"}',
        b'\xef\xbb\xbf{"arity":2,"order":2,"values":[0,1,1,0]}',
        b"0 1\r1 0\r", b"\xff", b'{"arity":2,"cl\xc3\xa9":[}'],
        ids=["crlf", "raw-crlf", "bom", "lone-cr", "invalid", "non-ascii"])
    @pytest.mark.parametrize("codec", ["utf-8:strict",
                                       "utf-8:surrogateescape"])
    def test_real_process(self, data, codec):
        # a real nqg process and the reference, each on a real pipe
        env = dict(child_env(), PYTHONIOENCODING=codec)
        new, ref = (subprocess.run(argv, input=data, env=env,
                                   capture_output=True, timeout=120)
                    for argv in ([sys.executable, "-m", "nquasigroups.cli",
                                  "validate", "-"],
                                 [sys.executable, "-c", REFERENCE_VALIDATE,
                                  str(Path(__file__).parent)]))
        assert (new.returncode, new.stdout, new.stderr) \
            == (ref.returncode, ref.stdout, ref.stderr)


def slice_edge_file(count, last=None):
    """Compact JSON of an arity-1 table of count cells, digits cycling
    below min(count, 10); last, when given, replaces the last value's
    digit."""
    digits = [str(i % min(count, 10)) for i in range(count)]
    if last is not None:
        digits[-1] = last
    return ('{"arity":1,"order":%d,"values":[%s]}\n'
            % (count, ",".join(digits))).encode()


def json_outcome(data):
    """The table json.loads and from_json_obj read from data, or the type
    and text of the error from_json_obj raises."""
    try:
        t = tableio.from_json_obj(json.loads(data))
    except ValueError as e:
        return type(e).__name__, str(e)
    return t.arity, t.order, t.values.obj


class TestInPlaceRead:
    """The file read compacts its own buffer in place, _SLICE digits at a
    time; every slice edge reads as the text-mode reader reads it."""

    SLICE = core._SLICE
    COUNTS = [1, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE - 1, 2 * SLICE,
              2 * SLICE + 1]

    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("last", [None, "10", "x", " "],
                             ids=["compact", "two-digit", "letter", "space"])
    def test_slice_edges(self, tmp_path, count, last):
        # past 256 cells the order is refused, after the read, alike
        data = slice_edge_file(count, last)
        path = tmp_path / "t.json"
        path.write_bytes(data)
        got = read_outcome(commands._read_table, str(path))
        assert got == read_outcome(reference_read_table, str(path))
        if last in (None, "10"):  # JSON: json.loads reads it alike
            assert got == json_outcome(data)
        # stdin is read 2^16 bytes at a time; a pipe would hold less
        saved = sys.stdin
        sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                     newline="\n")
        try:
            assert read_outcome(commands._read_table, "-") == got
        finally:
            sys.stdin = saved

    @pytest.mark.parametrize("count", COUNTS)
    def test_compacted_in_place(self, monkeypatch, count):
        # the buffer itself, cut to the symbols, is what the table gets
        monkeypatch.setattr(tableio, "QTable", lambda n, k, buf: buf)
        data = bytearray(slice_edge_file(count))
        found = tableio._compact(data)
        assert found[:2] == (1, count)
        assert tableio._table(data, *found) is data
        assert data == bytes(i % min(count, 10) for i in range(count))

    @pytest.mark.parametrize("count", COUNTS[1:])
    def test_refused_buffer_left_whole(self, count):
        # a bad digit in the last slice is found before any slice is
        # compacted, so the fallback decodes the bytes as they were read
        data = bytearray(slice_edge_file(count, "x"))
        kept = bytes(data)
        assert tableio._compact(data) is None
        assert data == kept

    @pytest.mark.parametrize("n,k", [(14, 2), (15, 2), (6, 5), (9, 3)],
                             ids=["2^14", "2^15", "5^6", "3^9"])
    def test_tables_at_and_across_slices(self, tmp_path, n, k):
        t = core.iterate(core.from_function(2, k, lambda x, y: (x + y) % k),
                         n - 1)
        path = tmp_path / "t.json"
        path.write_text(tableio.to_json(t, (",", ":")) + "\n")
        assert commands._read_table(str(path)) == t
        assert json_outcome(path.read_bytes())[2] == t.values.obj


class TestClosedStdin:
    """Every table command given - with standard input closed refuses
    with exit code 1 and one line, not a traceback."""

    ARGVS = [["validate", "-"], ["eval", "-", "0", "0"],
             ["analyze", "-", "--reductions"],
             ["components", "-", "--pair", "0,1"],
             ["components", "-", "--pair", "0,1", "--switch", "0"],
             ["reconstruct", "-"]]

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_in_process(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("sys.stdin", None)
        assert run_cli(capsys, *argv) == (
            1, "", "error: cannot read -: standard input is closed\n")

    @pytest.mark.parametrize("argv", [ARGVS[0], ARGVS[-1]], ids=" ".join)
    def test_real_process(self, argv):
        done = subprocess.run(
            [sys.executable, "-m", "nquasigroups.cli", *argv],
            env=child_env(), capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: os.close(0))
        assert (done.returncode, done.stdout, done.stderr) == (
            1, "", "error: cannot read -: standard input is closed\n")


class TestStrictTableJson:
    @pytest.mark.parametrize("text", [
        '{"arity":2,"order":2,"values":[0.9,1.2,1,0]}',
        '{"arity":2,"order":2,"values":[false,true,true,false]}',
        '{"arity":true,"order":2,"values":[0,1]}',
        '{"arity":2,"order":"2","values":[0,1,1,0]}',
        '{"arity":2,"order":2,"values":[0,1,1]}',
    ])
    def test_rejected_exit_1(self, capsys, monkeypatch, text):
        feed_stdin(monkeypatch, text)
        code, out, err = run_cli(capsys, "validate", "-")
        assert code == 1 and out == "" and "error" in err

    def test_integer_values_accepted(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, '{"arity":2,"order":2,"values":[0,1,1,0]}')
        code, out, _ = run_cli(capsys, "validate", "-")
        assert code == 0 and json.loads(out) == {"ok": True}


class TestEval:
    def test_fixture_cell(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, tableio.to_json(C.fixture("Q72")))
        code, out, _ = run_cli(capsys, "eval", "-", "2", "4")
        assert code == 0 and json.loads(out) == {"value": 6}

    def test_bad_coordinate(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, tableio.to_json(C.fixture("Q42")))
        code, _, err = run_cli(capsys, "eval", "-", "9", "0")
        assert code == 1 and err


class TestConstruct:
    def test_fixture_matches_golden_json(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--fixture", "Q72")
        assert code == 0
        assert out == (GOLDEN / "q72.json").read_text()
        obj = json.loads(out)
        assert core.is_valid(tableio.from_json_obj(obj))

    def test_fixture_pretty_golden_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--fixture", "Q72",
                               "--pretty")
        assert code == 0
        assert out == (GOLDEN / "q72_pretty.txt").read_text()

    def test_qkr_pipe_validate(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "construct", "--qkr", "9", "4")
        assert code == 0
        feed_stdin(monkeypatch, out)
        code, out, _ = run_cli(capsys, "validate", "-")
        assert code == 0 and json.loads(out) == {"ok": True}

    def test_closed_emits_reparsable_table(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--closed", "3", "6", "2")
        t = tableio.from_json(out)
        assert code == 0 and t.arity == 3 and core.is_valid(t)

    def test_closed9_written_in_pieces_golden_sha256(self, tmp_path):
        # 5^9 cells, 30 pieces, through a real stdout: the bytes nqg wrote
        # in one piece before
        out = tmp_path / "c9.json"
        with open(out, "w") as fh, contextlib.redirect_stdout(fh):
            assert cli.run(["construct", "--closed", "9", "5", "2"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "85d8a01d2bdc20e4476f13711c0a2e0de49b25c31e982d5c4efc5f722f8614b4")

    def test_counterexample_object(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--counterexample")
        obj = json.loads(out)
        assert set(obj) == {"q", "f", "loop"}
        assert core.is_valid(tableio.from_json_obj(obj["loop"]))

    def test_counterexample_golden_sha256(self, capsys):
        # the loop, q and f of `nqg construct --counterexample`, byte for byte
        code, out, _ = run_cli(capsys, "construct", "--counterexample")
        golden = (GOLDEN / "counterexample_k5.sha256").read_text()
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == golden.strip()

    def test_family_object(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--family5", "3")
        obj = json.loads(out)
        assert obj["claimed_log2"] == 3
        assert sorted(len(c["cells"]) for c in obj["components"]) == [8, 12, 30]
        assert core.is_valid(tableio.from_json_obj(obj["base"]))

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--qkr", "6", "2")
        assert code == 1 and "build_closed" in err

    @pytest.mark.parametrize("argv", [
        ["--closed", "14", "10", "2"], ["--family-k", "30", "7"],
        ["--irreducible", "12", "9"]])
    def test_construct_over_build_budget_exit_1(self, argv):
        # 10^14, 7^30 and 9^12 cells: refused before any allocation
        done = run_capped(
            "import sys, time\n"
            "from nquasigroups import cli\n"
            "t0 = time.perf_counter()\n"
            "code = cli.run(['construct'] + sys.argv[1:])\n"
            "print('exit', code, time.perf_counter() - t0, file=sys.stderr)\n",
            *argv)
        assert done.returncode == 0 and done.stdout == ""
        *err, last = done.stderr.splitlines()
        word, code, seconds = last.split()
        assert word == "exit" and code == "1" and float(seconds) < 1.0
        assert len(err) == 1 and "build budget" in err[0]
        assert "Traceback" not in done.stderr

    def test_pretty_on_family_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--family5", "2",
                               "--pretty")
        assert code == 2 and err

    def test_flags_mutually_exclusive(self, capsys):
        code, _, _ = run_cli(capsys, "construct", "--qkr", "7", "2",
                             "--ptq", "7")
        assert code == 2


class TestAnalyze:
    def test_reductions_empty_list(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, tableio.to_json(C.build_irreducible(3, 4)))
        code, out, _ = run_cli(capsys, "analyze", "-", "--reductions")
        assert code == 0 and out.strip() == "[]"

    def test_reductions_of_group_sum(self, capsys, monkeypatch):
        t = core.from_function(3, 5, lambda *x: sum(x) % 5)
        feed_stdin(monkeypatch, tableio.to_json(t))
        code, out, _ = run_cli(capsys, "analyze", "-", "--reductions")
        assert code == 0
        assert json.loads(out) == [[1, 2], [1, 3], [2, 3]]

    def test_split_witness(self, capsys, monkeypatch):
        t = core.from_function(3, 4, lambda *x: sum(x) % 4)
        feed_stdin(monkeypatch, tableio.to_json(t))
        code, out, _ = run_cli(capsys, "analyze", "-", "--split", "1,2")
        obj = json.loads(out)
        assert code == 0 and obj["reducible"] is True
        assert obj["witness"] is not None

    def test_subquasigroups(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, tableio.to_json(C.build_closed(3, 6, 3)))
        code, out, _ = run_cli(capsys, "analyze", "-", "--subquasigroups")
        assert code == 0 and [0, 1, 2] in json.loads(out)

    def test_subquasigroups_over_the_cap_exit_1(self, capsys, monkeypatch):
        # xor on 16 symbols has 66 proper closed sets, its subgroups
        monkeypatch.setattr(analysis, "SUBQUASIGROUP_CAP", 65)
        feed_stdin(monkeypatch, tableio.to_json(core.from_function(
            2, 16, operator.xor)))
        code, out, err = run_cli(capsys, "analyze", "-", "--subquasigroups")
        assert (code, out) == (1, "")
        assert err == ("error: table has more than 65 proper closed symbol "
                       "sets (SUBQUASIGROUP_CAP)\n")

    def test_shell_requires_basepoint(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, tableio.to_json(C.fixture("Q42")))
        code, _, err = run_cli(capsys, "analyze", "-", "--shell")
        assert code == 2 and "basepoint" in err

    def test_overlong_basepoint_refused_at_once(self, tmp_path):
        # 20 coordinates on a 5^3 table: refused, never expanded to the
        # 4^20 cells that miss such a basepoint; run in a capped child in
        # case the guard ever goes
        t = core.from_function(3, 5, lambda *x: sum(x) % 5)
        path = tmp_path / "t.json"
        path.write_text(tableio.to_json(t))
        done = run_capped(CAPPED_CLI, "analyze", str(path), "--shell",
                          "--basepoint", ",".join(["0"] * 20))
        assert done.stdout == "1 \n", done.stderr
        assert done.stderr == "error: basepoint must list 3 integers in 0..4\n"

    def test_closed6_k5_shell_golden_sha256(self, capsys, monkeypatch):
        # the shell of build_closed(6, 5, 2) at an off-centre basepoint,
        # byte for byte: 11,529 entries, 184,524 bytes
        feed_stdin(monkeypatch, tableio.to_json(C.build_closed(6, 5, 2)))
        code, out, _ = run_cli(capsys, "analyze", "-", "--shell",
                               "--basepoint", "3,0,4,1,2,1")
        golden = (GOLDEN / "closed6_k5_shell_304121.sha256").read_text()
        assert code == 0 and len(out) == 184524
        assert hashlib.sha256(out.encode()).hexdigest() == golden.strip()


class TestComponents:
    def test_listing(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, tableio.to_json(C.fixture("Q52")))
        code, out, _ = run_cli(capsys, "components", "-", "--pair", "0,1")
        obj = json.loads(out)
        assert code == 0
        assert [c["size"] for c in obj] == [4, 6]
        assert obj[0]["cells"] == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_switch_roundtrip(self, capsys, monkeypatch):
        q = C.fixture("Q52")
        feed_stdin(monkeypatch, tableio.to_json(q))
        code, out, _ = run_cli(capsys, "components", "-", "--pair", "0,1",
                               "--switch", "0")
        assert code == 0
        t = tableio.from_json(out)
        assert core.is_valid(t) and t.values != q.values
        feed_stdin(monkeypatch, out)
        code, out, _ = run_cli(capsys, "components", "-", "--pair", "0,1",
                               "--switch", "0")
        assert code == 0 and tableio.from_json(out).values == q.values

    def test_switch_index_out_of_range(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, tableio.to_json(C.fixture("Q52")))
        code, _, err = run_cli(capsys, "components", "-", "--pair", "0,1",
                               "--switch", "7")
        assert code == 2 and "out of range" in err

    @pytest.mark.parametrize("index", ["8", "-1"])
    def test_switch_range_names_the_part_count(self, capsys, monkeypatch,
                                               index):
        feed_stdin(monkeypatch, tableio.to_json(C.build_closed(8, 5, 2)))
        code, out, err = run_cli(capsys, "components", "-", "--pair", "0,1",
                                 "--switch", index)
        assert (code, out) == (2, "")
        assert err == "usage error: --switch index out of range 0..7\n"

    def test_switch_domain_errors_before_range(self, capsys, monkeypatch):
        # the table and the pair are refused before the index is read
        feed_stdin(monkeypatch, "0 1 0\n1 2 0\n2 0 1\n")
        code, out, err = run_cli(capsys, "components", "-", "--pair", "0,1",
                                 "--switch", "99")
        assert (code, out) == (1, "")
        assert err == "error: table is not Latin; components are undefined\n"
        feed_stdin(monkeypatch, tableio.to_json(C.fixture("Q52")))
        code, out, err = run_cli(capsys, "components", "-", "--pair", "1,1",
                                 "--switch", "0")
        assert (code, out) == (1, "")
        assert err.startswith("error: component pair (1, 1)")

    def test_pair_must_differ(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, tableio.to_json(C.fixture("Q52")))
        code, _, err = run_cli(capsys, "components", "-", "--pair", "1,1")
        assert code == 1 and err

    def test_non_latin_exit_1(self, capsys, monkeypatch):
        # each line holds a 0 and a 1, but row 0 holds two 0s
        feed_stdin(monkeypatch, "0 1 0\n1 2 0\n2 0 1\n")
        code, out, err = run_cli(capsys, "components", "-", "--pair", "0,1")
        assert (code, out) == (1, "")
        assert err == "error: table is not Latin; components are undefined\n"

    def test_closed8_k5_listing_golden_sha256(self, capsys, monkeypatch):
        # the whole 2.8 MB listing of build_closed(8, 5, 2), pinned byte for
        # byte by the digest of `nqg components --pair 0,1`
        feed_stdin(monkeypatch, tableio.to_json(C.build_closed(8, 5, 2)))
        code, out, _ = run_cli(capsys, "components", "-", "--pair", "0,1")
        golden = (GOLDEN / "closed8_k5_components_01.sha256").read_text()
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == golden.strip()


class TestReconstructCli:
    def test_shell_roundtrip_n4(self, capsys, monkeypatch, tmp_path):
        t = C.build_closed(4, 4, 2)
        feed_stdin(monkeypatch, tableio.to_json(t))
        code, shell_out, _ = run_cli(capsys, "analyze", "-", "--shell",
                                     "--basepoint", "0,0,0,0")
        assert code == 0
        p = tmp_path / "sh.json"
        p.write_text(shell_out)
        code, out, _ = run_cli(capsys, "reconstruct", str(p))
        assert code == 0
        assert tableio.from_json(out).values == t.values

    def test_candidate_list_n3(self, capsys, monkeypatch):
        q, f, loop = C.build_shell_counterexample()
        feed_stdin(monkeypatch, tableio.to_json(q))
        code, shell_out, _ = run_cli(capsys, "analyze", "-", "--shell",
                                     "--basepoint", "0,0,0")
        feed_stdin(monkeypatch, shell_out)
        code, out, _ = run_cli(capsys, "reconstruct", "-")
        assert code == 0
        cands = [tableio.from_json_obj(o).values for o in json.loads(out)]
        assert q.values in cands and f.values in cands

    def test_split_flag(self, capsys, monkeypatch, tmp_path):
        t = C.build_closed(4, 4, 2)
        feed_stdin(monkeypatch, tableio.to_json(t))
        _, shell_out, _ = run_cli(capsys, "analyze", "-", "--shell",
                                  "--basepoint", "0,0,0,0")
        feed_stdin(monkeypatch, shell_out)
        code, out, _ = run_cli(capsys, "reconstruct", "-", "--split", "3,4")
        assert code == 0 and tableio.from_json(out).values == t.values

    def test_split_checked_before_an_arity_1_shell(self, capsys, monkeypatch):
        # the split error is reported, not the shell's missing retracts
        feed_stdin(monkeypatch, '{"arity":1,"order":2,"basepoint":[0],'
                                '"entries":[[0,0]]}')
        code, out, err = run_cli(capsys, "reconstruct", "-", "--split", "1,2")
        assert (code, out, err) == (1, "", "error: split axes must lie in "
                                           "1..1\n")

    def test_irreducible_shell_exit_1(self, capsys, monkeypatch):
        t = C.build_irreducible(4, 4)
        feed_stdin(monkeypatch, tableio.to_json(t))
        _, shell_out, _ = run_cli(capsys, "analyze", "-", "--shell",
                                  "--basepoint", "0,0,0,0")
        feed_stdin(monkeypatch, shell_out)
        code, _, err = run_cli(capsys, "reconstruct", "-")
        assert code == 1 and err


    def test_over_work_budget_exit_1(self, capsys, monkeypatch):
        # 2^40 splits of a one-cell table: refused before any split
        shell = {"arity": 40, "order": 1, "basepoint": [0] * 40,
                 "entries": [[0] * 41]}
        feed_stdin(monkeypatch, json.dumps(shell))
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "reconstruct", "-")
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and out == "" and "budget" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [[], ["--split", "1,2"]])
    def test_order_over_256_refused_when_read(self, capsys, monkeypatch,
                                               argv):
        # 300^2 - 299^2 = 599 entries of the cyclic order-300 binary table
        cells = [(0, y) for y in range(300)] + [(x, 0) for x in range(1, 300)]
        feed_stdin(monkeypatch, json.dumps({
            "arity": 2, "order": 300, "basepoint": [0, 0],
            "entries": [[x, y, (x + y) % 300] for x, y in cells]}))
        code, out, err = run_cli(capsys, "reconstruct", "-", *argv)
        assert (code, out, err) == (1, "", "error: shell order 300 is over "
                                           "256, the most symbols a table "
                                           "holds\n")

    def test_over_build_budget_refused_when_read(self, capsys, monkeypatch):
        # 78,247 entries of the cyclic order-162 ternary table, whose
        # 162^3 cells pass core.BUILD_CELL_BUDGET
        k = 162
        cells = [(0, y, z) for y in range(k) for z in range(k)]
        cells += [(x, 0, z) for x in range(1, k) for z in range(k)]
        cells += [(x, y, 0) for x in range(1, k) for y in range(1, k)]
        feed_stdin(monkeypatch, json.dumps({
            "arity": 3, "order": k, "basepoint": [0, 0, 0],
            "entries": [[*x, sum(x) % k] for x in cells]}))
        code, out, err = run_cli(capsys, "reconstruct", "-")
        assert (code, out, err) == (1, "", "error: a table of arity 3 and "
                                           "order 162 holds 162^3 cells, over "
                                           "the 4194304-cell build budget\n")


class TestStrictShellJson:
    def shell_obj(self):
        t = C.build_closed(3, 4, 2)
        return shells.shell_to_json_obj(shells.extract_shell(t, (0, 0, 0)))

    @pytest.mark.parametrize("field,value", [
        ("basepoint", [0, 0]),
        ("basepoint", [0, 0, 0, 0]),
        ("basepoint", [0, 0.0, 0]),
        ("basepoint", 0),
        ("entries", 5),
        ("entries", [5]),
        ("entries", [[0, 0, 0, 0.0]]),
        ("entries", [[0, True, 0, 1]]),
        ("entries", [[0, 0, 0, 4]]),
        ("entries", [[0, 0, -1, 1]]),
        ("arity", 3.0),
        ("order", True),
    ])
    def test_rejected_exit_1(self, capsys, monkeypatch, field, value):
        obj = self.shell_obj()
        obj[field] = value
        feed_stdin(monkeypatch, json.dumps(obj))
        code, out, err = run_cli(capsys, "reconstruct", "-")
        assert code == 1 and out == "" and "error" in err

    def run_entries(self, capsys, monkeypatch, entries):
        obj = self.shell_obj()
        obj["entries"] = entries
        feed_stdin(monkeypatch, json.dumps(obj))
        code, out, err = run_cli(capsys, "reconstruct", "-")
        assert code == 1 and out == "" and "Traceback" not in err
        return err

    def test_duplicated_cell_exit_1(self, capsys, monkeypatch):
        entries = self.shell_obj()["entries"]
        # same cell, other value: it used to overwrite the first silently
        dup = entries[5][:3] + [(entries[5][3] + 1) % 4]
        err = self.run_entries(capsys, monkeypatch, entries[:-1] + [dup])
        assert "twice" in err

    def test_off_basepoint_entry_exit_1(self, capsys, monkeypatch):
        entries = self.shell_obj()["entries"]
        err = self.run_entries(capsys, monkeypatch,
                               entries[:-1] + [[1, 2, 3, 0]])
        assert "basepoint" in err

    def test_dropped_entry_exit_1(self, capsys, monkeypatch):
        entries = self.shell_obj()["entries"]
        err = self.run_entries(capsys, monkeypatch, entries[:17] + entries[18:])
        assert "entries" in err


@pytest.mark.parametrize("command", ["validate", "reconstruct"])
def test_deeply_nested_json_exit_1(capsys, monkeypatch, command):
    feed_stdin(monkeypatch, '{"a":' * 100000 + "1" + "}" * 100000)
    code, out, err = run_cli(capsys, command, "-")
    assert code == 1 and out == "" and "error" in err


JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.integers(-1, 4) | st.floats() | st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30)
SMALL_INTS = st.lists(st.integers(-1, 4), max_size=6)
TABLE_LIKE = st.fixed_dictionaries({
    "arity": JSON_SCALARS, "order": JSON_SCALARS,
    "values": SMALL_INTS | JSON_VALUES})
SHELL_LIKE = st.fixed_dictionaries({
    "arity": JSON_SCALARS, "order": JSON_SCALARS,
    "basepoint": SMALL_INTS | JSON_VALUES,
    "entries": st.lists(SMALL_INTS, max_size=8) | JSON_VALUES})


class TestArbitraryJson:
    @given(TABLE_LIKE | SHELL_LIKE | JSON_VALUES)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_cli_never_raises(self, tmp_path_factory, obj):
        path = tmp_path_factory.mktemp("arbitrary") / "in.json"
        path.write_text(json.dumps(obj))
        for command in ("validate", "reconstruct"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.run([command, str(path)])
            assert code in (0, 1, 2)


FUZZ_INT = st.integers(-2, 6).map(str)
FUZZ_LIST = st.lists(st.integers(-2, 6), min_size=1, max_size=4).map(
    lambda xs: ",".join(map(str, xs)))
# basepoints and splits up to 8 coordinates, past every drawn input's
# arity; a regressed guard would expand at most 4^8 cells, and longer
# lists are run only in a capped child (test_huge_lists_refused)
FUZZ_AXES = st.lists(st.integers(-2, 6), min_size=1, max_size=8).map(
    lambda xs: ",".join(map(str, xs)))
FUZZ_PAIR = st.tuples(st.integers(-2, 6), st.integers(-2, 6)).map(
    lambda xs: "%d,%d" % xs)
FUZZ_SOURCE = st.sampled_from(("FILE", "-"))  # FILE: the drawn input file
FUZZ_NOISE = (FUZZ_INT | FUZZ_LIST | FUZZ_SOURCE | st.sampled_from((
    "validate", "census", "bogus", "--pretty", "--split", "--n", "--switch",
    "--help", "--bogus", "on", "Q52", "")))


def seq(*parts):
    """argv tokens from strategies of one token or of a token list."""
    return st.tuples(*parts).map(
        lambda ps: [t for p in ps for t in (p if isinstance(p, list) else [p])])


def opt(*parts):
    return st.just([]) | seq(*parts)


def flag(name, *values):
    return seq(st.just(name), *values)


# mostly well-formed command lines, so that draws reach the commands
FUZZ_ARGV = st.one_of(
    seq(st.just("validate"), FUZZ_SOURCE),
    seq(st.just("eval"), FUZZ_SOURCE, st.lists(FUZZ_INT, max_size=4)),
    seq(st.just("construct"), st.one_of(
        flag("--qkr", FUZZ_INT, FUZZ_INT),
        flag("--fixture", st.sampled_from(("Q42", "Q52", "Q62", "Q72", "Q2"))),
        flag("--closed", FUZZ_INT, FUZZ_INT, FUZZ_INT),
        flag("--irreducible", FUZZ_INT, FUZZ_INT), flag("--ptq", FUZZ_INT),
        flag("--family5", FUZZ_INT), flag("--family-k", FUZZ_INT, FUZZ_INT),
        flag("--counterexample")), opt(flag("--pretty"))),
    seq(st.just("analyze"), FUZZ_SOURCE, st.one_of(
        flag("--reductions"), flag("--subquasigroups"),
        flag("--split", FUZZ_AXES),
        flag("--shell", opt(flag("--basepoint", FUZZ_AXES))))),
    seq(st.just("components"), FUZZ_SOURCE, flag("--pair", FUZZ_PAIR | FUZZ_LIST),
        opt(flag("--switch", FUZZ_INT)), opt(flag("--pretty"))),
    seq(st.just("reconstruct"), FUZZ_SOURCE, opt(flag("--split", FUZZ_AXES)),
        opt(flag("--pretty"))),
    seq(st.just("census"), flag("--n", FUZZ_INT), flag("--k", FUZZ_INT),
        opt(flag("--exact", st.sampled_from(("auto", "on", "off", "x")))),
        opt(flag("--budget", FUZZ_INT)), opt(flag("--seed", FUZZ_INT))),
    st.lists(FUZZ_NOISE, max_size=5))


def _fuzz_inputs():
    """Well-formed inputs for the fuzz property to start from: tables in
    both formats and a shell."""
    closed = C.build_closed(3, 4, 2)
    shell = shells.extract_shell(closed, (0, 1, 0))
    return [tableio.to_json(closed).encode(),
            tableio.to_json(C.fixture("Q52")).encode(),
            tableio.to_text(C.fixture("Q42")).encode(), b"0 1\n0 1\n",
            json.dumps(shells.shell_to_json_obj(shell)).encode()]


class TestCliFuzz:
    @given(FUZZ_ARGV, st.just([]) | st.just([])
           | st.lists(FUZZ_NOISE, min_size=1, max_size=2),
           st.sampled_from(_fuzz_inputs()) | st.binary(max_size=64))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_run_returns_an_exit_code(self, tmp_path_factory, tokens, noise,
                                      data):
        # run exits 0, 1 or 2 on any argv and any input bytes, file or stdin
        path = tmp_path_factory.mktemp("fuzz") / "in"
        path.write_bytes(data)
        argv = [str(path) if t == "FILE" else t for t in tokens + noise]
        if "census" in argv:
            # keeps draws like --n 3 --k 5 --exact on short
            argv += ["--time-limit", "1"]
        saved = sys.stdin
        sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(argv)
        finally:
            sys.stdin = saved
        assert code in (0, 1, 2)

    @pytest.mark.parametrize("argv", [
        ["--n", "-1", "--k", "0"], ["--n", "-2", "--k", "0", "--exact", "off"],
        ["--n", "2", "--k", "-1", "--exact", "off"]])
    def test_census_nonpositive_shape_exit_1(self, capsys, argv):
        # (-1, 0) once ended in ZeroDivisionError, and --exact off reported
        # a census of a shape that has none
        code, out, err = run_cli(capsys, "census", *argv)
        assert (code, out, err) == (1, "", "error: need n >= 1 and k >= 1\n")

    def test_huge_lists_refused(self, tmp_path):
        # basepoints and splits far past the arity, which the property
        # above does not draw: each refused at once, in one capped child
        t = C.build_closed(3, 4, 2)
        table, shell = tmp_path / "t.json", tmp_path / "s.json"
        table.write_text(tableio.to_json(t))
        shell.write_text(json.dumps(shells.shell_to_json_obj(
            shells.extract_shell(t, (0, 1, 0)))))
        code = (
            "import contextlib, io, sys, time\n"
            "from nquasigroups import cli\n"
            "table, shell = sys.argv[1:]\n"
            "for m in (9, 16, 20, 40, 1000):\n"
            "    axes = ','.join(map(str, range(1, m + 1)))\n"
            "    for argv in (['analyze', table, '--shell', '--basepoint',\n"
            "                  ','.join(['1'] * m)],\n"
            "                 ['analyze', table, '--split', axes],\n"
            "                 ['reconstruct', shell, '--split', axes]):\n"
            "        out, err = io.StringIO(), io.StringIO()\n"
            "        t0 = time.perf_counter()\n"
            "        with contextlib.redirect_stdout(out), \\\n"
            "                contextlib.redirect_stderr(err):\n"
            "            c = cli.run(argv)\n"
            "        print(m, argv[2], c, repr(out.getvalue()),\n"
            "              time.perf_counter() - t0 < 1.0, err.getvalue().strip())\n")
        done = run_capped(code, str(table), str(shell))
        lines = done.stdout.splitlines()
        assert len(lines) == 15, done.stderr
        for m, line in zip([9] * 3 + [16] * 3 + [20] * 3 + [40] * 3
                           + [1000] * 3, lines):
            flag = line.split()[1]
            error = ("error: basepoint must list 3 integers in 0..3"
                     if flag == "--shell" else
                     "error: split axes must lie in 1..3")
            assert line == "%d %s 1 '' True %s" % (m, flag, error)


class TestCensusCli:
    def test_exact_small(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--n", "3", "--k", "3")
        obj = json.loads(out)
        assert code == 0 and obj["exact_count"] == 24

    def test_family_fields(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--n", "2", "--k", "7",
                               "--exact", "off")
        obj = json.loads(out)
        assert code == 0
        assert obj["exact_count"] is None
        assert obj["family_log2"] == 6
        assert obj["certification"]["materialized"] == 64

    def test_budget_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "census", "--n", "6", "--k", "13",
                               "--exact", "on")
        assert code == 1 and err

    @pytest.mark.parametrize("n,exact", [
        (100_000, "off"), (10_000_000, "off"), (10_000_000, "auto")])
    def test_huge_arity_refused_at_once(self, n, exact):
        # 5^n is never formed: at n = 100,000 its decimal form passes
        # Python's digit limit (a ValueError, not the budget text), and at
        # 10^7 computing it takes seconds
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "nquasigroups.cli", "census", "--n",
             str(n), "--k", "5", "--exact", exact], env=child_env(),
            capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - t0 < 1.0
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (
            "error: table has 5^%d cells, over the 2000000-cell budget; a "
            "search would touch at least that many nodes\n" % n)

    @pytest.mark.parametrize("argv", [
        ["--n", "10", "--k", "5"], ["--n", "3", "--k", "5"],
        ["--n", "3", "--k", "3", "--exact", "off"]])
    def test_budget_over_build_budget_exit_1(self, capsys, argv):
        # build_family5(10) holds 5^10 cells, under a budget of 10^7 but
        # over core.BUILD_CELL_BUDGET: --budget is capped by that constant
        # on every census path, not passed on to a builder that refuses
        code, out, err = run_cli(capsys, "census", *argv, "--budget",
                                 str(core.BUILD_CELL_BUDGET + 1))
        assert code == 1 and out == ""
        assert err == ("error: budget %d is over the %d-cell build budget "
                       "(core.BUILD_CELL_BUDGET), the most cells any table "
                       "is built with\n" % (core.BUILD_CELL_BUDGET + 1,
                                            core.BUILD_CELL_BUDGET))

    def test_budget_at_build_budget_runs(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--n", "3", "--k", "5",
                               "--budget", str(core.BUILD_CELL_BUDGET))
        assert code == 0 and json.loads(out)["family_log2"] == 3


def test_cyclic_order_22_subquasigroups_at_once(tmp_path):
    # trying all 2^22 - 2 symbol subsets took 50 s; the closed-set search
    # visits three
    table = tmp_path / "z22.json"
    table.write_text(tableio.to_json(core.from_function(
        2, 22, lambda x, y: (x + y) % 22)))
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "nquasigroups.cli", "analyze", str(table),
         "--subquasigroups"], env=child_env(), capture_output=True,
        text=True, timeout=60)
    assert time.perf_counter() - t0 < 1.0
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == [[0], [0, 11], list(range(0, 22, 2))]


def test_z2_arity_16_reductions_refused_at_once(tmp_path):
    # testing all 2^16 - 18 splits of the Z_2 iterate took 60 s; the split
    # cap refuses it before the first
    table = tmp_path / "z2n16.json"
    table.write_text(tableio.to_json(core.iterate(
        core.from_function(2, 2, operator.xor), 15)))
    done = subprocess.run(
        [sys.executable, "-m", "nquasigroups.cli", "analyze", str(table),
         "--reductions"], env=child_env(), capture_output=True, text=True,
        timeout=10)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == ("error: arity 16 has 2^16 - 18 splits to test, "
                           "over the 1024-split cap (REDUCTION_SPLIT_CAP)\n")


def test_table_commands_load_neither_numpy_nor_array(tmp_path):
    # the kernels run on builtins: a child loading either would pay its
    # start-up time and resident memory
    table = tmp_path / "t.json"
    table.write_text(tableio.to_json(C.build_closed(4, 5, 2)))
    script = (
        "import contextlib, io, sys\n"
        "from nquasigroups import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.run(['validate', sys.argv[1]]),\n"
        "             cli.run(['components', sys.argv[1], '--pair', '0,1',\n"
        "                      '--switch', '0']),\n"
        "             cli.run(['census', '--n', '3', '--k', '4'])]\n"
        "print(codes, sorted(m for m in ('numpy', 'array') if m in sys.modules))\n")
    done = subprocess.run([sys.executable, "-c", script, str(table)],
                          env=child_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0, 0] []\n"


# Each run in a fresh interpreter without site (-S), so that only the
# command itself decides what is in sys.modules: the loaded package
# modules, and whether dataclasses is among them.
LOADS_SCRIPT = (
    "import contextlib, io, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from nquasigroups import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.run(sys.argv[2:])\n"
    "print(code, *sorted(m.split('.')[-1] for m in sys.modules\n"
    "                    if m.startswith('nquasigroups.') or m in\n"
    "                    ('dataclasses', 'argparse', 'gettext', 'json')))\n")


# Each command line and the package modules it loads, besides commands
# for every command but census; the command line is the row's id.
LOADS = [
    (["--help"], "cli"),
    (["validate", "TABLE"], "cli core tableio"),
    (["validate", "BADTABLE"], "cli core tableio"),
    (["census", "--n", "3", "--k", "4"], "census cli core latin"),
    (["census", "--n", "2", "--k", "5"], "census cli core families latin"),
    (["components", "TABLE", "--pair", "0,1"],
     "cli core families switching tableio"),
    (["analyze", "TABLE3", "--reductions"],
     "analysis cli core reducibility tableio"),
    (["census", "--n", "3", "--k", "7"], "census cli core families"),
    (["construct", "--closed", "3", "5", "2"],
     "cli constructions core tableio"),
    (["reconstruct", "SHELL3"],
     "analysis cli core reducibility shells tableio"),
    (["analyze", "TABLE", "--shell", "--basepoint", "0,1"],
     "cli core shells tableio"),
    (["reconstruct", "SHELL4"],
     "analysis cli core reducibility shells tableio"),
    (["construct", "--fixture", "Q42"], "cli constructions core tableio"),
    (["construct", "--ptq", "7"], "cli core families tableio"),
    (["construct", "--family5", "3"], "cli core families tableio"),
    (["construct", "--family-k", "3", "7"], "cli core families tableio"),
    (["census", "--n", "6", "--k", "5"], "census cli core families"),
    (["census", "--n", "5", "--k", "7"], "census cli core families"),
    (["census", "--n", "3", "--k", "6", "--seed", "1"],
     "census cli core latin"),
    (["components", "TABLE", "--pair", "0,1", "--switch", "0"],
     "cli core switching tableio"),
    (["construct", "--irreducible", "3", "5"],
     "cli constructions core families tableio"),
]


@pytest.mark.parametrize("argv,loaded", LOADS,
                         ids=[" ".join(argv) for argv, _ in LOADS])
def test_commands_load_only_their_modules(tmp_path, argv, loaded):
    table = tmp_path / "t.json"
    table.write_text(tableio.to_json(C.fixture("Q52"), (",", ":")))
    bad = tmp_path / "bad.json"  # not Latin: validate lists a violation
    bad.write_text(tableio.to_json(core.QTable(2, 2, (0, 0, 1, 1))))
    table3 = tmp_path / "t3.json"
    table3.write_text(tableio.to_json(C.build_closed(3, 4, 2), (",", ":")))
    shell3 = tmp_path / "s3.json"
    shell3.write_text(json.dumps(shells.shell_to_json_obj(
        shells.extract_shell(C.build_closed(3, 4, 2), (0, 0, 0)))))
    shell4 = tmp_path / "s4.json"
    shell4.write_text(shells._shell_json(
        shells.extract_shell(C.build_closed(4, 4, 2), (0, 1, 2, 3))))
    # argparse and gettext never load; json loads only in the commands
    # that parse JSON or write through json.dumps, so not in --help, in
    # census, whose report has its own writer, in construct or analyze
    # --shell, whose compact table or shell of order <= 10 is written
    # without it, in components --switch, in reconstruct from such a
    # shell at arity 4, in validate on a Latin table or in analyze
    # --reductions, which print their fixed-shape answer as it is;
    # construct --family5 and --family-k write their family, and
    # validate on a table that is not Latin its violations, through
    # json.dumps
    json_free = (argv[0] in ("--help", "census") or "--shell" in argv
                 or "SHELL4" in argv or "--switch" in argv
                 or "--reductions" in argv or argv == ["validate", "TABLE"]
                 or argv[0] == "construct" and "--family5" not in argv
                 and "--family-k" not in argv)
    code = 1 if "BADTABLE" in argv else 0
    # every command but census has its handler in commands
    table_command = argv[0] not in ("--help", "census")
    paths = {"TABLE": str(table), "BADTABLE": str(bad), "TABLE3": str(table3),
             "SHELL3": str(shell3), "SHELL4": str(shell4)}
    line = " ".join(argv)
    argv = [paths.get(a, a) for a in argv]
    done = subprocess.run(
        [sys.executable, "-S", "-c", LOADS_SCRIPT,
         str(Path(__file__).parent.parent / "src"), *argv],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    modules = loaded.split() + ["commands"] * table_command
    assert done.stdout == "%d %s\n" % (code, " ".join(
        sorted(modules + ["json"] * (not json_free))))
    assert sum(source_tokens(SRC_PACKAGE / (m + ".py"))
               for m in modules + ["__init__"]) == COMPILED_TOKENS[line]


# Tokens each command line compiles from the package, __init__ included,
# counted as CI counts them (test_package.source_tokens), so that a move
# or a deletion on a launch's path shows here as a number.
COMPILED_TOKENS = {
    "--help": 2451,
    "validate TABLE": 7977,
    "validate BADTABLE": 7977,
    "census --n 3 --k 4": 9091,
    "census --n 2 --k 5": 11169,
    "components TABLE --pair 0,1": 11989,
    "analyze TABLE3 --reductions": 10424,
    "census --n 3 --k 7": 9331,
    "construct --closed 3 5 2": 9868,
    "reconstruct SHELL3": 13394,
    "analyze TABLE --shell --basepoint 0,1": 10947,
    "reconstruct SHELL4": 13394,
    "construct --fixture Q42": 9868,
    "construct --ptq 7": 10055,
    "construct --family5 3": 10055,
    "construct --family-k 3 7": 10055,
    "census --n 6 --k 5": 9331,
    "census --n 5 --k 7": 9331,
    "census --n 3 --k 6 --seed 1": 9091,
    "components TABLE --pair 0,1 --switch 0": 9911,
    "construct --irreducible 3 5": 11946,
}


@pytest.mark.parametrize("argv", [["census", "--n", "6", "--k", "5"],
                                  ["construct", "--closed", "3", "5", "2"]])
def test_main_never_imports_cli_as_a_module(argv):
    # under python -m, cli runs as __main__; a module that imported
    # nquasigroups.cli would compile it a second time
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "nquasigroups.cli", *argv],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    imported = {line.rpartition("|")[2].strip()
                for line in done.stderr.splitlines()}
    assert "nquasigroups.core" in imported
    assert "nquasigroups.cli" not in imported


# cli.main after an atexit handler that reports whether main froze the
# objects then alive
ATEXIT_MAIN = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('atexit ran, frozen:',\n"
    "    gc.get_freeze_count() > 0, file=sys.stderr))\n"
    "from nquasigroups import cli\n"
    "cli.main()\n")


@pytest.mark.parametrize("argv,code", [
    (["--help"], 0), (["census", "--n", "3"], 2),
    (["census", "--n", "3", "--k", "7", "--time-limit", "nan"], 1)],
    ids=["help", "usage-error", "domain-error"])
def test_main_freezes_and_exits_through_the_interpreter(argv, code):
    # main ends by sys.exit, not os._exit: its exit code stands and the
    # atexit handlers still run, after the freeze
    done = subprocess.run([sys.executable, "-c", ATEXIT_MAIN, *argv],
                          env=child_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == code, done.stderr
    assert done.stderr.endswith("atexit ran, frozen: True\n"), done.stderr


@pytest.mark.parametrize("argv", [
    ["--help"], ["census", "--n", "2", "--k", "4"],
    ["construct", "--closed", "3", "5", "2"], ["census", "--n", "3"]])
def test_run_freezes_nothing(capsys, argv):
    # only main, as a launch ends, freezes: a library or test process
    # that calls run keeps collecting all its objects
    before = gc.get_freeze_count()
    run_cli(capsys, *argv)
    assert gc.get_freeze_count() == before


def test_parser_literals_match_their_sources():
    # the option table is read without importing the library, so it holds
    # copies of these constants
    assert cli._FIXTURES == tuple(f.value for f in C.FixtureId)
    assert cli._CELL_BUDGET == census.DEFAULT_CELL_BUDGET
    assert cli._TIME_LIMIT == census.DEFAULT_TIME_LIMIT
    assert cli._BUILD_CELL_BUDGET == core.BUILD_CELL_BUDGET


@pytest.mark.parametrize("error", [
    census.BudgetError("over"), census.CertificationError("bad"),
    core.StructuralError("broken"), OSError("gone")])
def test_domain_errors_exit_1(capsys, monkeypatch, error):
    # run names the census errors only once an exception reaches it
    def fail(args):
        raise error
    monkeypatch.setattr(cli, "_cmd_census", fail)
    assert run_cli(capsys, "census", "--n", "3", "--k", "4") \
        == (1, "", "error: %s\n" % error)


def test_closed_output_pipe_exits_0_quietly(tmp_path):
    # a reader that stops after 10 bytes of the 2.8 MB 5^8 listing: the
    # writer meets a broken pipe, which is not a domain error
    table = tmp_path / "c8.json"
    table.write_text(tableio.to_json(C.build_closed(8, 5, 2)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "nquasigroups.cli", "components", str(table),
         "--pair", "0,1"], env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    try:
        assert proc.stdout.read(10) == b'[{"pair":['
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (0, b"")
    finally:
        proc.kill()
        proc.wait()


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["raw", "buffered"])
def test_table_to_closed_pipe_exits_0_quietly(unbuffered):
    # the 5^8 table goes to stdout's byte stream in one write: a raw
    # FileIO under PYTHONUNBUFFERED, a BufferedWriter otherwise
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "nquasigroups.cli", "construct", "--closed",
         "8", "5", "2"], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    try:
        assert proc.stdout.read(10) == b'{"arity":8'
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (0, b"")
    finally:
        proc.kill()
        proc.wait()


def test_table_bytes_follow_earlier_text():
    # text already written through sys.stdout is flushed before the
    # table's bytes go to its byte stream
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8")
    t = C.build_closed(3, 5, 2)
    with contextlib.redirect_stdout(out):
        print("before")
        commands._emit_table(t, False)
        print("after")
        out.flush()
    assert raw.getvalue().decode() == "before\n%s\nafter\n" % tableio.to_json(
        t, (",", ":"))


def test_table_to_missing_stdout_is_quiet(monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)
    commands._emit_table(C.fixture("Q52"), False)


def test_closed_output_descriptor_exits_quietly(tmp_path):
    # started with descriptor 1 closed, the child's sys.stdout is None
    table = tmp_path / "t.json"
    table.write_text(tableio.to_json(C.fixture("Q52")))
    done = subprocess.run(
        ["sh", "-c", '"$0" -m nquasigroups.cli validate "$1" >&-',
         sys.executable, str(table)], env=child_env(), capture_output=True,
        text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("args", ["--closed 3 5 2", "--fixture Q52 --pretty"])
def test_table_to_closed_output_descriptor_exits_quietly(args):
    # a table skips a None sys.stdout, as print does for --pretty
    done = subprocess.run(
        ["sh", "-c", '"$0" -m nquasigroups.cli construct %s >&-' % args,
         sys.executable], env=child_env(), capture_output=True, text=True,
        timeout=120)
    assert (done.returncode, done.stderr) == (0, "")


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "bogus")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_usage_error_names_the_command(self, capsys):
        code, out, err = run_cli(capsys, "census", "--n", "3")
        assert (code, out) == (2, "")
        assert err.startswith("usage: nqg census [-h] --n N --k K ")
        assert err.endswith("\nnqg: error: required: --k\n")

    @pytest.mark.parametrize("argv", [["--help"], ["-h", "bogus"],
                                      ["census", "--bogus", "-h"]])
    def test_help_goes_to_stdout(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: nqg ")

    @pytest.mark.parametrize("limit", ["-1", "0", "nan", "inf"])
    def test_census_time_limit_refused(self, capsys, limit):
        code, out, err = run_cli(capsys, "census", "--n", "3", "--k", "4",
                                 "--time-limit", limit)
        assert (code, out) == (1, "")
        assert err == ("error: time limit must be a finite number of "
                       "seconds > 0, not %r\n" % float(limit))

    @pytest.mark.parametrize("argv,limit", [
        (["--n", "3", "--k", "7"], "nan"), (["--n", "1", "--k", "3"], "-1"),
        (["--n", "3", "--k", "4", "--exact", "off"], "inf")])
    def test_census_time_limit_refused_without_search(self, capsys, argv,
                                                      limit):
        code, out, err = run_cli(capsys, "census", *argv,
                                 "--time-limit", limit)
        assert (code, out) == (1, "")
        assert err == ("error: time limit must be a finite number of "
                       "seconds > 0, not %r\n" % float(limit))


def parse_outcome(parse, argv):
    """("ok", attributes) for argv parsed, or ("exit", code)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return "ok", vars(parse(list(argv)))
        except SystemExit as e:
            return "exit", e.code


def parse_with_handler(argv):
    """cli._parse, plus the handler run picks for the command, which
    argparse stored as func."""
    args = cli._parse(argv)
    args.func = cli._handler(args.command)
    return args


REFERENCE = reference_build_parser()

# Hand-picked command lines: negative values, "=" values, help after the
# command, repeated options, exclusive groups, "-" and "--" as values.
PARSE_CASES = [
    ["eval", "t", "-1", "2"], ["eval", "t", "-.5"], ["eval", "t", "-1."],
    ["census", "--n", "-1", "--k", "4"], ["construct", "--ptq", "-3"],
    ["census", "--n", "3", "--k", "4", "--time-limit", "-0.5", "--seed", "-7"],
    ["analyze", "t", "--split", "-1,2"], ["analyze", "t", "--split=-1,2"],
    ["analyze", "t", "--split=1, 2"], ["analyze", "t", "--split", "-1 2"],
    ["components", "t", "--pair", "0,1", "--switch", "-1"],
    ["census", "--n=3", "--k=4", "--exact=off"], ["construct", "--fixture=Q52"],
    ["construct", "--qkr=3", "4"], ["construct", "--pretty=x", "--ptq", "3"],
    ["census", "--n=", "--k", "4"], ["components", "t", "--pair=0,1", "--switch=2"],
    ["census", "-h"], ["census", "--n", "x", "-h"], ["census", "-h", "--n", "x"],
    ["construct", "--ptq", "3", "--qkr", "1", "2", "-h"],
    ["validate", "t", "extra", "-h"], ["census", "--bogus", "-h"],
    ["--bogus", "validate", "-h"], ["eval", "t", "x", "-h"],
    ["eval", "t", "1", "-h", "2"], ["eval", "t", "1", "-x", "", "-h"],
    ["eval", "t", "1", "--bogus", "2"], ["-h", "bogus"], ["bogus", "-h"],
    ["validate", "--help=x"], ["validate", "-h=x"], ["--bogus"], ["--bogus", "-h"],
    ["census", "--n", "3", "--n", "4", "--k", "4"],
    ["construct", "--ptq", "3", "--ptq", "5"],
    ["construct", "--counterexample", "--counterexample"],
    ["components", "t", "--pair", "0,1", "--pair", "1,2"],
    ["construct", "--pretty", "--pretty", "--closed", "3", "5", "2"],
    ["construct", "--closed", "3", "5", "2", "--qkr", "4", "2"],
    ["analyze", "t", "--shell", "--reductions"],
    ["analyze", "t", "--split", "1,2", "--split", "2,3"],
    ["construct"], ["analyze", "t"], ["construct", "--closed", "3", "5"],
    ["construct", "--qkr", "3", "--pretty"], ["census", "--n"],
    ["validate", "-"], ["eval", "-", "1", "2"], ["-"], ["validate", ""], [""], [],
    ["analyze", "-", "--shell", "--basepoint", "0,0,0"],
    ["validate", "--", "-"], ["validate", "--", "-x"], ["validate", "t", "--"],
    ["eval", "t", "--", "-1", "2"], ["eval", "--", "t", "1"],
    ["validate", "--", "t", "-h"], ["census", "--n", "--", "3"],
    ["validate", "-a b"], ["validate", "-x", "t"], ["validate", "a", "b"],
    ["census", "--n", "3", "--k", "4", "--exact", "x", "--time-limit", "nan"],
]


class TestParserMatchesArgparse:
    """The option table against the argparse parser it replaced
    (oracles.reference_build_parser): where argparse accepts a command
    line, the same attributes; where it prints help or refuses, the same
    exit code.  Intended differences, each refused with exit 2:
    - prefix abbreviations (--he for --help, --pre for --pretty);
    - bundled short flags (-hh);
    - "--" before the command, which argparse refuses in Python 3.10 to
      3.13.0 and accepts in 3.13.13;
    - a second "--" after the first, a value here, which argparse drops
      in 3.10 to 3.13.0.
    """

    @given(FUZZ_ARGV, st.lists(FUZZ_NOISE, max_size=2))
    @settings(max_examples=400, deadline=None)
    def test_fuzz(self, tokens, noise):
        argv = tokens + noise
        assert parse_outcome(parse_with_handler, argv) \
            == parse_outcome(REFERENCE.parse_args, argv)

    @pytest.mark.parametrize("argv", PARSE_CASES)
    def test_hand_picked(self, argv):
        assert parse_outcome(parse_with_handler, argv) \
            == parse_outcome(REFERENCE.parse_args, argv)

    @pytest.mark.parametrize("argv", [
        ["census", "--he"], ["construct", "--pre", "--ptq", "3"],
        ["validate", "-hh"], ["--", "validate", "t"],
        ["eval", "t", "--", "--", "1"]])
    def test_intended_differences_exit_2(self, argv):
        assert parse_outcome(parse_with_handler, argv) == ("exit", 2)


class TestTableJobMemory:
    """tracemalloc peaks of whole table jobs on a 5^8 table, in bytes per
    cell, with stdout sent to a real file: each job holds a few
    table-sized buffers at a time, not one per step."""

    CELLS = 5 ** 8

    @pytest.fixture(scope="class")
    def closed8(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("memory") / "c8.json"
        path.write_text(tableio.to_json(C.build_closed(8, 5, 2), (",", ":")))
        return path

    def peak_per_cell(self, call):
        # every module a job loads is loaded before, so that only the
        # job's own buffers count
        from nquasigroups import reducibility  # noqa: F401

        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1] / self.CELLS
        finally:
            tracemalloc.stop()

    # measured 2.96, 2.13, 3.16 and 3.03 (Python 3.11), plus about 0.3;
    # construct peaks at 2.30 outside the suite, whose conftest validates
    # each superposition it builds
    @pytest.mark.parametrize("argv,bound", [
        (["validate", "TABLE"], 3.3),
        (["analyze", "TABLE", "--reductions"], 2.45),
        (["construct", "--closed", "8", "5", "2"], 3.45),
        (["components", "TABLE", "--pair", "0,1", "--switch", "3"], 3.35)],
        ids=["validate", "reductions", "construct", "switch"])
    def test_cli_job_peak(self, closed8, tmp_path, argv, bound):
        argv = [str(closed8) if a == "TABLE" else a for a in argv]
        out = tmp_path / "out.json"
        with open(out, "w") as fh, contextlib.redirect_stdout(fh):
            code, peak = self.peak_per_cell(lambda: cli.run(argv))
        assert code == 0
        assert peak <= bound

    def test_from_json_peak(self, closed8):
        # the encoded text and the digits (3.0)
        text = closed8.read_text()
        t, peak = self.peak_per_cell(lambda: tableio.from_json(text))
        assert t == C.build_closed(8, 5, 2)
        assert peak <= 3.3

    def test_from_json_bytes_peak(self, closed8):
        # the digits and the symbols, which the constructor checks a slice
        # at a time (2.09)
        data = closed8.read_bytes()
        t, peak = self.peak_per_cell(lambda: tableio.from_json(data))
        assert t == C.build_closed(8, 5, 2)
        assert peak <= 2.4

    def test_file_read_peak(self, closed8):
        # the file's bytes, compacted in place into the symbols (2.13)
        t, peak = self.peak_per_cell(
            lambda: commands._read_table(str(closed8)))
        assert t == C.build_closed(8, 5, 2)
        assert peak <= 2.45


# Every subcommand under the hostile starts of its streams and inputs: a
# table argument of T (or a shell argument of S) is read from the named
# input, from - with stdin closed, or from a good file otherwise.
PROBE_COMMANDS = [
    ["validate", "T"], ["eval", "T", "0", "0", "0"],
    ["construct", "--closed", "3", "5", "2"], ["analyze", "T", "--reductions"],
    ["components", "T", "--pair", "0,1"], ["reconstruct", "S"],
    ["census", "--n", "2", "--k", "4"]]
PROBE_MODES = ["stdin closed", "stdout closed", "stdout full", "empty input",
               "binary input", "truncated input", "reader closes early",
               "reader gone"]


@pytest.mark.parametrize("mode", PROBE_MODES)
@pytest.mark.parametrize("argv", PROBE_COMMANDS, ids=lambda a: a[0])
def test_hostile_streams_and_inputs_end_without_a_traceback(tmp_path, argv,
                                                            mode):
    # a reader that closes early gets T of order 64, whose components
    # listing (87 kB) overfills the pipe, so that nqg is still writing
    order = 64 if mode == "reader closes early" else 5
    good = {"T": tableio.to_json(C.build_closed(3, order, 2)),
            "S": shells._shell_json(shells.extract_shell(
                C.build_closed(4, 4, 2), (0, 0, 0, 0)))}
    for name, text in good.items():
        (tmp_path / name).write_text(text)
        # the first half of the good text
        (tmp_path / ("truncated " + name)).write_text(text[:len(text) // 2])
    (tmp_path / "empty input").write_bytes(b"")
    (tmp_path / "binary input").write_bytes(b"\x00\xff\xfe\x80{\x9c")
    words = []
    for word in argv:
        if word in good:
            word = ("-" if mode == "stdin closed" else
                    "truncated " + word if mode == "truncated input" else
                    mode if mode.endswith("input") else word)
            word = str(tmp_path / word) if word != "-" else word
        words.append(word)
    # stdout is buffered, as from a shell, so that a short output meets a
    # full device or a broken pipe only when main flushes it
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if mode.startswith("reader"):
        # stdout is a pipe whose reader closes it after the first byte, or
        # before nqg starts
        r, w = os.pipe()
        if mode == "reader gone":
            os.close(r)
        proc = subprocess.Popen(
            [sys.executable, "-m", "nquasigroups.cli", *words], env=env,
            stdin=subprocess.DEVNULL, stdout=w, stderr=subprocess.PIPE)
        os.close(w)
        try:
            if mode == "reader closes early":
                assert os.read(r, 1)
                os.close(r)
            err = proc.stderr.read()
            assert (proc.wait(timeout=120), err) == (0, b"")
        finally:
            proc.kill()
            proc.wait()
        return
    redirect = {"stdin closed": "<&-", "stdout closed": ">&-",
                "stdout full": ">/dev/full"}.get(mode, ">/dev/null")
    done = subprocess.run(
        ["sh", "-c", 'exec "$@" %s' % redirect, "sh", sys.executable, "-m",
         "nquasigroups.cli", *words], env=env, capture_output=True, text=True,
        timeout=120)
    assert done.returncode in (0, 1, 2), done.stderr
    assert "Traceback" not in done.stderr
    if mode == "stdout full":
        # output that could not be written is an error, never a quiet 0
        assert (done.returncode, done.stderr) == (
            1, "error: [Errno 28] No space left on device\n")
