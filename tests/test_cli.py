import errno
import io
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rholog
from rholog.cli import main, parse_args

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

MERGE_BATCH_EXPECTED = """\
?- ?(merge_all_proximals :: (a,b,d,b,c) ==> s_Ans, 0.5, Degree, Result).
Degree = 0.6,
Result = [s_Ans ---> (d,c)] ;
false.

?- ?(merge_all_proximals :: (a,b,d,b,c) ==> s_Ans, 0.7, Degree, Result).
Degree = 0.8,
Result = [s_Ans ---> (a,d,c)] ;
false.

?- ?(merge_all_proximals :: (b,d,b,c,a) ==> s_Ans, 0.5, Degree, Result).
Degree = 0.6,
Result = [s_Ans ---> (d,c,a)] ;
false.

?- ?(merge_all_proximals :: (b,d,b,c,a) ==> s_Ans, 0.7, Degree, Result).
Degree = 0.8,
Result = [s_Ans ---> (d,c,a)] ;
false.

"""

REWRITE_QUERY = "?(rewrite_step(st) :: f(f(g(a),a),a) ==> s_Out, Result)."
REWRITE_ANSWERS = [
    "Result = [s_Out ---> f(f(g(b),a),a)]",
    "Result = [s_Out ---> f(f(g(a),b),a)]",
    "Result = [s_Out ---> f(f(g(a),a),b)]",
]

MERGE_ARGS = [
    "--load", str(PROGRAMS / "proximity.rho"),
    "--prox", str(PROGRAMS / "proximity.prox"),
    "--query", "?(merge_all_proximals :: (a,b,d,b,c) ==> s_Ans, 0.5, Degree, Result).",
    "--query", "?(merge_all_proximals :: (a,b,d,b,c) ==> s_Ans, 0.7, Degree, Result).",
    "--query", "?(merge_all_proximals :: (b,d,b,c,a) ==> s_Ans, 0.5, Degree, Result).",
    "--query", "?(merge_all_proximals :: (b,d,b,c,a) ==> s_Ans, 0.7, Degree, Result).",
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBatch:
    def test_merge_session_transcript(self, capsys):
        code, out, err = run(capsys, MERGE_ARGS)
        assert code == 0
        assert err == ""
        assert out == MERGE_BATCH_EXPECTED

    def test_batch_output_is_stable_across_runs(self, capsys):
        _, first, _ = run(capsys, MERGE_ARGS)
        _, second, _ = run(capsys, MERGE_ARGS)
        assert first == second

    def test_sorting_session(self, capsys):
        code, out, err = run(capsys, [
            "--load", str(PROGRAMS / "sorting.rho"),
            "--query", "?(bubble_sort(=<) :: (1,3,4,3,2) ==> s_X, Result).",
        ])
        assert code == 0
        assert out == (
            "?- ?(bubble_sort(=<) :: (1,3,4,3,2) ==> s_X, Result).\n"
            "Result = [s_X ---> (1,2,3,3,4)] ;\n"
            "false.\n\n"
        )

    def test_rewriting_session(self, capsys):
        code, out, err = run(capsys, [
            "--load", str(PROGRAMS / "rewriting.rho"),
            "--query", "?(rewrite_step(st) :: f(f(g(a),a),a) ==> s_Out, Result).",
        ])
        assert code == 0
        assert out == (
            "?- ?(rewrite_step(st) :: f(f(g(a),a),a) ==> s_Out, Result).\n"
            "Result = [s_Out ---> f(f(g(b),a),a)] ;\n"
            "Result = [s_Out ---> f(f(g(a),b),a)] ;\n"
            "Result = [s_Out ---> f(f(g(a),a),b)] ;\n"
            "false.\n\n"
        )

    def test_answer_limit_suppresses_false(self, capsys):
        code, out, err = run(capsys, [
            "--load", str(PROGRAMS / "rewriting.rho"),
            "--answers", "2",
            "--query", "?(rewrite_step(st) :: f(f(g(a),a),a) ==> s_Out, Result).",
        ])
        assert code == 0
        assert out.count("Result =") == 2
        assert "false." not in out

    def test_answer_limit_never_reached_prints_false(self, capsys):
        code, out, err = run(capsys, [
            "--load", str(PROGRAMS / "rewriting.rho"),
            "--answers", "5",
            "--query", REWRITE_QUERY,
        ])
        assert code == 0 and err == ""
        assert out == f"?- {REWRITE_QUERY}\n" + " ;\n".join(REWRITE_ANSWERS) + " ;\nfalse.\n\n"

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_answer_limit_below_one_is_a_usage_error(self, capsys, limit):
        with pytest.raises(SystemExit) as exit_:
            main(["--answers", limit, "--query", "?(id :: a ==> s_X, Result)."])
        captured = capsys.readouterr()
        assert exit_.value.code == 2 and captured.out == ""
        assert captured.err.endswith("error: argument --answers: must be at least 1\n")

    def test_nf_limit_below_zero_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--nf-limit", "-1", "--query", "?(id :: a ==> s_X, Result)."])
        captured = capsys.readouterr()
        assert exit_.value.code == 2 and captured.out == ""
        assert captured.err.endswith("error: argument --nf-limit: must be at least 0\n")

    def test_nf_limit_zero_allows_no_nf_step(self, capsys):
        code, out, err = run(capsys, ["--nf-limit", "0",
                                      "--query", "?(id :: a ==> s_X, Result).",
                                      "--query", "?(nf(id) :: a ==> s_X, Result)."])
        assert code == 2
        assert out == ("?- ?(id :: a ==> s_X, Result).\nResult = [s_X ---> a] ;\nfalse.\n\n"
                       "?- ?(nf(id) :: a ==> s_X, Result).\n\n")
        assert err == "error: nf exceeded the step limit of 0\n"

    def test_nf_limit_n_allows_exactly_n_steps(self, capsys, tmp_path):
        program = tmp_path / "dec.rho"
        program.write_text("dec :: (a, s_X) ==> (s_X).\n", encoding="utf-8")
        query = "?(nf(dec) :: (a,a,a) ==> s_X, Result)."
        argv = ["--load", str(program), "--query", query, "--nf-limit"]
        assert run(capsys, argv + ["3"]) == (
            0, f"?- {query}\nResult = [s_X ---> eps] ;\nfalse.\n\n", "")
        assert run(capsys, argv + ["2"]) == (
            2, f"?- {query}\n\n", "error: nf exceeded the step limit of 2\n")

    def test_empty_query_list_runs_nothing(self, capsys):
        from rholog.cli import run_batch
        from rholog.engine import ClauseDB, EngineConfig
        from rholog.proximity import ProximityRelation

        code = run_batch([], ClauseDB(), ProximityRelation(), EngineConfig())
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "" and captured.err == ""

    def test_load_error_exit_code(self, capsys):
        code, out, err = run(capsys, ["--load", "no/such/file.rho"])
        assert code == 1
        assert "load error:" in err

    @pytest.mark.parametrize("option", ["--load", "--prox"])
    def test_missing_file_is_one_line_naming_it(self, capsys, tmp_path, option):
        missing = tmp_path / "nosuch"
        code, out, err = run(capsys, [option, str(missing)])
        assert code == 1
        assert err == f"load error: {missing}: {os.strerror(errno.ENOENT)}\n"

    def test_parse_error_in_program_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.rho"
        bad.write_text("st :: a ==> b", encoding="utf-8")
        code, out, err = run(capsys, ["--load", str(bad)])
        assert code == 1
        assert "load error:" in err

    @pytest.mark.parametrize("option", ["--load", "--prox"])
    def test_file_that_is_not_utf8_is_one_line_naming_it(self, capsys, tmp_path, option):
        bad = tmp_path / "latin1"
        bad.write_bytes(b"st :: \xe9 ==> b.")
        code, out, err = run(capsys, [option, str(bad)])
        assert code == 1
        assert err == (f"load error: {bad}: 'utf-8' codec can't decode byte 0xe9 "
                       "in position 6: invalid continuation byte\n")

    def test_non_decimal_digit_degree_is_a_load_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.prox"
        bad.write_text("prox(a, b, ²).", encoding="utf-8")
        code, out, err = run(capsys, ["--prox", str(bad)])
        assert code == 1
        assert err.startswith("load error: ") and err.count("\n") == 1

    def test_load_error_names_the_program_file(self, capsys, tmp_path):
        good, bad = tmp_path / "good.rho", tmp_path / "bad.rho"
        good.write_text("st :: a ==> b.\n", encoding="utf-8")
        bad.write_text("st :: a ==> b\nst2 :: a ==> b.\n", encoding="utf-8")
        code, out, err = run(capsys, ["--load", str(good), "--load", str(bad)])
        assert code == 1
        assert err == (f"load error: {bad}: unexpected 'st2' at line 2, column 1 "
                       "(expected '.')\n")

    def test_clause_error_names_the_file_of_the_clause(self, capsys, tmp_path):
        good, bad = tmp_path / "good.rho", tmp_path / "bad.rho"
        good.write_text("st :: a ==> b.\n", encoding="utf-8")
        bad.write_text("st :: b ==> c.\nid :: a ==> b.\n", encoding="utf-8")
        code, out, err = run(capsys, ["--load", str(bad), "--load", str(good)])
        assert code == 1
        assert err == f"load error: {bad}: strategy 'id' shadows a builtin strategy\n"

    def test_a_load_error_opens_each_program_file_once(self, capsys, tmp_path, monkeypatch):
        # so a pipe or a FIFO, which can be read only once, is named too
        good, bad = tmp_path / "good.rho", tmp_path / "bad.rho"
        good.write_text("st :: a ==> b.\n", encoding="utf-8")
        bad.write_text("st :: hole ==> a.\n", encoding="utf-8")
        opened = []

        def counted_open(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(rholog.cli, "open", counted_open, raising=False)
        code, out, err = run(capsys, ["--load", str(good), "--load", str(bad)])
        assert code == 1
        assert err == f"load error: {bad}: hole is not allowed in clauses: st :: hole ==> a.\n"
        assert opened == [str(good), str(bad)]

    def test_load_error_names_the_proximity_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.prox"
        bad.write_text("prox(a, b, 0.5).\nprox(a, c, 1.5).\n", encoding="utf-8")
        code, out, err = run(capsys, [
            "--load", str(PROGRAMS / "proximity.rho"), "--prox", str(bad),
        ])
        assert code == 1
        assert err == f"load error: {bad}: proximity degree must be in (0, 1], got 1.5\n"

    def test_small_degree_prints_without_an_exponent(self, capsys, tmp_path):
        rel = tmp_path / "small.prox"
        rel.write_text("prox(a, b, 0.0000001).\n", encoding="utf-8")
        query = "?(prox :: a ==> b, 0.0000001, Degree, Result)."
        code, out, err = run(capsys, ["--prox", str(rel), "--query", query])
        assert (code, err) == (0, "")
        assert out == f"?- {query}\nDegree = 0.0000001,\nResult = [] ;\nfalse.\n\n"

    @pytest.mark.parametrize("threshold", ["nan", "NaN", "sNaN", "0E5"])
    def test_threshold_that_is_not_a_number_is_a_query_error(self, capsys, threshold):
        code, out, err = run(capsys, ["--query", f"?(id :: a ==> s_X, {threshold}, D, R)."])
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_query_error_exit_code_and_continuation(self, capsys):
        code, out, err = run(capsys, [
            "--load", str(PROGRAMS / "sorting.rho"),
            "--query", "?(syntactically broken",
            "--query", "?(bubble_sort(=<) :: (2,1) ==> s_X, Result).",
        ])
        assert code == 2
        assert "error:" in err
        assert "Result = [s_X ---> (1,2)] ;" in out

    def test_name_without_candidates_fails_and_undeclared_name_is_an_error(
        self, capsys, tmp_path
    ):
        rules = tmp_path / "rules.rho"
        rules.write_text("p(a).\nst :: a ==> b.\n", encoding="utf-8")
        code, out, err = run(capsys, [
            "--load", str(rules),
            "--query", "?(st :: c ==> s_X, Result).",
            "--query", "?(p(c), Result).",
        ])
        assert code == 0 and err == ""
        assert out.count("false.") == 2
        for query, message in [("?(other :: a ==> s_X, Result).", "unknown strategy"),
                               ("?(q(a), Result).", "unknown predicate")]:
            code, out, err = run(capsys, ["--load", str(rules), "--query", query])
            assert code == 2
            assert message in err

    def test_runtime_error_is_reported_per_query(self, capsys):
        code, out, err = run(capsys, [
            "--query", "?(missing :: a ==> b, Result).",
        ])
        assert code == 2
        assert "unknown strategy" in err

    @pytest.mark.parametrize("goal", ["id :: f(hole) ==> s_X", "id :: a ==> f(hole)"])
    def test_hole_in_a_query_goal_is_a_query_error(self, capsys, goal):
        code, out, err = run(capsys, ["--query", f"?({goal}, Result)."])
        assert code == 2
        assert err == f"error: hole is not allowed in goals: {goal}\n"

    def test_answer_that_stdout_cannot_encode_is_a_query_error(
        self, capsys, monkeypatch, tmp_path
    ):
        rules = tmp_path / "rules.rho"
        rules.write_text("st :: a ==> caf\u00e9.\n", encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
        code = main(["--load", str(rules), "--query", "?(st :: a ==> s_X, R)."])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: 'ascii' codec can't encode character '\\xe9' in position 17: "
            "ordinal not in range(128)\n"
        )

    def test_padded_query_errors_at_the_column_of_its_echo(self, capsys, monkeypatch):
        query = "   ?(id :: a ==> s_X, R)"
        message = "unexpected end of input at line 1, column 22 (expected '.')"
        assert run(capsys, ["--query", query]) == (2, f"?- {query.strip()}\n\n",
                                                   f"error: {message}\n")
        monkeypatch.setattr("sys.stdin", io.StringIO(query + "\n"))
        assert run(capsys, [])[2] == f"error: {message}\n"

    def test_trace_goes_to_stderr(self, capsys):
        code, out, err = run(capsys, [
            "--load", str(PROGRAMS / "sorting.rho"),
            "--trace",
            "--query", "?(bubble_sort(=<) :: (2,1) ==> s_X, Result).",
        ])
        assert code == 0
        assert "select:" in err

    def test_each_trace_line_is_written_whole(self, monkeypatch):
        # one write per line, so a line that Ctrl-C cuts short cannot lose its
        # newline and run into the next message
        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        writes = []
        monkeypatch.setattr(sys, "stderr", Recorder())
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        code = main(["--load", str(PROGRAMS / "sorting.rho"), "--trace",
                     "--query", "?(bubble_sort(=<) :: (2,1) ==> s_X, Result)."])
        assert code == 0
        assert any(text.startswith("select: ") for text in writes)
        assert all(text.endswith("\n") and text.count("\n") == 1 for text in writes)


REWRITING = str(PROGRAMS / "rewriting.rho")


def first_rewrite_answers(n):
    return f"?- {REWRITE_QUERY}\n" + "".join(a + " ;\n" for a in REWRITE_ANSWERS[:n]) + "\n"


class TestCommandLine:
    """How options are read: the forms, their order and their errors."""

    @pytest.mark.parametrize("argv", [
        ["--answers=1", "--load", REWRITING, "--query", REWRITE_QUERY],
        ["--ans", "1", "--load", REWRITING, "--query", REWRITE_QUERY],
        ["--load=" + REWRITING, "--answers", "1", "--query", REWRITE_QUERY],
    ])
    def test_equals_and_prefix_forms(self, capsys, argv):
        assert run(capsys, argv) == (0, first_rewrite_answers(1), "")

    def test_query_before_load(self, capsys):
        argv = ["--query", REWRITE_QUERY, "--answers", "2", "--load", REWRITING]
        assert run(capsys, argv) == (0, first_rewrite_answers(2), "")

    def test_last_prox_file_wins(self, capsys, tmp_path):
        first, last = tmp_path / "first.prox", tmp_path / "last.prox"
        first.write_text("prox(a, b, 0.5).\n", encoding="utf-8")
        last.write_text("prox(a, b, 0.9).\n", encoding="utf-8")
        query = "?(prox :: a ==> b, 0.1, Degree, Result)."
        code, out, err = run(capsys, ["--prox", str(first), "--prox", str(last),
                                      "--answers", "1", "--query", query])
        assert (code, err) == (0, "")
        assert out == f"?- {query}\nDegree = 0.9,\nResult = [] ;\n\n"

    @pytest.mark.parametrize("argv, message", [
        (["--answers", "x", "--query", REWRITE_QUERY], "argument --answers: invalid int value: 'x'"),
        (["--query", REWRITE_QUERY, "--load"], "argument --load: expected one argument"),
        (["--bogus", "--query", REWRITE_QUERY], "unrecognized arguments: --bogus"),
        (["--trace=1", "--query", REWRITE_QUERY], "argument --trace: ignored explicit argument '1'"),
        (["-hx"], "argument --help: ignored explicit argument 'x'"),
        (["-h=x"], "argument --help: ignored explicit argument 'x'"),
    ])
    def test_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        captured = capsys.readouterr()
        assert exit_.value.code == 2 and captured.out == ""
        assert captured.err.endswith(f"error: {message}\n")

    def test_a_run_of_hs_is_help(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["-hh"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: rholog [-h]")

    def test_help_lists_every_option(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["-h"])
        out = capsys.readouterr().out
        assert exit_.value.code == 0
        for option in ["-h", "--help", "--load", "--prox", "--query", "--answers",
                       "--nf-limit", "--trace"]:
            assert option in out


class TestStartUp:
    """What answering the first query waits for besides the engine."""

    def test_import_loads_neither_argparse_nor_logging(self):
        src = Path(rholog.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c", "import sys, rholog.cli\n"
             "print(sorted({'argparse', 'logging'} & set(sys.modules)))"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=120,
        )
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # only what importing rholog adds counts: a site hook may load either first
        src = Path(rholog.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c", "import sys\nbefore = set(sys.modules)\nimport rholog.cli\n"
             "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=120,
        )
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr

    def test_import_loads_no_typing(self):
        # -S: without site, whose .pth hooks may import typing first
        src = Path(rholog.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-S", "-c", "import sys, rholog.cli\n"
             "print('typing' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=120,
        )
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr

    def test_many_queries_parse_in_linear_time_and_in_order(self):
        queries = [f"?(id :: a{i} ==> s_X, R)." for i in range(20_000)]
        argv = [word for query in queries for word in ("--query", query)]
        start = time.perf_counter()
        args = parse_args(argv)
        assert time.perf_counter() - start < 1.0
        assert args["--query"] == queries


BANNER = "rholog. Queries look like ?(st :: lhs ==> rhs, Result). Type halt. to quit.\n"


class TestRepl:
    def feed(self, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))

    def test_answer_stepping_to_exhaustion(self, capsys, monkeypatch):
        self.feed(monkeypatch, "?(bubble_sort(=<) :: (1,3,4,3,2) ==> s_X, Result).\n;\nhalt.\n")
        code, out, err = run(capsys, ["--load", str(PROGRAMS / "sorting.rho")])
        assert code == 0
        assert "Result = [s_X ---> (1,2,3,3,4)]" in out
        assert "false." in out

    def test_plain_enter_stops_stepping(self, capsys, monkeypatch):
        self.feed(monkeypatch, "?(rewrite_step(st) :: f(a,a) ==> s_O, Result).\n\nhalt.\n")
        code, out, err = run(capsys, ["--load", str(PROGRAMS / "rewriting.rho")])
        assert code == 0
        assert out.count("Result =") == 1
        assert "false." not in out

    def test_zero_answer_query_prints_false(self, capsys, monkeypatch):
        self.feed(monkeypatch, "?(id :: a ==> b, Result).\nhalt.\n")
        code, out, err = run(capsys, [])
        assert code == 0
        assert "false." in out

    def test_errors_do_not_end_the_session(self, capsys, monkeypatch):
        self.feed(
            monkeypatch,
            "?(unknown_thing :: a ==> b, Result).\n"
            "not a query at all\n"
            "?(id :: a ==> i_X, Result).\n\nhalt.\n",
        )
        code, out, err = run(capsys, [])
        assert code == 0
        assert "unknown strategy" in err
        assert "error:" in err
        assert "Result = [i_X ---> a]" in out

    def test_answer_limit_stops_stepping(self, capsys, monkeypatch):
        # the limit kicks in before any stepping prompt, so halt comes next
        self.feed(
            monkeypatch,
            "?(rewrite_step(st) :: f(a,a) ==> s_O, Result).\nhalt.\n",
        )
        code, out, err = run(capsys, [
            "--load", str(PROGRAMS / "rewriting.rho"), "--answers", "1",
        ])
        assert code == 0
        assert out.count("Result =") == 1
        assert "false." not in out

    def test_answer_limit_never_reached_steps_to_false(self, capsys, monkeypatch):
        self.feed(monkeypatch, f"{REWRITE_QUERY}\n;\n;\n;\nhalt.\n")
        code, out, err = run(capsys, [
            "--load", str(PROGRAMS / "rewriting.rho"), "--answers", "5",
        ])
        assert code == 0 and err == ""
        assert out.endswith("?- " + "\n".join(REWRITE_ANSWERS) + "\nfalse.\n?- ")

    def test_eof_ends_the_session(self, capsys, monkeypatch):
        self.feed(monkeypatch, "")
        code, out, err = run(capsys, [])
        assert code == 0
        assert out == BANNER + "?- \n" and err == ""

    def test_eof_while_stepping_ends_the_session(self, capsys, monkeypatch):
        self.feed(monkeypatch, "?(id :: a ==> i_X, Result).\n")
        code, out, err = run(capsys, [])
        assert code == 0
        assert out == BANNER + "?- Result = [i_X ---> a]\n?- \n" and err == ""

    def test_a_stdin_with_a_descriptor_is_read_up_to_each_newline(self, capsys, monkeypatch):
        # the reader the CLI uses on a real stdin: it restores the previous signal
        # wake-up descriptor and closes its pipe; a last line may lack its newline
        pipes, pipe = [], os.pipe
        monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
        read, write = pipe()
        with open(write, "w", encoding="utf-8") as sink:
            sink.write("?(id :: a ==> i_X, Result).\n;\nhalt.")
        before = signal.set_wakeup_fd(-1)
        signal.set_wakeup_fd(before)
        with open(read, encoding="utf-8") as stdin:
            monkeypatch.setattr("sys.stdin", stdin)
            code, out, err = run(capsys, [])
        assert (code, err) == (0, "")
        assert out == BANNER + "?- Result = [i_X ---> a]\nfalse.\n?- "
        assert signal.set_wakeup_fd(before) == before
        assert len(pipes) == 1
        for fd in pipes[0]:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_eof_on_a_stdin_with_a_descriptor_ends_the_session(self):
        src = Path(rholog.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "rholog.cli"], input="?(id :: a ==> i_X, Result).\n",
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == BANNER + "?- Result = [i_X ---> a]\n?- \n"

    def test_ctrl_c_stops_the_query_and_the_session_goes_on(self, tmp_path):
        program = tmp_path / "loop.rho"
        program.write_text("loop :: i_X ==> i_Y :- loop :: i_X ==> i_Y.\n", encoding="utf-8")
        src = Path(rholog.__file__).resolve().parent.parent
        with subprocess.Popen(
            [sys.executable, "-m", "rholog.cli", "--load", str(program), "--trace"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, preexec_fn=sigint_default,
        ) as proc:  # closes the pipes, so a failure leaves no ResourceWarning behind
            try:
                proc.stdin.write("?(loop :: a ==> i_Y, Result).\n")
                proc.stdin.flush()
                # the trace shows the loop running, so Ctrl-C reaches the query
                assert proc.stderr.readline().startswith("select: loop :: a ==> i_Y")
                proc.send_signal(signal.SIGINT)
                out, err = proc.communicate("?(id :: a ==> i_X, Result).\n\nhalt.\n", timeout=60)
            finally:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, err[-2000:]
        # a trace line cut short by the interrupt may precede the message
        assert "interrupted\n" in err and "Traceback" not in err
        assert out.endswith("?- ?- Result = [i_X ---> a]\n.\n?- ")

    def test_ctrl_c_at_the_prompt_prompts_again(self):
        src = Path(rholog.__file__).resolve().parent.parent
        with subprocess.Popen(
            [sys.executable, "-m", "rholog.cli"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, preexec_fn=sigint_default,
        ) as proc:  # closes the pipes, so a failure leaves no ResourceWarning behind
            try:
                seen = ""
                while not seen.endswith("?- "):  # the session waits at its first prompt
                    seen += proc.stdout.read(1) or pytest.fail(f"no prompt: {seen!r}")
                proc.send_signal(signal.SIGINT)
                select.select([proc.stderr], [], [], 10)[0] or pytest.fail(
                    "no interrupted within 10 s of one SIGINT at the prompt")
                assert proc.stderr.readline() == "interrupted\n"
                out, err = proc.communicate("?(id :: a ==> i_X, Result).\n\nhalt.\n", timeout=60)
            finally:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, err[-2000:]
        assert err == ""
        assert out == "?- Result = [i_X ---> a]\n.\n?- "


def sigint_default():
    """Give a child the default SIGINT action: one started from a shell that ignores
    SIGINT (``( pytest ... & )``) would inherit the ignoring and never see Ctrl-C."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def nest(depth, inner="a"):
    return "f(" * depth + inner + ")" * depth


class TestDeepTerms:
    @pytest.mark.parametrize("argv, answer", [
        ([f"?(id :: {nest(300)} ==> i_X, Result)."], f"[i_X ---> {nest(300)}]"),
        ([f"?(id :: {nest(1000)} ==> i_X, Result)."], f"[i_X ---> {nest(1000)}]"),
        ([f"?(rewrite_step(st) :: {nest(300)} ==> s_Out, Result).", "--answers", "1",
          "--load", REWRITING], f"[s_Out ---> {nest(300, 'b')}]"),
    ], ids=["id-300", "id-1000", "rewrite_step-300"])
    def test_a_deep_term_answers_through_the_command_line(self, capsys, argv, answer):
        code, out, err = run(capsys, ["--query", *argv])
        assert (code, err) == (0, "")
        assert f"Result = {answer} ;\n" in out


class TestProcessSettings:
    @pytest.mark.parametrize("argv", [
        ["--load", str(PROGRAMS / "sorting.rho"),
         "--query", "?(bubble_sort(=<) :: (3,1,2) ==> s_X, Result)."],
        ["--load", "no/such/file.rho"],
        ["--no-such-option"],
        ["--load", str(PROGRAMS / "sorting.rho")],  # REPL, ended by EOF
    ])
    def test_main_restores_the_recursion_limit(self, capsys, monkeypatch, argv):
        def eof(prompt=""):
            raise EOFError

        monkeypatch.setattr("builtins.input", eof)
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(3000)
        try:
            try:
                main(argv)
            except SystemExit:
                pass
            assert sys.getrecursionlimit() == 3000
        finally:
            sys.setrecursionlimit(before)
