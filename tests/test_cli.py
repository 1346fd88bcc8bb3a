import argparse
import ast
import json
import random
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from recmeasure import cli, nulltests
from recmeasure.cli import main
from recmeasure.codec import MAX_DIGITS, excerpt, logpart_size, s_index

from conftest import partial_products, sigma_carried, strings_up_to, table_file_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class Sink:
    """A stdout that counts the characters written to it and keeps none."""

    size = 0

    def write(self, text):
        self.size += len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


@pytest.fixture
def clopen_file(tmp_path):
    path = tmp_path / "clopen.txt"
    path.write_text("0\n10\n")
    return str(path)


@pytest.fixture
def bad_table_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("- 1\n0 1\n1 2\n")
    return str(path)


@pytest.fixture
def good_table_file(tmp_path):
    path = tmp_path / "good.txt"
    path.write_text("- 1\n0 3/2\n1 1/2\n")
    return str(path)


class TestExitCodes:
    def test_measure_ok(self, capsys, clopen_file):
        code, out = run_cli(capsys, "measure", clopen_file)
        assert code == 0
        assert "measure: 3/4" in out

    def test_validate_violation_exits_1(self, capsys, bad_table_file):
        code, out = run_cli(capsys, "validate", bad_table_file)
        assert code == 1
        assert "violation:" in out and "averaging" in out

    def test_validate_ok(self, capsys, good_table_file):
        code, out = run_cli(capsys, "validate", good_table_file)
        assert code == 0
        assert "valid: true" in out

    def test_unreadable_file_exits_2(self, capsys, tmp_path):
        code = main(["measure", str(tmp_path / "missing.txt")])
        assert code == 2

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("01x\n")
        assert main(["measure", str(path)]) == 2

    def test_missing_table_entry_names_file(self, capsys, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("- 1\n0 3/2\n")
        assert main(["validate", str(path)]) == 2
        assert f"{path}: table is missing the string '1'" in capsys.readouterr().err

    def test_sparse_deep_table_fails_fast(self, capsys, tmp_path):
        # ranks up to 2^61 named, two given: no slot is made past the entries
        path = tmp_path / "sparse.txt"
        path.write_text("- 1\n" + "0" * 60 + " 1\n")
        assert main(["validate", str(path)]) == 2
        assert f"{path}: table is missing the string '0'" in capsys.readouterr().err

    def test_empty_table_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n\n")
        assert main(["validate", str(path)]) == 2
        assert f"error: {path}: empty martingale table" in capsys.readouterr().err

    def test_exponent_value_exits_2_fast(self, tmp_path):
        # Fraction("1e400000000") would build a 400-million-digit integer
        path = tmp_path / "exponent.txt"
        path.write_text("- 1e400000000\n0 1\n1 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "recmeasure.cli", "validate", str(path)],
            capture_output=True, env=subprocess_env("0"), timeout=10,
        )
        assert proc.returncode == 2
        assert proc.stderr.decode() == f"error: {path}:1: bad rational '1e400000000'\n"

    def test_long_value_exits_2_fast(self, tmp_path):
        # int() of 400,000 digits is quadratic; the reader stops at 4300
        path = tmp_path / "long.txt"
        path.write_text("- " + "9" * 400_000 + "\n0 1\n1 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "recmeasure.cli", "validate", str(path)],
            capture_output=True, env=subprocess_env("0"), timeout=10,
        )
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith(f"error: {path}:1: bad rational '999")
        # the message shows the token's first characters and its length, not all of it
        assert len(proc.stderr) < 200 and b"(400000 chars)" in proc.stderr

    @pytest.mark.parametrize(
        "command, line",
        [("validate", "{word} 1\n"), ("measure", "{word}\n")],
        ids=["validate", "measure"],
    )
    def test_long_bad_word_message_is_short(self, capsys, tmp_path, command, line):
        path = tmp_path / "long.txt"
        path.write_text(line.format(word="01" * 100_000 + "x"))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1: not a binary string: '0101")
        assert len(err) < 200 and "(200001 chars)" in err

    def test_long_query_message_is_short(self, capsys, good_table_file):
        assert main(["trace", good_table_file, "--path", "01" * 50_000]) == 2
        err = capsys.readouterr().err
        assert err == f"error: query {'01' * 20!r}... (100000 chars) exceeds martingale depth 1\n"

    @pytest.mark.parametrize(
        "text, message",
        [("", ": empty parametrization"), ("012\n01\n", ":2: rows have differing lengths")],
        ids=["empty", "ragged"],
    )
    def test_bad_parametrization_names_file(self, capsys, tmp_path, text, message):
        # an empty file has no bad line; a ragged row is named at its line
        path = tmp_path / "rows.txt"
        path.write_text(text)
        assert main(["param", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}{message}\n"

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestUncaughtErrors:
    """A failure to compute exits 2 with a message; exit 1 is kept for violations."""

    @pytest.mark.parametrize(
        "exc",
        [RuntimeError("comparison failed"), RecursionError("too deep"),
         MemoryError("out of memory")],
        ids=["runtime", "recursion", "memory"],
    )
    def test_exits_2_with_the_message(self, capsys, monkeypatch, exc):
        def handler(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_dnr_cover", handler)
        assert main(["dnr-cover", "--e", "0", "--n", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {exc}\n"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize(
        "exc", [MemoryError(), BrokenPipeError(32, "Broken pipe")], ids=["memory", "pipe"])
    def test_a_failed_write_exits_2(self, capsys, monkeypatch, json_flag, exc):
        class FailingStdout:
            def write(self, text):
                raise exc

            writelines = write

        monkeypatch.setattr(sys, "stdout", FailingStdout())
        assert main([*json_flag, "dnr-cover", "--e", "0", "--n", "0"]) == 2
        # a MemoryError raised by an allocation has no message; its name stands in
        assert capsys.readouterr().err == f"error: {str(exc) or 'MemoryError'}\n"


class TestBadInputLines:
    """A bad token or a non-ASCII byte in any file format exits 2 naming path:lineno."""

    @pytest.mark.parametrize(
        "command, text, lineno, message",
        [
            (["validate"], b"- 1\n0 3/2\n2 1/2\n", 3, "not a binary string: '2'"),
            (["validate"], b"- 1\n0 3/2\n1 1/2 # caf\xe9\n", 3, "non-ASCII byte 0xe9"),
            (["validate"], b"- 1\n0 1.5\n1 1/2\n", 2, "bad rational '1.5'"),
            (["validate"], b"- 1\n0 3/2\n1 1/0\n", 3, "bad rational '1/0'"),
            (["validate"], b"- 1\n0 3/2\n-  2\n", 3, "duplicate entry for '-'"),
            (["validate"], b"- 1\n0 3/2 1\n", 2, "expected '<string> <value>'"),
            (["measure"], b"0\n# comment\n\n10\n1x\n", 5, "not a binary string: '1x'"),
            (["measure"], b"0\n\xff1\n", 2, "non-ASCII byte 0xff"),
            (["engulf", "--j", "0"], b"[level 0]\n-\n[level 1]\n0a\n", 4,
             "not a binary string: '0a'"),
            (["engulf", "--j", "0"], b"[level 0]\n-\n# \xc3\xa9\n", 3, "non-ASCII byte 0xc3"),
            (["engulf", "--j", "0"], b"[level 0]\n-\n[lvl 1]\n", 3, "bad section '[lvl 1]'"),
            (["engulf", "--j", "0"], b"[level 0]\n-\n[level x]\n", 3, "bad level index"),
            (["engulf", "--j", "0"], b"[level 0]\n-\n[level 0_0]\n", 3, "bad level index"),
            (["engulf", "--j", "0"], b"[level 0]\n-\n[level +1]\n", 3, "bad level index"),
            (["engulf", "--j", "0"], b"[level 0]\n-\n[level 2]\n", 3,
             "expected level 1, got 2"),
            (["engulf", "--j", "0"], b"# rows\n0\n[level 0]\n", 2,
             "generator before any [level i]"),
            (["param"], b"012\n\n0x1\n", 3, "row must be over 0/1/2"),
            (["param"], b"012\n\x80\n", 2, "non-ASCII byte 0x80"),
            (["param"], b"012\n\n01\n", 3, "rows have differing lengths"),
            (["validate"], b"- 1\r\n0 3/2\r\n1 1/2 1\r\n", 3, "expected '<string> <value>'"),
            (["measure"], b"0\n10\n1x", 3, "not a binary string: '1x'"),
            (["engulf", "--j", "0"], b"# a\n  # b\n#\n[level 0]\n-\n[level 1]\n0;\n", 7,
             "not a binary string: '0;'"),
        ],
        ids=["table-token", "table-byte", "table-decimal", "table-zero-denominator",
             "table-duplicate", "table-fields", "clopen-token", "clopen-byte",
             "kurtz-token", "kurtz-byte", "kurtz-section", "kurtz-index", "kurtz-index-underscore",
             "kurtz-index-sign", "kurtz-order",
             "kurtz-orphan", "param-token", "param-byte", "param-ragged", "table-crlf",
             "clopen-no-final-newline", "kurtz-after-comments"],
    )
    def test_exits_2_at_the_line(self, capsys, tmp_path, command, text, lineno, message):
        path = tmp_path / "input.txt"
        path.write_bytes(text)
        assert main([command[0], str(path), *command[1:]]) == 2
        # the whole stderr: one prefix, added once, and nothing else
        assert capsys.readouterr().err == f"error: {path}:{lineno}: {message}\n"


NATURAL = "must be a natural number"


# (option, argv, the message after "argument OPTION: "), one case for every
# natural-number option of every subcommand, plus --interval's own checks
NEGATIVE_OPTIONS = [
    pytest.param("--n", ["exceed", "--kernel", "savings-coincidence", "--depth", "4",
                         "--n", "-1"], NATURAL, id="n"),
    pytest.param("--depth", ["average", "--kernel", "coincidence", "--depth", "-1"], NATURAL,
                 id="depth"),
    pytest.param("--prefix-length", ["average", "--kernel", "prefix-coincidence",
                                     "--prefix-length", "-2", "--depth", "3"], NATURAL,
                 id="prefix-length"),
    pytest.param("--depth", ["exceed", "--kernel", "coincidence", "--depth", "-1", "--n", "1"],
                 NATURAL, id="exceed-depth"),
    pytest.param("--prefix-length", ["exceed", "--kernel", "prefix-coincidence",
                                     "--prefix-length", "-2", "--depth", "3", "--n", "1"],
                 NATURAL, id="exceed-prefix-length"),
    pytest.param("--depth", ["validate", "table.txt", "--depth", "-1"], NATURAL,
                 id="validate-depth"),
    pytest.param("--depth", ["trace", "--strategy", "pair-doubling", "--depth", "-4",
                             "--path", "0"], NATURAL, id="trace-depth"),
    pytest.param("--depth", ["adversary", "--strategy", "pair-doubling", "--depth", "-4"],
                 NATURAL, id="adversary-depth"),
    pytest.param("--length", ["adversary", "table.txt", "--length", "-1"], NATURAL,
                 id="adversary-length"),
    pytest.param("--k", ["budget", "--k", "-1"], NATURAL, id="budget-k"),
    pytest.param("--e", ["dnr-cover", "--e", "-1", "--n", "3"], NATURAL, id="dnr-cover-e"),
    pytest.param("--n", ["dnr-cover", "--e", "0", "--n", "-3"], NATURAL, id="dnr-cover-n"),
    pytest.param("--j", ["engulf", "row.txt", "--j", "-1"], NATURAL, id="engulf-j"),
    pytest.param("--str", ["codec", "--str", "-5"], NATURAL, id="codec-str"),
    pytest.param("--pair", ["codec", "--pair", "3", "-1"], NATURAL, id="codec-pair"),
    pytest.param("--s", ["codec", "--s", "-2", "4"], NATURAL, id="codec-s"),
    pytest.param("--interval", ["codec", "--interval", "pow2", "-1"], NATURAL,
                 id="codec-interval-m"),
    pytest.param("--interval", ["codec", "--interval", "pow2", "x"], NATURAL,
                 id="codec-interval-m-text"),
    pytest.param("--interval", ["codec", "--interval", "bogus", "3"],
                 "invalid family 'bogus'", id="codec-interval-family"),
]


class TestNegativeOptions:
    """Negative counts and unknown interval families are rejected at the option."""

    @pytest.mark.parametrize("option, argv, message", NEGATIVE_OPTIONS)
    def test_rejected_with_exit_2(self, capsys, option, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}: {message}" in captured.err

    def test_every_natural_option_has_a_case(self):
        # a natural-number option is added or removed only with its case above
        commands = next(action.choices for action in cli.build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        naturals = {
            (command, option)
            for command, parser in commands.items()
            for action in parser._actions if action.type is cli.natural
            for option in action.option_strings
        }
        cases = {(argv[0], option) for option, argv, _ in (p.values for p in NEGATIVE_OPTIONS)
                 if option != "--interval"}
        assert cases == naturals


NINES = "9" * 5000


class TestLongNumericOptions:
    """A numeric option has at most 4300 digits, and a bad one is echoed by 40 of them."""

    @pytest.mark.parametrize(
        "option, argv, message",
        [
            ("--str", ["codec", "--str", NINES], "must be a natural number, got "),
            ("--pair", ["codec", "--pair", "3", NINES], "must be a natural number, got "),
            ("--s", ["codec", "--s", NINES, "4"], "must be a natural number, got "),
            ("--interval", ["codec", "--interval", "logpart", NINES],
             "must be a natural number, got "),
            ("--parity", ["codec", "--parity", NINES], "invalid int value: "),
            ("--k", ["budget", "--k", NINES], "must be a natural number, got "),
            ("--depth", ["average", "--kernel", "coincidence", "--depth", NINES],
             "must be a natural number, got "),
        ],
        ids=["codec-str", "codec-pair", "codec-s", "codec-interval-m", "codec-parity",
             "budget-k", "depth"],
    )
    def test_rejected_with_a_short_message(self, capsys, option, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}: {message}{excerpt(NINES)}\n" in captured.err
        assert "9" * 41 not in captured.err

    def test_limit_is_4300_digits(self, capsys):
        assert run_cli(capsys, "codec", "--parity", "-" + "9" * 4300) == (
            0, f"parity(-{'9' * 4300}): 1\n")
        with pytest.raises(SystemExit):
            main(["codec", "--parity", "9" * 4301])
        assert "invalid int value: '9999" in capsys.readouterr().err

    def test_main_puts_back_the_int_digit_limit(self, capsys):
        # a good call, an error exit 2 and an argparse exit leave the limit as it was
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        assert main(["codec", "--num", "-"]) == 0
        assert limit() == before
        assert main(["codec"]) == 2
        assert limit() == before
        with pytest.raises(SystemExit):
            main(["codec", "--str", "x"])
        assert limit() == before


class TestCodecCommand:
    def test_num(self, capsys):
        code, out = run_cli(capsys, "codec", "--num", "10")
        assert code == 0 and "num(10): 5" in out

    def test_str(self, capsys):
        code, out = run_cli(capsys, "codec", "--str", "5")
        assert code == 0 and "str(5): 10" in out

    def test_empty_string_marker(self, capsys):
        code, out = run_cli(capsys, "codec", "--num", "-")
        assert code == 0 and "num(-): 0" in out

    def test_interval(self, capsys):
        code, out = run_cli(capsys, "codec", "--interval", "pow3", "1")
        assert code == 0 and "interval(pow3,1): 3..8" in out

    @pytest.mark.parametrize("family, line", [
        ("logpart", "interval(logpart,5): 16..19\n"),
        ("pow2", "interval(pow2,5): 33..64\n"),
        ("pow3", "interval(pow3,5): 243..728\n"),
    ])
    def test_interval_output_is_pinned(self, capsys, family, line):
        assert run_cli(capsys, "codec", "--interval", family, "5") == (0, line)

    @pytest.mark.parametrize("family, base, m_max", [("pow2", 2, 14283), ("pow3", 3, 9011)])
    def test_interval_power_limit(self, capsys, family, base, m_max):
        # the interval's last integer, about base^(M+1), is printed in full, so it
        # may have at most MAX_DIGITS digits: the rule that bounds exceed --n
        assert base ** (m_max + 1) < 10**MAX_DIGITS <= base ** (m_max + 2)
        code, out = run_cli(capsys, "codec", "--interval", family, str(m_max))
        assert code == 0 and out.startswith(f"interval({family},{m_max}): ")
        assert len(out.rstrip().rpartition("..")[2]) == MAX_DIGITS
        for m in (m_max + 1, 10**8):
            start = time.perf_counter()
            assert main(["codec", "--interval", family, str(m)]) == 2
            assert time.perf_counter() - start < 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: --interval {family} M must be at most {m_max}, the largest M for "
                f"which {base}^(M+1) has at most {MAX_DIGITS} digits\n")

    def test_parity(self, capsys):
        assert run_cli(capsys, "codec", "--parity", "-8") == (0, "parity(-8): 0\n")
        assert run_cli(capsys, "codec", "--parity", "-7") == (0, "parity(-7): 1\n")

    def test_no_option_is_an_error(self, capsys):
        assert main(["codec"]) == 2


class TestOtherCommands:
    def test_budget(self, capsys):
        code, out = run_cli(capsys, "budget", "--k", "1")
        assert code == 0
        assert "r_0: 1/4" in out and "r_1: 1/16" in out and "remainder: 1/8" in out

    def test_budget_weighted_sum_is_the_terms_sum(self, capsys):
        # the CLI prints 1/2 - remainder; it must equal sum (i+1)*r_i of the printed terms
        for k in [*range(201), 1500]:
            code, out = run_cli(capsys, "budget", "--k", str(k))
            values = dict(line.split(": ") for line in out.splitlines())
            assert code == 0 and len(values) == k + 3
            terms = [Fraction(values[f"r_{i}"]) for i in range(k + 1)]
            expected = sum((i + 1) * r for i, r in enumerate(terms))
            assert Fraction(values["weighted_partial_sum"]) == expected

    def test_budget_output_is_pinned(self, capsys):
        assert run_cli(capsys, "budget", "--k", "3") == (0, (
            "r_0: 1/4\nr_1: 1/16\nr_2: 1/64\nr_3: 1/128\n"
            "weighted_partial_sum: 29/64\nremainder: 3/64\n"))

    def test_trace_strategy(self, capsys):
        code, out = run_cli(
            capsys, "trace", "--strategy", "coincidence", "--ref", "000",
            "--path", "000",
        )
        assert code == 0 and "M(00): 9/4" in out

    def test_trace_table(self, capsys, good_table_file):
        code, out = run_cli(capsys, "trace", good_table_file, "--path", "0")
        assert code == 0 and "M(0): 3/2" in out

    def test_adversary(self, capsys):
        code, out = run_cli(
            capsys, "adversary", "--strategy", "coincidence", "--ref", "0000"
        )
        assert code == 0 and "adversary: 1111" in out

    def test_average(self, capsys):
        code, out = run_cli(
            capsys, "average", "--kernel", "coincidence", "--depth", "3"
        )
        assert code == 0 and "N(-): 1/1" in out

    def test_average_guard_checks_depth_first(self, capsys):
        # every kernel names the depth, before it builds any level list
        for kernel in cli.KERNELS:
            assert main(["average", "--kernel", kernel, "--depth", "21"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: depth 21 exceeds the enumeration guard 20\n"

    def test_average_guard(self, capsys):
        # a tree deeper than the guard is refused before any node is stepped
        assert main(["average", "--kernel", "constant", "--depth", "21"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: depth 21 exceeds the enumeration guard 20\n"

    def test_exceed_path_must_have_the_depth(self, capsys):
        argv = ["exceed", "--kernel", "coincidence", "--depth", "3", "--n", "0", "--path"]
        assert main([*argv, "01"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --path has length 2, not --depth 3\n"
        assert run_cli(capsys, *argv, "011")[0] == 0

    def test_exceed(self, capsys):
        code, out = run_cli(
            capsys, "exceed", "--kernel", "savings-coincidence",
            "--depth", "6", "--n", "2",
        )
        assert code == 0 and "measure:" in out and "bound: 1/2" in out

    def test_exceed_steps_only_the_default_path(self, capsys, monkeypatch):
        # the default path is the adversary of the average, found one node per
        # level without the 2^(d+1) - 1 node table; the kernel carries sigma in
        # its state, so each step shows the node it stands on
        from recmeasure import oracle

        calls = []

        def step(sigma, capital, fresh):
            calls.append(sigma)
            return oracle.coincidence_step(capital, fresh)

        def table(f, depth):
            raise AssertionError("exceed tabulated the average")

        monkeypatch.setitem(oracle.BUILTIN_KERNELS, "coincidence", lambda: oracle.TTFunctional(
            "coincidence", lambda n: n, (1, 1, ""), sigma_carried(step)))
        monkeypatch.setattr(oracle, "averaged_martingale", table)
        code, out = run_cli(capsys, "exceed", "--kernel", "coincidence", "--depth", "12", "--n", "3")
        assert code == 0 and "path: 000000000000\n" in out
        assert 0 < len(calls) < 1000
        assert set(calls) == {"0" * n for n in range(12)}

    def test_biased_coincidence_average(self, capsys):
        code, out = run_cli(capsys, "average", "--kernel", "biased-coincidence", "--depth", "2")
        assert code == 0 and out == (
            "kernel: biased-coincidence\nN(-): 1/1\nN(0): 5/4\nN(1): 3/4\n"
            "N(00): 25/16\nN(01): 15/16\nN(10): 15/16\nN(11): 9/16\n"
        )

    def test_biased_coincidence_exceed_default_path(self, capsys):
        # N(sigma1) = 3/4 N(sigma) < N(sigma0), so the adversary of the average is 1^d
        code, out = run_cli(capsys, "exceed", "--kernel", "biased-coincidence",
                            "--depth", "3", "--n", "0")
        assert code == 0 and out == (
            "kernel: biased-coincidence\npath: 111\nlevel: 0\nmeasure: 1/16\nbound: 2/1\n"
            "member_0: 111100\nmember_1: 111101\nmember_2: 111110\nmember_3: 111111\n"
        )

    def test_exceed_default_path_past_the_guard_depth(self, capsys):
        # one path of depth 21 is stepped, not a tree, so only the use is capped
        code, out = run_cli(capsys, "exceed", "--kernel", "constant", "--depth", "21", "--n", "1")
        assert code == 0 and f"path: {'0' * 21}\n" in out and "measure: 0/1" in out

    def test_exceed_n_limit_is_the_digit_limit(self):
        # 2^14284 has at most MAX_DIGITS digits and 2^14285 has more
        assert 2**14284 < 10**MAX_DIGITS <= 2**14285

    def test_exceed_n_at_the_limit(self, capsys):
        code, out = run_cli(capsys, "exceed", "--kernel", "coincidence", "--depth", "3",
                            "--n", "14284")
        assert code == 0 and f"bound: 1/{2**14283}\n" in out

    @pytest.mark.parametrize("n", ["14285", "1000000000000"])
    def test_exceed_n_above_the_limit_is_refused(self, capsys, n):
        start = time.perf_counter()
        assert main(["exceed", "--kernel", "coincidence", "--depth", "3", "--n", n]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --n must be at most 14284, the largest n for which 2^n has at most "
            "4300 digits\n")

    def test_engulf(self, capsys, tmp_path):
        row = tmp_path / "row.txt"
        row.write_text("[level 0]\n-\n[level 1]\n0\n[level 2]\n00\n[level 3]\n000\n")
        assert run_cli(capsys, "engulf", str(row), str(row), "--j", "1") == (
            0, "measure: 1/4\nbound: 3/8\ngenerator_0: 00\n")
        # rows 0..i of the union are the first i + 1 row files
        assert run_cli(capsys, "engulf", str(row), "--j", "1") == (
            0, "measure: 1/4\nbound: 1/4\ngenerator_0: 00\n")

    def test_dnr_cover(self, capsys):
        # P_0 is P_n here, and is written once
        code, out = run_cli(capsys, "dnr-cover", "--e", "0", "--n", "0")
        assert code == 0 and out == "P_0: 7/8\n"
        code, out = run_cli(capsys, "dnr-cover", "--e", "0", "--n", "1")
        assert code == 0 and out == "P_0: 7/8\nP_1: 105/128\n"

    def test_dnr_cover_violations_match_a_fraction_scan(self, capsys, monkeypatch):
        # a size-0 interval makes the factor 0 at n = 3, so P_4..P_6 stop decreasing
        zero_at = s_index(1, 3)

        def size(m):
            return 0 if m == zero_at else logpart_size(m)

        monkeypatch.setattr(nulltests, "logpart_size", size)
        partials = partial_products(1, 6, size)
        expected = [
            f"violation: partial product not strictly decreasing at n={i + 1}"
            for i, (a, b) in enumerate(zip(partials, partials[1:]))
            if b >= a
        ]
        code, out = run_cli(capsys, "dnr-cover", "--e", "1", "--n", "6")
        assert code == 1 and len(expected) == 3
        assert [line for line in out.splitlines() if line.startswith("violation:")] == expected

    def test_adversary_report_is_written_line_by_line(self, monkeypatch):
        # the M(prefix) labels make the report quadratic in the depth; building
        # it whole as well (lines, join, final newline) peaked near 4x its size
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            status = main(["adversary", "--strategy", "pair-doubling", "--depth", "3000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0 and sink.size > 3000**2 // 2
        assert peak < 2 * sink.size

    def test_adversary_labels_are_made_as_written(self, monkeypatch):
        # the trace itself is about a tenth of the report here; a list of
        # every M(prefix) label would be a whole copy of it
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        # loads the modules the command imports, outside the measurement
        assert main(["adversary", "--strategy", "pair-doubling", "--depth", "2"]) == 0
        sink.size = 0
        tracemalloc.start()
        try:
            status = main(["adversary", "--strategy", "pair-doubling", "--depth", "3000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0 and sink.size > 3000**2 // 2
        assert peak < sink.size // 5

    @pytest.mark.parametrize("argv, limit", [
        (["average", "--kernel", "constant", "--depth", "14"], 4 << 20),
        (["budget", "--k", "10000"], 12 << 20),
    ], ids=["average", "budget"])
    def test_report_lines_are_made_as_written(self, monkeypatch, argv, limit):
        # a list of every formatted line peaked at 6.6 and 23.2 MiB on CPython 3.11
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        # loads the modules the command imports, outside the measurement
        assert main(argv[:-1] + ["1"]) == 0
        tracemalloc.start()
        try:
            status = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0 and sink.size > 0
        assert peak < limit

    def test_dnr_cover_past_the_int_digit_limit(self, capsys):
        code, out = run_cli(capsys, "dnr-cover", "--e", "3", "--n", "900")
        assert code == 0
        num, den = next(
            line for line in out.splitlines() if line.startswith("P_900: ")
        ).removeprefix("P_900: ").split("/")
        assert len(den) > 4300
        # int(Decimal(...)) reads past the int-from-str limit, which main puts back
        assert Fraction(int(Decimal(num)), int(Decimal(den))) == partial_products(3, 900)[-1]

    def test_param(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("021\n222\n")
        code, out = run_cli(capsys, "param", str(path), "--target", "001")
        assert code == 0
        assert "row_0: consistent=true hits=2" in out
        assert "row_1: consistent=true hits=0" in out

    def test_param_halve(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1102\n")
        code, out = run_cli(capsys, "param", str(path), "--halve")
        assert code == 0 and "row_0: 10" in out

    def test_json_report(self, capsys, clopen_file):
        code, out = run_cli(capsys, "--json", "measure", clopen_file)
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "measure"
        assert ["measure", "3/4"] in report["results"]
        assert report["violations"] == []

    @pytest.mark.parametrize("argv", [
        ["trace", "--strategy", "pair-doubling", "--depth", "6", "--path", "001101"],
        ["adversary", "--strategy", "pair-doubling", "--depth", "6"],
        ["average", "--kernel", "savings-coincidence", "--depth", "4"],
        ["budget", "--k", "6"],
        ["exceed", "--kernel", "savings-coincidence", "--depth", "8", "--n", "1"],
    ], ids=["trace", "adversary", "average", "budget", "exceed"])
    def test_json_report_of_a_lazy_report(self, capsys, argv):
        # a report made as it is written gives JSON the same results
        code, text = run_cli(capsys, *argv)
        json_code, out = run_cli(capsys, "--json", *argv)
        assert code == json_code == 0
        results = json.loads(out)["results"]
        assert [f"{label}: {value}\n" for label, value in results] == text.splitlines(True)


class TestWordOptions:
    """Every word option reads its word as a table file does: ``-`` is the empty word."""

    def test_trace_empty_ref(self, capsys):
        argv = ["trace", "--strategy", "coincidence", "--ref", "-", "--path", "-"]
        assert run_cli(capsys, *argv) == (0, "M(-): 1/1\n")

    def test_adversary_empty_ref(self, capsys):
        argv = ["adversary", "--strategy", "coincidence", "--ref", "-"]
        assert run_cli(capsys, *argv) == (0, "adversary: -\nM(-): 1/1\n")

    def test_param_empty_target(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("021\n222\n")
        assert main(["param", str(path), "--target", "-"]) == 2
        assert capsys.readouterr() == ("", "error: target must be at least as long as the row\n")

    @pytest.mark.parametrize("argv", [
        ["codec", "--num", "0x1"],
        ["trace", "--strategy", "pair-doubling", "--depth", "3", "--path", "0x1"],
        ["trace", "--strategy", "coincidence", "--ref", "0x1", "--path", "-"],
        ["adversary", "--strategy", "coincidence", "--ref", "0x1"],
        ["exceed", "--kernel", "coincidence", "--depth", "3", "--n", "0", "--path", "0x1"],
        ["param", "ROWS", "--target", "0x1"],
    ], ids=["codec-num", "trace-path", "trace-ref", "adversary-ref", "exceed-path",
            "param-target"])
    def test_bad_word_exits_2(self, capsys, tmp_path, argv):
        rows = tmp_path / "p.txt"
        rows.write_text("021\n")
        assert main([str(rows) if a == "ROWS" else a for a in argv]) == 2
        assert capsys.readouterr() == ("", "error: not a binary string: '0x1'\n")


class TestInputSelection:
    """``trace`` and ``adversary`` take their martingale from one table file or one strategy."""

    @pytest.mark.parametrize("command, extra", [
        ("trace", ["--path", "0"]), ("adversary", []),
    ], ids=["trace", "adversary"])
    @pytest.mark.parametrize("choice, message", [
        (["--strategy", "coincidence"], "--strategy coincidence requires --ref"),
        (["--strategy", "pair-doubling"], "--strategy pair-doubling requires --depth"),
        (["TABLE", "--strategy", "coincidence", "--ref", "0"],
         "give either a table file or --strategy, not both"),
        ([], "give a table file or --strategy"),
    ], ids=["no-ref", "no-depth", "both", "neither"])
    def test_exits_2_with_the_message(self, capsys, good_table_file, command, extra, choice,
                                      message):
        argv = [command, *[good_table_file if a == "TABLE" else a for a in choice], *extra]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestPrefixCoincidenceKernel:
    def test_average_output_is_pinned(self, capsys):
        argv = ["average", "--kernel", "prefix-coincidence", "--prefix-length", "2", "--depth", "2"]
        assert run_cli(capsys, *argv) == (0, "kernel: prefix-coincidence(2)\n" + "".join(
            f"N({sigma}): 1/1\n" for sigma in ["-", "0", "1", "00", "01", "10", "11"]))

    def test_exceed_output_is_pinned(self, capsys):
        argv = ["exceed", "--kernel", "prefix-coincidence", "--prefix-length", "2",
                "--depth", "3", "--n", "0"]
        assert run_cli(capsys, *argv) == (0, (
            "kernel: prefix-coincidence(2)\npath: 000\nlevel: 0\n"
            "measure: 1/4\nbound: 2/1\nmember_0: 00\n"))


CORPUS = [
    ["codec", "--num", "111011"],
    ["codec", "--str", "1000"],
    ["codec", "--pair", "5", "9"],
    ["budget", "--k", "12"],
    ["trace", "--strategy", "pair-doubling", "--depth", "6", "--path", "001100"],
    ["adversary", "--strategy", "coincidence", "--ref", "0110"],
    ["average", "--kernel", "savings-coincidence", "--depth", "4"],
    ["exceed", "--kernel", "savings-coincidence", "--depth", "5", "--n", "1"],
    ["dnr-cover", "--e", "2", "--n", "30"],
    ["trace", "--strategy", "coincidence", "--ref", "-", "--path", "-"],
    ["adversary", "--strategy", "coincidence", "--ref", "-"],
]


def corpus_id(argv):
    """The subcommand, marked when it bets against the empty reference word."""
    empty_ref = "--ref" in argv and argv[argv.index("--ref") + 1] == "-"
    return f"{argv[0]}-empty-ref" if empty_ref else argv[0]


SRC = Path(__file__).resolve().parents[1] / "src"


def subprocess_env(hashseed):
    """A minimal environment that still imports the package from this checkout."""
    return {"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC),
            "PYTHONDONTWRITEBYTECODE": "1"}


def test_library_imports_only_the_stdlib():
    """The package's north star: every absolute import is stdlib or recmeasure."""
    for source in sorted((SRC / "recmeasure").glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "recmeasure", (source.name, name)


# Runs cli.main on argv in a fresh interpreter, then lists the watched and
# recmeasure modules it loaded on the last line of stderr, in load order
# (sys.modules keeps insertion order).
FOOTPRINT = """
import sys
from recmeasure import cli
code = cli.main(sys.argv[1:])
watched = {"json", "dataclasses", "inspect", "fractions", "decimal"}
print(*(m for m in sys.modules if m in watched or m.startswith("recmeasure")),
      file=sys.stderr)
sys.exit(code)
"""


def module_order(argv, status=0):
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv],
                          capture_output=True, env=subprocess_env("0"))
    assert proc.returncode == status, proc.stderr
    return proc.stderr.decode().splitlines()[-1].split(), proc.stdout


def loaded_modules(argv, status=0):
    modules, out = module_order(argv, status)
    return set(modules), out


class TestImports:
    """A process loads only the modules its subcommand runs."""

    def test_codec_loads_only_codec(self):
        modules, out = loaded_modules(["codec", "--num", "-"])
        assert modules == {"recmeasure", "recmeasure.cli", "recmeasure.codec"}
        assert out == b"num(-): 0\n"

    def test_measure_loads_no_martingale(self, clopen_file):
        modules, _ = loaded_modules(["measure", clopen_file])
        assert "recmeasure.nulltests" in modules
        assert not modules & {"recmeasure.martingale", "recmeasure.oracle",
                              "recmeasure.strategies", "recmeasure.param"}

    def test_validate_loads_no_oracle(self, good_table_file):
        modules, _ = loaded_modules(["validate", good_table_file])
        assert "recmeasure.martingale" in modules
        assert not modules & {"recmeasure.oracle", "recmeasure.nulltests",
                              "recmeasure.strategies", "recmeasure.param"}

    def test_trace_table_loads_no_strategies(self, good_table_file):
        modules, out = loaded_modules(["trace", good_table_file, "--path", "0"])
        assert out == b"M(-): 1/1\nM(0): 3/2\n"
        assert "recmeasure.martingale" in modules and "recmeasure.strategies" not in modules

    def test_param_loads_no_dataclasses_or_fractions(self, tmp_path):
        path = tmp_path / "rows.txt"
        path.write_text("0121\n2100\n")
        modules, _ = loaded_modules(["param", str(path), "--target", "0110"])
        assert "recmeasure.param" in modules
        assert not modules & {"dataclasses", "inspect", "fractions", "decimal"}

    @pytest.mark.parametrize("name, status", [
        ("codec", 0), ("codec-refused", 2), ("budget", 0), ("validate", 0),
        ("validate-planted", 1), ("json-validate-planted", 1), ("trace-table", 0),
        ("trace-coincidence", 0), ("adversary-table", 1), ("adversary-pair-doubling", 0),
        ("average", 0), ("average-refused", 2), ("exceed-coincidence", 0),
        ("exceed-savings", 0), ("exceed-refused", 2), ("measure", 0), ("engulf", 0),
        ("engulf-not-kurtz", 2), ("dnr-cover", 0), ("param", 0), ("param-halve", 0),
    ])
    def test_loads_no_fractions_or_decimal(self, tmp_path, good_table_file, bad_table_file,
                                           clopen_file, name, status):
        # every exact value is an int pair, so no path, not even a violation
        # or a refusal, loads fractions (and the decimal it imports)
        rising, row, bad_row, rows = (tmp_path / f for f in
                                      ("rising.txt", "row.txt", "not-kurtz.txt", "rows.txt"))
        rising.write_text("- 1\n0 2\n1 2\n")
        row.write_text("[level 0]\n0\n[level 1]\n00\n[level 2]\n000\n")
        bad_row.write_text("[level 0]\n0\n[level 1]\n-\n")
        rows.write_text("0121\n2100\n")
        kernel = ["--kernel", "coincidence", "--depth"]
        argv = {
            "codec": ["codec", "--num", "0110", "--pair", "3", "4"],
            "codec-refused": ["codec", "--interval", "pow2", "100000"],
            "budget": ["budget", "--k", "5"],
            "validate": ["validate", good_table_file],
            "validate-planted": ["validate", bad_table_file],
            "json-validate-planted": ["--json", "validate", bad_table_file],
            "trace-table": ["trace", good_table_file, "--path", "1"],
            "trace-coincidence": ["trace", "--strategy", "coincidence", "--ref", "01",
                                  "--path", "00"],
            "adversary-table": ["adversary", str(rising)],
            "adversary-pair-doubling": ["adversary", "--strategy", "pair-doubling",
                                        "--depth", "4"],
            "average": ["average", *kernel, "3"],
            "average-refused": ["average", *kernel, "21"],
            "exceed-coincidence": ["exceed", *kernel, "4", "--n", "0"],
            "exceed-savings": ["exceed", "--kernel", "savings-coincidence", "--depth", "4",
                               "--n", "1", "--path", "0110"],
            "exceed-refused": ["exceed", *kernel, "4", "--n", "20000"],
            "measure": ["measure", clopen_file],
            "engulf": ["engulf", str(row), "--j", "1"],
            "engulf-not-kurtz": ["engulf", str(bad_row), "--j", "0"],
            "dnr-cover": ["dnr-cover", "--e", "1", "--n", "6"],
            "param": ["param", str(rows), "--target", "0110"],
            "param-halve": ["param", str(rows), "--halve"],
        }[name]
        modules, _ = loaded_modules(argv, status)
        assert not modules & {"fractions", "decimal"}

    def test_oracle_import_loads_no_fractions_or_decimal(self):
        # the import that bench/functional_validate.py makes
        code = "import sys, recmeasure.oracle; print(*sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=subprocess_env("0"))
        assert proc.returncode == 0, proc.stderr
        modules = set(proc.stdout.decode().split())
        assert "recmeasure.oracle" in modules
        assert not modules & {"fractions", "decimal"}

    @pytest.mark.parametrize(
        "command", ["budget", "validate", "trace", "adversary", "measure", "engulf", "dnr-cover"])
    def test_loads_no_dataclasses(self, tmp_path, good_table_file, clopen_file, command):
        row = tmp_path / "row.txt"
        row.write_text("[level 0]\n0\n[level 1]\n00\n[level 2]\n000\n")
        argv = {
            "budget": ["budget", "--k", "3"],
            "validate": ["validate", good_table_file],
            "trace": ["trace", good_table_file, "--path", "0"],
            "adversary": ["adversary", good_table_file],
            "measure": ["measure", clopen_file],
            "engulf": ["engulf", str(row), "--j", "1"],
            "dnr-cover": ["dnr-cover", "--e", "1", "--n", "4"],
        }[command]
        modules, _ = loaded_modules(argv)
        assert not modules & {"dataclasses", "inspect"}

    def test_average_loads_no_nulltests(self):
        modules, out = loaded_modules(["average", "--kernel", "coincidence", "--depth", "2"])
        assert "recmeasure.oracle" in modules and "recmeasure.nulltests" not in modules
        assert out.startswith(b"kernel: coincidence\nN(-): 1/1\n")

    def test_average_loads_dataclasses(self):
        # oracle.TTFunctional stays a dataclass while bench/tracing.py calls
        # dataclasses.replace on it; ROADMAP item 2 lifts that.
        modules, _ = loaded_modules(["average", "--kernel", "coincidence", "--depth", "2"])
        assert "dataclasses" in modules

    def test_refused_average_loads_no_oracle(self):
        # the depth is checked against cli.GUARD before oracle or martingale loads
        modules, out = loaded_modules(["average", "--kernel", "coincidence", "--depth", "21"],
                                      status=2)
        assert out == b""
        assert not modules & {"recmeasure.oracle", "recmeasure.martingale",
                              "dataclasses", "fractions"}

    @pytest.mark.parametrize("argv", [
        None,
        ["exceed", "--kernel", "savings-coincidence", "--depth", "4", "--n", "1"],
        ["average", "--kernel", "coincidence", "--depth", "2"],
    ], ids=["import", "exceed", "average"])
    def test_oracle_compiles_its_modules_before_dataclasses(self, argv):
        # where a process compiles the package from source, a module compiled
        # after dataclasses (with inspect) sets the process's peak RSS
        if argv is None:
            code = "import sys, recmeasure.oracle; print(*sys.modules)"
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  env=subprocess_env("0"))
            assert proc.returncode == 0, proc.stderr
            modules = proc.stdout.decode().split()
        else:
            modules = module_order(argv)[0]
        first = modules.index("dataclasses")
        assert {"recmeasure.martingale", "recmeasure.strategies"} <= set(modules[:first])

    def test_json_loads_json(self):
        modules, out = loaded_modules(["--json", "codec", "--num", "-"])
        assert "json" in modules
        assert out == (
            b'{\n  "command": "codec",\n  "inputs": {\n    "command": "codec",\n'
            b'    "num": "-"\n  },\n  "results": [\n    [\n      "num(-)",\n      "0"\n'
            b'    ]\n  ],\n  "violations": []\n}\n'
        )

    def test_import_package_loads_no_submodule(self):
        # a fresh process, so no submodule imported by another test shows in dir()
        code = ("import sys, recmeasure;"
                " print(*sorted(m for m in sys.modules if 'recmeasure' in m));"
                " print([n for n in dir(recmeasure) if not n.startswith('_')])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=subprocess_env("0"))
        assert proc.stdout.splitlines() == [b"recmeasure", b"[]"], proc.stderr

    def test_kernel_options_match_oracle(self):
        from recmeasure import oracle

        assert cli.KERNELS == sorted(oracle.BUILTIN_KERNELS)

    def test_prefix_length_default_matches_oracle(self):
        # the kernel made with no argument, as bench/functional_validate.py
        # makes each, is the one the CLI makes without --prefix-length
        from recmeasure import oracle

        default = oracle.prefix_coincidence_functional().name
        for argv in (["average"], ["exceed", "--n", "0"]):
            args = cli.build_parser().parse_args(
                [*argv, "--kernel", "prefix-coincidence", "--depth", "1"])
            assert oracle.prefix_coincidence_functional(args.prefix_length).name == default

    def test_guard_matches_oracle(self):
        from recmeasure import oracle

        assert cli.GUARD == oracle.GUARD


class TestBenchTracer:
    """bench/tracing.py still fits the classes and functions it wraps."""

    def test_traced_runs_match_untraced(self, capsys, monkeypatch, clopen_file, tmp_path):
        from recmeasure import nulltests

        row = tmp_path / "row.txt"
        row.write_text("[level 0]\n-\n[level 1]\n0\n[level 2]\n00\n[level 3]\n000\n")
        table = tmp_path / "table.txt"
        table.write_text("".join(f"{sigma or '-'} 1\n" for sigma in strings_up_to(3)))
        rows = tmp_path / "rows.txt"
        rows.write_text("0120\n2211\n")
        runs = [["measure", clopen_file], ["average", "--kernel", "coincidence", "--depth", "3"],
                ["engulf", str(row), str(row), "--j", "1"],
                ["exceed", "--kernel", "savings-coincidence", "--depth", "4", "--n", "1",
                 "--path", "0110"],
                ["validate", str(table)], ["param", str(rows), "--target", "0111"],
                ["budget", "--k", "5"]]
        untraced = [run_cli(capsys, *argv) for argv in runs]
        monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
        import tracing

        check = nulltests.ClopenSet.__post_init__
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = [(cli.main(argv), capsys.readouterr().out) for argv in runs]
        finally:
            tracer.uninstall()
        assert traced == untraced
        assert {"nulltests.antichain_check", "nulltests.engulf_transform", "oracle.exceed_set",
                "martingale.load_table", "param.load", "nulltests.load",
                "codec.budget_sequence"} <= {span[0] for span in tracer.spans}
        assert tracer.counts["martingale.load_table.lines"] == len(table.read_text().splitlines())
        assert nulltests.ClopenSet.__post_init__ is check

    def test_traced_strategies_match_untraced(self, capsys, monkeypatch):
        # the tracer rebuilds StrategyMartingale(depth, start, step) positionally
        # and counts each step call
        runs = [["trace", "--strategy", "coincidence", "--ref", "0110", "--path", "0110"],
                ["adversary", "--strategy", "pair-doubling", "--depth", "6"]]
        untraced = [run_cli(capsys, *argv) for argv in runs]
        monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = [(cli.main(argv), capsys.readouterr().out) for argv in runs]
        finally:
            tracer.uninstall()
        assert traced == untraced
        # 4 steps along the traced path; adversary steps its 6-bit path once to
        # choose it and once more in capital_trace
        assert tracer.counts["martingale.rule.calls"] == 4 + 2 * 6

    def test_exceed_set_normalize_is_traced(self, monkeypatch):
        # exceed_set imports normalize when it runs, so it calls the tracer's wrapper
        from recmeasure import oracle

        monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            ex = oracle.exceed_set(oracle.savings_functional(
                oracle.oracle_coincidence_functional()), "0110", 1)
        finally:
            tracer.uninstall()
        assert tracer.counts["nulltests.normalize.words_out"] == len(ex.generators) > 0
        assert "nulltests.normalize" in {span[0] for span in tracer.spans}


def run_subprocess(argv, hashseed):
    return subprocess.run(
        [sys.executable, "-m", "recmeasure.cli", *argv],
        capture_output=True,
        env=subprocess_env(hashseed),
    )


class TestBenchValidateScript:
    """bench/functional_validate.py runs on every built-in kernel."""

    @pytest.mark.parametrize("name", cli.KERNELS)
    def test_builtin_kernels_validate(self, capsys, monkeypatch, name):
        monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
        import functional_validate

        assert functional_validate.main([name, "4"]) == 0
        assert capsys.readouterr().out.endswith("\nviolations: 0\n")


class TestDeterminism:
    @pytest.mark.parametrize("argv", CORPUS, ids=corpus_id)
    def test_byte_identical_across_processes(self, argv):
        first = run_subprocess(argv, "0")
        second = run_subprocess(argv, "424242")
        assert first.returncode == second.returncode == 0, first.stderr
        assert first.stdout == second.stdout

    @pytest.mark.parametrize("command", ["validate", "adversary"])
    def test_table_commands_deterministic(self, tmp_path, command):
        text, _ = table_file_text(random.Random(8), 8)
        path = tmp_path / "table8.txt"
        path.write_text(text)
        procs = [run_subprocess([command, str(path)], seed) for seed in ("1", "7", "99")]
        for proc in procs:
            assert proc.returncode in (0, 1), proc.stderr
            assert proc.stdout.count(b"\n") > 8
        assert procs[0].stdout == procs[1].stdout == procs[2].stdout

    def test_json_mode_deterministic(self, clopen_file):
        argv = ["--json", "measure", clopen_file]
        procs = [run_subprocess(argv, seed) for seed in ("1", "7", "99")]
        for proc in procs:
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout
        assert procs[0].stdout == procs[1].stdout == procs[2].stdout

    def test_engulf_deterministic(self, tmp_path):
        rng = random.Random(4)
        rows = []
        for r in range(2):
            lines = []
            for i in range(5):
                # 60 words of length i + 7 keep the measure <= 2^-i;
                # their extensions are covered and normalize drops them
                words = {format(rng.getrandbits(i + 7), f"0{i + 7}b") for _ in range(60)}
                words |= {w + format(rng.getrandbits(3), "03b") for w in sorted(words)[:20]}
                lines += [f"[level {i}]", *sorted(words)]
            path = tmp_path / f"row{r}.txt"
            path.write_text("\n".join(lines) + "\n")
            rows.append(str(path))
        argv = ["engulf", *rows, "--j", "1"]
        procs = [run_subprocess(argv, seed) for seed in ("1", "7", "99")]
        for proc in procs:
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.count(b"generator_") > 60
        assert procs[0].stdout == procs[1].stdout == procs[2].stdout
