import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import streamgen
from streamgen.cli import main


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_eval_product_expression():
    code, out = run(["eval", "[a,b]*(1:4)", "--take", "6"])
    assert code == 0
    assert out == "[a-1, b-1, b-2, a-2, b-3, a-3]\n"


def test_eval_default_take():
    code, out = run(["eval", "nat"])
    assert code == 0
    assert out == "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]\n"


def test_eval_output_matches_show(capsys):
    from streamgen import core, lang

    code, out = run(["eval", "{[a,b,a]}+(1:3)*c", "--take", "7"])
    source = lang.eval_expr(
        lang.parse_text("{[a,b,a]}+(1:3)*c"), lang.default_env(42)
    )
    assert out == core.show(7, source) + "\n"
    assert code == 0


def test_eval_seed_changes_rand(capsys):
    _, out1 = run(["eval", "rand", "--take", "3", "--seed", "1"])
    _, out2 = run(["eval", "rand", "--take", "3", "--seed", "2"])
    _, out3 = run(["eval", "rand", "--take", "3", "--seed", "1"])
    assert out1 == out3
    assert out1 != out2


def test_eval_syntax_error_exits_2(capsys):
    code, _ = run(["eval", "(", "--take", "3"])
    assert code == 2
    assert "syntax error" in capsys.readouterr().err


def test_eval_lex_error_exits_2(capsys):
    code, _ = run(["eval", "@@@"])
    assert code == 2


def test_eval_take_beyond_sys_maxsize():
    assert run(["eval", "1:3", "--take", "99999999999999999999"]) == (0, "[1, 2]\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("\u00b2", "lexical error at 0: unexpected character '\u00b2'"),
        ("1:\u0663", "lexical error at 2: unexpected character '\u0663'"),
        ("1+" + "9" * 5000, "lexical error at 2: integer literal longer than 640 digits"),
        ("-" + "9" * 641, "lexical error at 0: integer literal longer than 640 digits"),
    ],
    ids=["superscript-two", "arabic-indic-three", "digits-5000", "digits-641"],
)
def test_eval_bad_integer_literal_exits_2(capsys, text, message):
    assert run(["eval", text]) == (2, "")
    assert capsys.readouterr().err == "error: %s\n" % message


def test_longest_integer_literal_evaluates():
    big = "-" + "9" * 640
    assert run(["eval", big, "--take", "1"]) == (0, "[%s]\n" % big)


def test_unknown_flag_exits_2(capsys):
    code, _ = run(["eval", "nat", "--bogus"])
    assert code == 2


def test_missing_subcommand_exits_2(capsys):
    code, _ = run([])
    assert code == 2


def test_demo_passes():
    code, out = run(["demo"])
    assert code == 0, out
    assert "MISMATCH" not in out
    lines = [l for l in out.splitlines() if l.startswith("ok")]
    assert len(lines) == 7


def test_bench_single_impl_line_format():
    code, out = run(["bench", "--op", "nat_sum", "--n", "1000", "--impl", "generator"])
    assert code == 0
    line = out.splitlines()[0]
    fields = dict(kv.split("=") for kv in line.split())
    assert fields["impl"] == "generator"
    assert fields["op"] == "nat_sum"
    assert fields["n"] == "1000"
    assert float(fields["eps"]) > 0


def test_bench_both_reports_two_lines_and_ratio():
    code, out = run(["bench", "--op", "nat_sum", "--n", "1000"])
    assert code in (0, 3)
    lines = out.splitlines()
    assert lines[0].startswith("impl=generator ")
    assert lines[1].startswith("impl=lazylist ")
    assert lines[2].startswith("ratio=")


def test_bench_map_chain_and_prod_prefix_agree():
    for op in ("map_chain", "prod_prefix"):
        code, out = run(["bench", "--op", op, "--n", "500"])
        assert code in (0, 3), (op, out)
        assert "ratio=" in out


def test_bench_rejects_bad_size(capsys):
    code, _ = run(["bench", "--n", "0"])
    assert code == 2


def test_python_dash_m_runs_the_cli():
    src = str(Path(streamgen.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "streamgen", "eval", "1:3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "[1, 2]\n"


@pytest.mark.parametrize(
    "text",
    [
        "(" * 5000 + "nat" + ")" * 5000,
        "+".join(["1"] * 5000),
        "*".join(["1"] * 3000),
    ],
    ids=["parens-5000", "sum-5000", "product-3000"],
)
def test_eval_too_deep_exits_2(capsys, text):
    code, out = run(["eval", text, "--take", "3"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == "error: expression nested too deeply\n"


def test_successive_main_calls_share_no_state(capsys):
    assert run(["eval", "nat", "--bogus"]) == (2, "")
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert run(["eval", "[a,b]*(1:4)", "--take", "2"]) == (0, "[a-1, b-1]\n")
    assert run(["eval", "nat"]) == (0, "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]\n")
    assert capsys.readouterr().err == ""
