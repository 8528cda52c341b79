import gc
import io
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from conftest import prefix
from streamgen import gen2lazy, line_reader, map1, reduce_stream, scan, take, token_reader
from streamgen.lang import LexError, tokenize
from streamgen.values import INT_DIGITS


class CountingFile(io.StringIO):
    """StringIO that counts close calls and can fail mid-read."""

    def __init__(self, text, fail_after=None):
        super().__init__(text)
        self.close_calls = 0
        self.reads = 0
        self.fail_after = fail_after

    def close(self):
        self.close_calls += 1
        super().close()

    def readline(self, *args):
        self.reads += 1
        if self.fail_after is not None and self.reads > self.fail_after:
            raise OSError("disk on fire")
        return super().readline(*args)


def test_token_reader_mixed_tokens(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("1 2 foo\n")
    g = token_reader(str(path))
    assert list(g) == [1, 2, "foo"]
    assert g.is_done()


def test_token_reader_long_line_roundtrip():
    tokens = [i if i % 3 else "s%d" % i for i in range(100_000)]
    f = CountingFile(" ".join(map(str, tokens)) + "\n")
    g = token_reader(f)
    assert list(g) == tokens
    assert f.close_calls == 1


def test_token_reader_empty_file_closes():
    f = CountingFile("")
    g = token_reader(f)
    assert g.ask() is None
    assert f.close_calls == 1


def test_token_reader_nonexistent_path_fails_at_construction(tmp_path):
    with pytest.raises(OSError):
        token_reader(str(tmp_path / "missing.txt"))


def test_close_exactly_once_on_exhaustion():
    f = CountingFile("a b c\n")
    g = token_reader(f)
    assert list(g) == ["a", "b", "c"]
    g.stop()
    assert f.close_calls == 1


def test_close_exactly_once_on_stop():
    f = CountingFile("a b c d e\n")
    g = token_reader(f)
    assert prefix(2, take(2, g)) == ["a", "b"]
    g.stop()
    g.stop()
    assert f.close_calls == 1


def test_take_then_stop_releases_handle():
    f = CountingFile("1 2 3 4 5 6 7 8\n")
    g = take(2, token_reader(f))
    assert list(g) == [1, 2]
    # take exhausting by count stops the underlying reader
    assert f.close_calls == 1


def test_mid_read_error_closes_and_sticks():
    f = CountingFile("1 2\n3 4\n", fail_after=1)
    g = token_reader(f)
    assert g.ask() == 1
    assert g.ask() == 2
    with pytest.raises(OSError):
        g.ask()
    assert f.close_calls == 1
    assert g.ask() is None


def test_line_reader(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text("a\nb\n")
    assert list(line_reader(str(path))) == ["a", "b"]


def test_line_reader_unterminated_final_line():
    assert list(line_reader(io.StringIO("a"))) == ["a"]


def test_line_reader_strips_crlf():
    assert list(line_reader(io.StringIO("a\r\nb\n"))) == ["a", "b"]


def test_line_reader_stop_closes():
    f = CountingFile("a\nb\nc\n")
    g = line_reader(f)
    assert g.ask() == "a"
    g.stop()
    assert f.close_calls == 1


def test_pipeline_prefix_sums(tmp_path):
    path = tmp_path / "nums.txt"
    numbers = [3, 1, 4, 1, 5, 9, 2, 6]
    path.write_text(" ".join(map(str, numbers)) + "\n")
    got = list(scan(lambda a, b: a + b, 0, token_reader(str(path))))
    acc, expected = 0, []
    for x in numbers:
        acc += x
        expected.append(acc)
    assert got == expected


def test_pipeline_reduce(tmp_path):
    path = tmp_path / "nums.txt"
    path.write_text("10 20 30\n")
    assert reduce_stream(lambda a, b: a + b, 0, token_reader(str(path))).ask() == 60


def _read_one(source):
    source.ask()
    return source


def _read_head(lst):
    lst.head()
    return lst


# What is left holding a reader (unread, or after one element) when dropped.
DROPS = {
    "unread": lambda reader: reader,
    "direct": _read_one,
    "map1": lambda reader: _read_one(map1(str, reader)),
    "gen2lazy": lambda reader: _read_head(gen2lazy(reader)),
}


@pytest.mark.parametrize("read", [token_reader, line_reader], ids=["token_reader", "line_reader"])
@pytest.mark.parametrize("drop", list(DROPS))
def test_dropping_a_reader_closes_its_file_once(read, drop):
    f = CountingFile("a b\nc d\n")
    held = DROPS[drop](read(f))
    assert f.close_calls == 0
    del held
    gc.collect()
    assert f.close_calls == 1


@pytest.mark.parametrize("drop", list(DROPS))
def test_dropping_a_reader_leaves_no_unclosed_file(tmp_path, drop):
    path = tmp_path / "data.txt"
    path.write_text("a b\nc d\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        held = DROPS[drop](token_reader(str(path)))
        del held
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


# One INT rule: a token is an int exactly when the lexer reads it as one INT.


def _lexer_int(text):
    """The int the lexer reads ``text`` as, or None if it is not one INT."""
    try:
        tokens = tokenize(text)
    except LexError:
        return None
    if [t.kind for t in tokens] != ["INT", "END"]:
        return None
    return int(tokens[0].text)


_TOKEN_CHARS = "0123456789-+_\u0661\u00b2abzAZ"
_token_texts = st.one_of(
    st.text(_TOKEN_CHARS, min_size=1, max_size=8),
    # Around the 640-digit limit, sometimes with one other character inside.
    st.builds(
        lambda sign, digits, other, at: sign + digits[:at] + other + digits[at:],
        st.sampled_from(["", "-", "+", "--"]),
        st.text("0123456789", min_size=636, max_size=644),
        st.sampled_from([""] * len(_TOKEN_CHARS) + list(_TOKEN_CHARS)),
        st.integers(0, 644),
    ),
)


def test_int_digits_are_the_ascii_characters_isdigit_accepts():
    assert "".join(c for c in map(chr, range(128)) if c.isdigit()) == INT_DIGITS


@settings(max_examples=200, deadline=None)
@given(st.lists(_token_texts, min_size=1, max_size=6))
def test_token_reader_int_rule_is_the_lexers(texts):
    read = list(token_reader(io.StringIO(" ".join(texts) + "\n")))
    assert len(read) == len(texts)
    for text, token in zip(texts, read):
        expected = _lexer_int(text)
        if expected is None:
            assert token == text and type(token) is str, text
        else:
            assert type(token) is int and token == expected == int(text), text


@pytest.mark.parametrize(
    "text, expected",
    [
        ("\u0661\u0662", None),  # Arabic-Indic digits
        ("\u00b2", None),  # a superscript two: str.isdigit() holds
        ("+5", None),
        ("1_000", None),
        ("-", None),
        ("-x", None),
        ("--5", None),
        ("-0", 0),
        ("007", 7),
        pytest.param("9" * 640, int("9" * 640), id="640_digits"),
        pytest.param("-" + "9" * 640, -int("9" * 640), id="minus_640_digits"),
        pytest.param("9" * 641, None, id="641_digits"),
    ],
)
def test_token_reader_int_cases(text, expected):
    assert _lexer_int(text) == expected
    (token,) = token_reader(io.StringIO(text))
    if expected is None:
        assert token == text
    else:
        assert type(token) is int and token == expected
