"""parse_function under generated text: every failure is a ParseError that
points inside the input.

The texts are PLA-shaped (directives, counts, cover rows, comments and
blank lines, each token drawn from valid and near-valid spellings) and
hex-shaped (key=value lines with valid and near-valid keys, counts and
digits), joined by newlines. parse_function must either return a table or
raise ParseError whose line is a line of the text (split at \\n, as the
parser counts them) and whose column lies on that line or just past its
end, where a missing value would start. Hypothesis runs derandomized with a
bounded example count, so each run draws the same texts.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from npnmatch.boolfn import TruthTable
from npnmatch.workbench import ParseError, parse_function

EXAMPLES = 300

FUZZ = settings(
    derandomize=True,
    max_examples=EXAMPLES,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

blank = st.sampled_from(["", " ", "\t", "  ", "\x0c", "\r"])
count = st.sampled_from(["0", "1", "2", "3", "4", "22", "23", "-1", "+2", "1_0", "x", "٣", ""])


def _line(*parts):
    return st.tuples(blank, *parts, blank).map("".join)


directive = _line(
    st.sampled_from([".i", ".o", ".p", ".e", ".x", ".", ".i2"]),
    st.one_of(st.tuples(blank, count).map("".join), st.just("")),
)
row = _line(
    st.text(alphabet="01-2x", max_size=5),
    st.sampled_from([" ", "\t", "  ", ""]),
    st.sampled_from(["1", "0", "", "11", "1 1"]),
)
comment = _line(st.just("#"), st.text(alphabet="ab .=", max_size=4))
# a valid header, often, so that rows and .e are reached past it
header = st.sampled_from(["", ".i 2\n.o 1", ".i 0", ".i 3\n.p 2", ".i 1\n.o 1\n1 1"])
pla_text = st.tuples(header, st.lists(st.one_of(directive, row, comment, blank), max_size=8)).map(
    lambda t: "\n".join([t[0], *t[1]])
)

key = st.sampled_from(["vars", "tt", "var", "", " vars", "tt ", "x"])
hex_value = st.one_of(count, st.text(alphabet="0123456789abcdefABCDEFgx_ -", max_size=9))
assignment = _line(key, st.sampled_from(["=", " = ", "", "=="]), hex_value)
hex_text = st.lists(st.one_of(assignment, comment, blank), max_size=5).map("\n".join)


def _inside(text):
    """Parse text; a ParseError must point at a line of it and at a column
    on that line or one past its end."""
    try:
        result = parse_function(text)
    except ParseError as err:
        lines = text.split("\n")
        assert 1 <= err.line <= len(lines), (text, err)
        assert 1 <= err.col <= len(lines[err.line - 1]) + 1, (text, err)
        return False
    assert isinstance(result, TruthTable)
    return True


@FUZZ
@given(pla_text)
def test_pla_shaped_text(text):
    _inside(text)


@FUZZ
@given(hex_text)
def test_hex_shaped_text(text):
    _inside(text)


@FUZZ
@given(st.tuples(st.one_of(pla_text, hex_text), st.text(max_size=3)))
def test_text_with_stray_characters(case):
    # any characters after either shape, non-ASCII and control ones included
    text, tail = case
    _inside(text + tail)


def test_the_strategies_reach_both_outcomes():
    # a fuzz run that only ever fails (or only parses) would check little
    outcomes = set()

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.one_of(pla_text, hex_text))
    def collect(text):
        outcomes.add(_inside(text))

    collect()
    assert outcomes == {True, False}
