"""Property tests: no source text makes the front end raise anything but FormError."""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from formc import dsl

FORMS_DIR = Path(__file__).resolve().parent.parent / "forms"
SOURCES = [p.read_text() for p in sorted(FORMS_DIR.glob("*.form"))]
# Pieces that once reached, or sit next to, a traceback: digits that are not
# decimal, non-ASCII decimal digits, unterminated strings, continuations.
FRAGMENTS = [
    "²", "½", "٣", "2²", '"', "\\\n", "\\", "#", "(", ")", "*dx", "1e999", ".", "1.", "é",
]

_SETTINGS = settings(max_examples=300)


def _parses_or_form_error(source: str) -> None:
    try:
        kinds = " ".join(t.kind for t in dsl.tokenize(source))
        # the parser skips no newline: none leads, and none follows another
        assert not kinds.startswith("newline") and "newline newline" not in kinds, kinds
        dsl.parse_source(source)
    except dsl.FormError:
        pass


@_SETTINGS
@given(st.text())
def test_any_text_parses_or_raises_form_error(source):
    _parses_or_form_error(source)


def _splice(source: str, splices) -> str:
    for where, cut, fragment in splices:
        at = int(where * len(source))
        source = source[:at] + fragment + source[at + cut :]
    return source


# A form file with up to four pieces cut out and text or fragments put in.
SPLICED_SOURCES = st.builds(
    _splice,
    st.sampled_from(SOURCES),
    st.lists(
        st.tuples(
            st.floats(0, 1),
            st.integers(0, 3),
            st.one_of(st.text(max_size=6), st.sampled_from(FRAGMENTS)),
        ),
        min_size=1,
        max_size=4,
    ),
)


@_SETTINGS
@given(SPLICED_SOURCES)
def test_spliced_form_files_parse_or_raise_form_error(source):
    _parses_or_form_error(source)
