"""The one-pass definition scanner against the html.parser collector it replaced."""

from html.parser import HTMLParser

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexgender.providers.htmlextract import DIALECTS, extract_definitions_html

_VOID_TAGS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}


def _has_class(attrs, wanted):
    for name, value in attrs:
        if name == "class" and value and wanted in value.split():
            return True
    return False


class _DefinitionCollector(HTMLParser):
    """The html.parser-based extractor, kept as the reference for the scanner."""

    def __init__(self, rules):
        super().__init__(convert_charrefs=True)
        self.rules = rules
        self.definitions = []
        self._depth = 0  # > 0 while inside a definition element
        self._pos_pending = False
        self._current_pos = "noun" if rules.pos_tag is None else ""
        self._buf = []

    def handle_starttag(self, tag, attrs):
        if tag in _VOID_TAGS:
            if self._depth:  # a <br> inside a definition separates words
                self._buf.append(" ")
            return
        rules = self.rules
        if self._depth:
            self._depth += 1
            return
        if tag == rules.definition_tag and _has_class(attrs, rules.definition_class):
            if self._current_pos == "noun":
                self._depth = 1
                self._buf = []
        elif rules.pos_tag and tag == rules.pos_tag and _has_class(attrs, rules.pos_class):
            self._pos_pending = True
            self._current_pos = ""

    def handle_endtag(self, tag):
        if tag in _VOID_TAGS:
            return
        if self._depth:
            self._depth -= 1
            if self._depth == 0:
                text = " ".join("".join(self._buf).split())
                for prefix in self.rules.strip_prefixes:
                    if text.startswith(prefix):
                        text = text[len(prefix):].lstrip()
                        break
                if text:
                    self.definitions.append(text)
        elif self._pos_pending:
            self._pos_pending = False

    def handle_data(self, data):
        if self._depth:
            self._buf.append(data)
        elif self._pos_pending:
            self._current_pos += data.strip().lower()


def oracle_extract(html, dialect):
    collector = _DefinitionCollector(DIALECTS[dialect])
    collector.feed(html)
    collector.close()
    return collector.definitions


# --- one pinned page per construct --------------------------------------------

MW_NOUN = '<span class="fl">noun</span>'
DCOM_NOUN = '<span class="luna-pos">noun</span>'

PINNED = [
    (
        "nested-same-name",
        "mw",
        MW_NOUN + '<span class="dtText">: a <span>woman</span> of <span class="x">faith</span>'
        "</span> after <span class=\"dtText\">second</span>",
        ["a woman of faith", "second"],
    ),
    (
        "self-closing-definition",
        "mw",
        MW_NOUN + '<span class="dtText"/>outside<span class="dtText">kept</span>',
        ["kept"],
    ),
    (
        "self-closing-inside-definition",
        "mw",
        MW_NOUN + '<span class="dtText">a<span/>b<b />c</span>after',
        ["abc"],
    ),
    (
        "self-closing-label",
        "mw",
        MW_NOUN + '<span class="fl"/>noun<span class="dtText">dropped</span>',
        [],
    ),
    (
        "unquoted-value-slash",
        "mw",
        MW_NOUN + '<span class=dtText/>not self-closing</span><span class="dtText">a<b class=x/>b</b>c</span>',
        ["abc"],
    ),
    (
        "line-breaks",
        "mw",
        MW_NOUN + '<span class="dtText">one<br>two<br/>three<BR />four</span>',
        ["one two three four"],
    ),
    (
        "uppercase",
        "mw",
        '<SPAN CLASS=fl>NOUN</SPAN><SPAN CLASS="dtText">upper</SPAN>',
        ["upper"],
    ),
    (
        "second-class-attribute",
        "mw",
        MW_NOUN + '<span class="x" class="dtText">second attribute</span>',
        ["second attribute"],
    ),
    (
        "valueless-class",
        "mw",
        MW_NOUN + '<span class>none</span><span class class="dtText">after valueless</span>',
        ["after valueless"],
    ),
    (
        "entity-encoded-class",
        "mw",
        MW_NOUN + '<span class="dt&#84;ext">encoded</span>',
        ["encoded"],
    ),
    (
        "multi-class",
        "dcom",
        DCOM_NOUN + '<div class="sense one-click-content bold">multi</div>'
        '<div class="one-click-contents">substring only</div>',
        ["multi"],
    ),
    (
        "quoted-gt-in-attribute",
        "mw",
        MW_NOUN + '<span title="a>b" class="dtText">quoted</span>',
        ["quoted"],
    ),
    (
        "comment-in-label",
        "mw",
        '<span class="fl">no<!-- x -->un</span><span class="dtText">kept</span>',
        ["kept"],
    ),
    (
        "label-text-runs",
        "mw",
        '<span class="fl">no <b> un</b></span><span class="dtText">kept</span>'
        '<span class="fl">no un</span><span class="dtText">dropped</span>',
        ["kept"],
    ),
    (
        "script-and-style",
        "mw",
        MW_NOUN + "<script>var s = '<span class=\"dtText\">fake</span>';</script>"
        '<style>.dtText::after { content: "<span class=dtText>"; }</style>'
        '<span class="dtText">real</span>',
        ["real"],
    ),
    (
        "raw-text-inside-definition",
        "mw",
        MW_NOUN + '<span class="dtText">a <script>x &amp; y</script>b<style></style></span>',
        ["a x &amp; yb"],
    ),
    (
        "comment-with-markup",
        "dcom",
        DCOM_NOUN + '<!-- a > b <div class="one-click-content">fake</div> -->'
        '<div class="one-click-content">real</div>',
        ["real"],
    ),
    (
        "char-refs",
        "mw",
        MW_NOUN + '<span class="dtText">a &amp; b &#233; &lt;c&gt; &#x41;&copy</span>',
        ["a & b é <c> A©"],
    ),
    (
        "unclosed-definition",
        "mw",
        MW_NOUN + '<span class="dtText">closed</span><span class="dtText">never closed',
        ["closed"],
    ),
    (
        "verb-section",
        "dcom",
        '<span class="luna-pos">verb</span><div class="one-click-content">to veil</div>'
        + DCOM_NOUN
        + '<div class="one-click-content">a woman</div>',
        ["a woman"],
    ),
    (
        "declarations",
        "mw",
        '<!DOCTYPE html><?xml version="1.0"?>' + MW_NOUN + '<span class="dtText">a<!x>b</span>',
        ["ab"],
    ),
]


@pytest.mark.parametrize(
    "dialect, html, expected", [case[1:] for case in PINNED], ids=[case[0] for case in PINNED]
)
def test_pinned_construct(dialect, html, expected):
    assert extract_definitions_html(html, dialect) == expected
    assert oracle_extract(html, dialect) == expected


# --- generated pages ------------------------------------------------------------

# Well-formed markup only: html.parser's reading of malformed tags, comments
# and raw text has changed between Python releases, so it is no reference there.
_TEXT = st.lists(
    st.sampled_from(
        ["a woman", " of ", "men", "\n", ": ", "&amp;", "&#233;", "&lt;b&gt;", "x &copy y", "king's"]
    ),
    max_size=3,
).map("".join)
_CLASS_ATTRS = st.sampled_from(
    [
        "",
        ' class="dtText"',
        " CLASS=dtText",
        " class='fl'",
        ' class="x" class="dtText"',
        ' class class="fl"',
        " class",
        ' class=""',
        ' class="dt&#84;ext"',
        ' class="sense dtText bold"',
        ' class="dtTextual"',
        ' class="luna-pos"',
        ' class="one-click-content"',
        ' CLASS="one-click-content extra"',
        ' title="a>b" class="one-click-content"',
        ' id="x"',
    ]
)
_TAG_NAMES = st.sampled_from(["span", "span", "SPAN", "div", "div", "Div", "b", "li"])
_POS_LABELS = st.sampled_from(
    ["noun", "verb", " Noun ", "NOUN", "no<!-- x -->un", "no<b>un</b>", "no <b> un</b>", "no un"]
)
_LEAVES = st.one_of(
    _TEXT,
    st.sampled_from(
        [
            "<br>",
            "<br/>",
            "<BR />",
            '<img src="x.png">',
            "<hr>",
            "</b>",
            "</span>",
            "<!-- <span class=\"dtText\">fake</span> -->",
            "<script>var s = '<span class=\"dtText\">fake</span>';</script>",
            '<style>.x { content: "<div class=one-click-content>"; }</style>',
            "<SCRIPT>if (a < b &amp;&amp; c) {}</SCRIPT>",
            "<!DOCTYPE html>",
        ]
    ),
    st.builds(lambda t, a, s: f"<{t}{a}{s}>", _TAG_NAMES, _CLASS_ATTRS, st.sampled_from(["/", " /"])),
    st.builds(lambda c, p: f'<span class="{c}">{p}</span>', st.sampled_from(["fl", "luna-pos"]), _POS_LABELS),
)


def _element(children):
    return st.builds(
        lambda t, a, body, upper_end: f"<{t}{a}>{''.join(body)}</{t.upper() if upper_end else t}>",
        _TAG_NAMES,
        _CLASS_ATTRS,
        st.lists(children, max_size=4),
        st.booleans(),
    )


_PAGES = st.builds(
    lambda head, body, tail: "<html><body>" + head + "".join(body) + tail,
    st.sampled_from(["", MW_NOUN + DCOM_NOUN]),
    st.lists(st.recursive(_LEAVES, _element, max_leaves=25), max_size=8),
    st.sampled_from(["</body></html>", '<span class="dtText">never closed', "<div class=one-click-content>open"]),
)


@settings(max_examples=400, deadline=None)
@given(_PAGES)
def test_scanner_matches_html_parser(html):
    for dialect in DIALECTS:
        assert extract_definitions_html(html, dialect) == oracle_extract(html, dialect)
