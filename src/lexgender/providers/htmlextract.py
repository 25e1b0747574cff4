"""Extraction of sense definitions from online-dictionary entry pages.

Only the rules table below knows anything about page markup: when a site
redesign changes class names, this table is the single place to update.
Each dialect names the element that wraps one sense definition and,
where the page distinguishes parts of speech, the element that announces
the section's part of speech (only definitions inside a noun section are
kept).
"""

from __future__ import annotations

import re
from html import unescape
from typing import NamedTuple


class DialectRules(NamedTuple):
    definition_tag: str
    definition_class: str
    pos_tag: str
    pos_class: str
    strip_prefixes: tuple[str, ...] = ()


# mw = Merriam-Webster entry pages, dcom = Dictionary.com entry pages.
DIALECTS = {
    "mw": DialectRules(
        definition_tag="span",
        definition_class="dtText",
        pos_tag="span",
        pos_class="fl",
        strip_prefixes=(": ", ":"),
    ),
    "dcom": DialectRules(
        definition_tag="div",
        definition_class="one-click-content",
        pos_tag="span",
        pos_class="luna-pos",
    ),
}


# Elements that never have a closing tag; they must not affect nesting depth.
_VOID_TAGS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}

# Tags are read the way the standard library's html.parser reads them:
# quoted attribute values are skipped whole and a "/" ending an unquoted
# value belongs to it. Attributes are matched once, in an atomic group, so a
# tag that fails to close costs one scan. Groups: 1 an end tag's "/", 2 the
# tag name, 3 a self-closing "/". <script>/<style> text runs to its end tag.
_NAME = r"[a-zA-Z][^\t\n\r\f />\x00]*"
_ATTRS = r"""(?>[^>=/]*(?:(?:/(?!>)|=+(?!=)\s*(?:"[^"]*"|'[^']*'|(?![\s"'])[^\s>=]*(?![^\s>=])))[^>=/]*)*)"""
_TOKEN = re.compile(rf"<(?:!--.*?(?:-->|\Z)|(/)?({_NAME})(?(1)[^>]*|{_ATTRS}(/)?)>|[!?/][^>]*>)", re.S)
_RAW_TEXT_END = {tag: re.compile(rf"</{tag}(?=[\s/>])|\Z", re.I) for tag in ("script", "style")}
_ATTR = re.compile(r"""(?:\s|/(?!>))*((?<=['"\s/])[^\s/>][^\s/=>]*)(?:\s*=+\s*(?:'([^']*)'|"([^"]*)"|(?!['"])([^>\s]*)))?""")


def _has_class(html: str, start: int, end: int, wanted: str) -> bool:
    """Whether a class attribute among the tag attributes in html[start:end] lists ``wanted``."""
    return any(
        attr[1].lower() == "class" and wanted in unescape(attr[2] or attr[3] or attr[4] or "").split()
        for attr in _ATTR.finditer(html, start, end)
    )


def extract_definitions_html(html: str, dialect: str) -> list[str]:
    """Visible sense-definition texts from an entry page, in page order.

    Returns an empty list when the page holds no noun definitions, as an
    empty string does; the live client rejects an empty page before it
    gets here.
    """
    try:
        rules = DIALECTS[dialect]
    except KeyError:
        raise ValueError(f"unknown dialect {dialect!r}; expected one of {sorted(DIALECTS)}")
    definitions: list[str] = []
    buf: list[str] = []  # text of the definition being read
    depth, pos_pending = 0, False  # inside a definition (depth > 0), a part-of-speech label
    current_pos = ""
    pos, text_start, last_gt = 0, 0, html.rfind(">") + 1  # every token ends in ">"
    while token := _TOKEN.search(html, pos, last_gt):
        if depth or pos_pending:  # text is read only inside a definition or a label
            text = html[text_start : token.start()]
            if pos == text_start:  # else it is <script> or <style> text: no character references
                text = unescape(text)
            if depth:
                buf.append(text)
            else:  # a label is read one text run at a time
                current_pos += text.strip().lower()
        pos = text_start = token.end()
        end_tag, name, self_closing = token.groups()
        if name is None or (end_tag and not (depth or pos_pending)):
            continue  # a comment, declaration or end tag that changes nothing
        name = name.lower()
        if name in _VOID_TAGS:
            if depth and not end_tag:  # a <br> inside a definition separates words
                buf.append(" ")
            continue
        if not end_tag:  # attributes are read only on candidate tags outside a definition
            if depth:
                depth += 1
            elif name == rules.definition_tag and _has_class(html, token.end(2), pos, rules.definition_class):
                if current_pos == "noun":
                    depth, buf = 1, []
            elif name == rules.pos_tag and _has_class(html, token.end(2), pos, rules.pos_class):
                pos_pending, current_pos = True, ""
            if name in _RAW_TEXT_END and not self_closing:
                pos = _RAW_TEXT_END[name].search(html, pos).start()
            if not self_closing:
                continue
        if depth:  # an end tag, or the end of a self-closing tag
            depth -= 1
            if depth == 0:
                text = " ".join("".join(buf).split())
                prefix = next((p for p in rules.strip_prefixes if text.startswith(p)), "")
                if text := text[len(prefix):].lstrip():
                    definitions.append(text)
        else:
            pos_pending = False
    return definitions
