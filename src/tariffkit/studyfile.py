"""The study file: its reader and writer, with no YAML library.

A study file is the YAML subset that a safe dump of
``ingest.config_to_mapping`` writes: block mappings, with plain keys, of
scalars and of block or one-line flow lists, with comments and an opening
``---``.  A root that is a block list or a one-line scalar or flow list is
read as well, so that the caller can say the root is not a mapping.  Scalars are plain, single-quoted, or double-quoted without
escapes, and plain ones are typed as a YAML 1.1 safe loader types them.
Whatever :func:`read` cannot read exactly as such a loader would (anchors,
aliases, tags, block scalars, flow mappings, multi-line values, tabs,
further documents, unclosed brackets or quotes) is a
:class:`StudyFileError` naming the line, so that no file is read
differently from YAML.  :func:`write` writes a study's mapping as
``yaml.safe_dump(mapping, sort_keys=False)`` does.
"""

from __future__ import annotations

import math
import re


class StudyFileError(ValueError):
    """Text outside the study-file subset, or a value the writer cannot write."""


_NULLS = ("~", "null", "Null", "NULL")
_BOOLS = {spelling: value
          for value, words in ((True, "yes true on"), (False, "no false off"))
          for word in words.split()
          for spelling in (word, word.capitalize(), word.upper())}
# the plain numbers read: decimal integers (group 1), floats with a dot and
# neither digit separators nor base-60 parts, infinities and NaN
_NUMBER = re.compile(r"[-+]?(?:(0|[1-9][0-9]*)|[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?|\.(?:inf|Inf|INF))"
                     r"|\.[0-9]+(?:[eE][-+][0-9]+)?|\.(?:nan|NaN|NAN)")
# every plain scalar YAML 1.1 types as a number, a timestamp, or a merge or
# value key; those that _NUMBER does not read are refused.  Compiled only
# when a plain string starts like a number, which no written study file has.
_YAML_TYPED = (r"[-+]?0b[0-1_]+|[-+]?0[0-7_]+|[-+]?(?:0|[1-9][0-9_]*)"
               r"|[-+]?0x[0-9a-fA-F_]+|[-+]?[1-9][0-9_]*(?::[0-5]?[0-9])+"
               r"|[-+]?[0-9][0-9_]*\.[0-9_]*(?:[eE][-+][0-9]+)?|\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?"
               r"|[-+]?[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*"
               r"|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN)"
               r"|[0-9]{4}-[0-9]{2}-[0-9]{2}"
               r"|[0-9]{4}-[0-9]{1,2}-[0-9]{1,2}(?:[Tt]| +)[0-9]{1,2}:[0-9]{2}:[0-9]{2}"
               r"(?:\.[0-9]*)?(?: *(?:Z|[-+][0-9]{1,2}(?::[0-9]{2})?))?|<<|=")
# the characters that may not start a plain scalar
_INDICATORS = "-?:,[]{}#&*!|>'\"%@`"
# tabs, line breaks other than \n, a byte-order mark past the start, and
# what YAML does not print
_UNREADABLE = re.compile("[\x00-\x09\x0b-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff\ufeff\ufffe\uffff]")
_MAX_KEY = 1000  # characters; YAML refuses a key longer than 1024


def _refuse(lineno: int, reason: str):
    raise StudyFileError(f"line {lineno}: {reason}")


def read(text: str):
    """The value of a study file's text, None when it holds no document.

    Raises StudyFileError("line N: ...") for whatever it cannot read exactly
    as a YAML 1.1 safe loader would.
    """
    text = text.removeprefix("\ufeff")
    bad = _UNREADABLE.search(text)
    if bad:
        _refuse(text.count("\n", 0, bad.start()) + 1, f"character {bad.group()!r}")
    lines, opened = [], False  # lines: [line number, indentation, content]
    for lineno, line in enumerate(text.split("\n"), start=1):
        body = line.lstrip(" ")
        if not body or body[0] == "#":
            continue
        if line[:3] in ("---", "...") and line[3:4] in ("", " "):
            if lines or opened or line[0] == "." or not _ends(line[3:]):
                _refuse(lineno, "one document only, opened by at most one '---' line")
            opened = True
            continue
        lines.append([lineno, len(line) - len(body), body])
    if not lines:
        return None
    lineno, column, first = lines[0]
    if column:
        _refuse(lineno, "expected a 'section:' line at the first column")
    # a root that is not a mapping is read too, for load_config to refuse
    if first == "-" or first.startswith("- "):
        value, pos = _block_sequence(lines, 0, 0)
        if pos < len(lines):
            _refuse(lines[pos][0], "expected '- ' (the root is a list)")
        return value
    if len(lines) == 1 and ": " not in first and not first.endswith(":"):
        return _inline(first, lineno)
    return _block_mapping(lines, 0, 0)[0]


def _ends(tail: str) -> bool:
    """Whether ``tail``, the rest of a line, is blank or a comment."""
    rest = tail.lstrip(" ")
    return not rest or (rest[0] == "#" and rest != tail)


def _block_mapping(lines: list, pos: int, indent: int) -> tuple[dict, int]:
    """The mapping whose keys sit at column ``indent`` from line ``pos`` on, and the line after it."""
    mapping = {}
    while pos < len(lines) and lines[pos][1] >= indent:
        lineno, column, body = lines[pos]
        if column > indent:
            _refuse(lineno, "unexpected indentation")
        key, rest = _key(body, lineno)
        if _ends(rest):
            mapping[key], pos = _nested(lines, pos + 1, indent, in_mapping=True)
        else:
            mapping[key], pos = _inline(rest, lineno), pos + 1
    return mapping, pos


def _block_sequence(lines: list, pos: int, indent: int) -> tuple[list, int]:
    """The list whose dashes sit at column ``indent`` from line ``pos`` on, and the line after it."""
    items = []
    while pos < len(lines) and lines[pos][1] >= indent:
        lineno, column, body = lines[pos]
        if column > indent:
            _refuse(lineno, "unexpected indentation")
        if body != "-" and not body.startswith("- "):
            break
        value = body[1:].lstrip(" ")
        if value == "-" or value.startswith("- "):
            # "- - x": a list in a list, whose first dash is on this line
            lines[pos] = [lineno, column + len(body) - len(value), value]
            item, pos = _block_sequence(lines, pos, lines[pos][1])
        elif _ends(body[1:]):
            item, pos = _nested(lines, pos + 1, indent, in_mapping=False)
        else:
            item, pos = _inline(body[1:], lineno), pos + 1
        items.append(item)
    return items, pos


def _nested(lines: list, pos: int, indent: int, in_mapping: bool) -> tuple:
    """The block value under a 'key:' or '-' line at column ``indent``: None when it has none.

    A list may sit at the key's own column; a mapping only under a key.
    """
    if pos < len(lines):
        column, body = lines[pos][1:]
        dash = body == "-" or body.startswith("- ")
        if dash and (column > indent or (column == indent and in_mapping)):
            return _block_sequence(lines, pos, column)
        if column > indent and in_mapping and not dash:
            return _block_mapping(lines, pos, column)
    return None, pos


def _key(body: str, lineno: int) -> tuple:
    """A 'key: value' line's plain key, and the text after its colon."""
    end = body.find(": ")
    if end < 0:
        end = len(body) - 1 if body.endswith(":") else -1
    if end < 0:
        _refuse(lineno, "expected 'key: value'")
    if end > _MAX_KEY:
        _refuse(lineno, "key too long")
    return _plain(body[:end].rstrip(" "), lineno, flow=False), body[end + 1:]


def _inline(rest: str, lineno: int):
    """The value written after a key's colon or a dash: a scalar or a flow list."""
    text = rest.lstrip(" ")
    if text[0] == "[":
        value, end = _flow_list(text, 0, lineno)
    elif text[0] in "'\"":
        value, end = _quoted(text, 0, lineno)
    else:
        cut = text.find(" #")
        return _plain((text if cut < 0 else text[:cut]).rstrip(" "), lineno, flow=False)
    if not _ends(text[end:]):
        _refuse(lineno, f"unexpected {text[end:].strip()!r} after the value")
    return value


def _flow_list(text: str, start: int, lineno: int) -> tuple[list, int]:
    """The one-line flow list opened at text[start]: its items, and the index after it."""
    items, at = [], start + 1
    while True:
        while text[at:at + 1] == " ":
            at += 1
        if at == len(text):
            _refuse(lineno, "unclosed '[' (a flow list must end on its line)")
        if text[at] == "]":
            return items, at + 1
        if text[at] == "[":
            item, at = _flow_list(text, at, lineno)
        elif text[at] in "'\"":
            item, at = _quoted(text, at, lineno)
        else:
            end = at
            while end < len(text) and text[end] not in ",[]{}":
                end += 1
            item, at = _plain(text[at:end].rstrip(" "), lineno, flow=True), end
        items.append(item)
        while text[at:at + 1] == " ":
            at += 1
        if text[at:at + 1] == ",":
            at += 1
        elif text[at:at + 1] != "]":
            _refuse(lineno, "expected ',' or ']' in a flow list")


def _quoted(text: str, start: int, lineno: int) -> tuple[str, int]:
    """The one-line quoted string opened at text[start]: its value, and the index after it."""
    quote, value, at = text[start], "", start + 1
    while True:
        end = text.find(quote, at)
        if end < 0:
            _refuse(lineno, f"unclosed {quote} (a quoted value must end on its line)")
        value += text[at:end]
        if quote == "'" and text[end + 1:end + 2] == "'":  # '' is a quote
            value, at = value + "'", end + 2
            continue
        if quote == '"' and "\\" in value:
            _refuse(lineno, "escapes in double quotes are not read; use single quotes")
        return value, end + 1


def _plain(text: str, lineno: int, flow: bool):
    """A plain scalar, typed as YAML 1.1 types it: None, a bool, int, float or str."""
    first, second = text[:1], text[1:2]
    if not text or (first in _INDICATORS and not (
            second not in ("", " ") and (first == "-" or (first in "?:" and not flow)))):
        _refuse(lineno, f"{text!r} is not a plain scalar; quote a string value")
    if any(c in text for c in ":?#") if flow else (": " in text or " #" in text
                                                   or text.endswith(":")):
        _refuse(lineno, f"{text!r} is not a plain scalar; quote a string value")
    if text in _NULLS:
        return None
    if text in _BOOLS:
        return _BOOLS[text]
    number = _NUMBER.fullmatch(text)
    if number:
        return int(text) if number[1] else float(
            text.lower().replace(".inf", "inf").replace(".nan", "nan"))
    if first in "-+.0123456789<=" and re.fullmatch(_YAML_TYPED, text):
        _refuse(lineno, f"{text!r} is a YAML form this reader does not read; quote a string")
    return text


def write(mapping: dict) -> str:
    """The text of a study's two-level mapping.

    It is the text ``yaml.safe_dump(mapping, sort_keys=False)`` writes,
    except for a string that dump would escape or fold (one with characters
    outside ASCII, or a long one with spaces), which this writes on one line.
    """
    lines = []
    for section, entries in mapping.items():
        lines.append(f"{section}:")
        for key, value in entries.items():
            if not isinstance(value, list) or not value:
                lines.append(f"  {key}: {_write_scalar(value)}")
                continue
            lines.append(f"  {key}:")
            for item in value:
                if isinstance(item, list) and item:
                    lines.append("  - - " + "\n    - ".join(map(_write_scalar, item)))
                else:
                    lines.append(f"  - {_write_scalar(item)}")
    return "\n".join(lines) + "\n"


def _write_scalar(value) -> str:
    """One value as a YAML safe dump writes it; only an empty list reaches here as a list."""
    if value is None:
        return "null"
    if isinstance(value, list):
        return "[]"
    if isinstance(value, float):
        if math.isnan(value):
            return ".nan"
        if math.isinf(value):
            return ".inf" if value > 0.0 else "-.inf"
        text = repr(value).lower()
        return text.replace("e", ".0e") if "." not in text and "e" in text else text
    if isinstance(value, int):
        return str(value)
    if "\n" in value or _UNREADABLE.search(value):
        raise StudyFileError(f"{value!r} cannot be written to a study file")
    # a string is plain when it reads back as itself, else single-quoted
    try:
        if value and not value.startswith(("---", "...")) and _inline(value, 0) == value:
            return value
    except StudyFileError:
        pass
    return "'" + value.replace("'", "''") + "'"
