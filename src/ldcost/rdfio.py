"""Streaming reader for RDF documents in N-Triples, Turtle and the N3 subset
needed to replay dereferenced resources: prefix declarations, ';'/','
abbreviations, typed and tagged literals, blank nodes.  N-Triples is a
subset of Turtle, so one reader serves both.  Quoted formulas, collections
and rules are out of scope.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterator
from typing import NoReturn

from .errors import InputError
from .query import RDF_TYPE, TERM_PATTERNS, TERM_TOKENS, XSD_BOOLEAN, Term, number_datatype, unquote

Triple = tuple[Term, Term, Term]

_TYPE = Term.iri(RDF_TYPE)  # the predicate the keyword 'a' stands for

# One token per match, after any white space and comments: an RDF term
# token (``query.TERM_TOKENS``) or a punctuation mark.  The group that
# matched names the token; ``bad`` is a character no token starts with.
_TOKEN_RE = re.compile(
    r"\s*(?:\#[^\n]*\s*)*(?:"
    + TERM_TOKENS
    + r"| (?P<dot>\.) | (?P<comma>,) | (?P<semicolon>;) | (?P<open>\[) | (?P<close>\]) | (?P<end>\Z) | (?P<bad>.))",
    re.VERBOSE,
)

# A run of the characters an IRI may hold: the IRI pattern between its '<'
# and '>'.  ``_node`` checks each new IRI token with it.  After a '<' that
# starts no token, the run ends at the character at fault.
_IRI_RUN = re.compile(TERM_PATTERNS["iri"][1:-1])

# White space and comments.  Unlike the token lexer's, a comment must end
# in a newline here, so a statement that fails to match backtracks in
# linear time.
_GAP = r"\s*(?:\#[^\n]*\n\s*)*"
# One whole N-Triples statement: subject, predicate, and an IRI, blank node
# or quoted literal object, then a '.' that does not start a number.  It
# reads the text as the token lexer would, token by token, but scans a
# subject, predicate or object IRI from '<' to the first '>': ``_node``
# checks the IRI class once per distinct token, not per occurrence, and a
# token that fails goes to the readers that report the error.  A literal's
# datatype IRI stays strict.  The object is one capture, a literal's
# language tag or datatype included; the first time a literal token is
# keyed, ``_LITERAL_RE`` splits it.  Before each term and the '.', the gap
# first tries the usual one space or newline.
# The guard keeps the full gap from matching that same text, so a
# statement that fails to match backtracks no more than with the full gap
# alone.  The other patterns keep the full gap: there the short branch
# would cost compile time and gain nothing measurable.
_STATEMENT_GAP = rf"(?:[\ \n](?=[^\s\#])|(?![\ \n][^\s\#]){_GAP})"
_STATEMENT_RE = re.compile(
    rf"""{_STATEMENT_GAP} (?P<subject><[^>]*>|{TERM_PATTERNS["blank"]})
    {_STATEMENT_GAP} (?P<predicate><[^>]*>)
    {_STATEMENT_GAP} (?P<object><[^>]*>|{TERM_PATTERNS["blank"]}
               | (?:{TERM_PATTERNS["string"]})
                 (?: {_GAP} {TERM_PATTERNS["langtag"]} | {_GAP} {TERM_PATTERNS["dtype"]} {_GAP} {TERM_PATTERNS["iri"]} )? )
    {_STATEMENT_GAP} \.(?!\d)""",
    re.VERBOSE,
)
# A literal object token of ``_STATEMENT_RE``: its string, language tag
# and datatype IRI.
_LITERAL_RE = re.compile(
    rf"""(?P<string>{TERM_PATTERNS["string"]})
    (?: {_GAP} (?P<langtag>{TERM_PATTERNS["langtag"]})
      | {_GAP} {TERM_PATTERNS["dtype"]} {_GAP} (?P<datatype>{TERM_PATTERNS["iri"]}) )?""",
    re.VERBOSE,
)
# The terms of a Turtle statement, each read as the token lexer reads it.
# Python 3.10 has no atomic groups, so lookaheads keep a failed match from
# reading a token another way: a blank node or prefixed name may not stop
# where the lexer's token goes on, a prefixed name may not start where the
# lexer reads a blank node, and 'a' is the keyword only where no prefixed
# name starts.
_PNAME = rf"(?!_:[A-Za-z_0-9]){TERM_PATTERNS['pname']}(?![A-Za-z_0-9%-]|\.[A-Za-z_0-9%-])"
_NODE = rf"{TERM_PATTERNS['iri']}|{TERM_PATTERNS['blank']}(?![A-Za-z_0-9])|{_PNAME}"
_VERB = rf"{_NODE}|a(?![A-Za-z_0-9:]|[.-][A-Za-z_0-9.-]*:)"
# An object, a literal's language tag or datatype, and the mark after it:
# ',' or ';' goes on, '.' or '; .' ends the statement.
_OBJECT = rf"""(?: (?P<node>{_NODE})
             | (?P<string>{TERM_PATTERNS["string"]})
               (?: {_GAP} (?P<langtag>{TERM_PATTERNS["langtag"]})
                 | {_GAP} {TERM_PATTERNS["dtype"]} {_GAP} (?P<datatype>{TERM_PATTERNS["iri"]}|{_PNAME}) )? )
    {_GAP} (?P<end>,|;(?:{_GAP}\.(?!\d))?|\.(?!\d))"""
# The first triple of a Turtle statement; then each next one of its lists,
# a predicate and an object after ';', an object after ',': the mark just
# matched decides which.
_TURTLE_RE = re.compile(rf"{_GAP} (?P<subject>{_NODE}) {_GAP} (?P<predicate>{_VERB}) {_GAP} {_OBJECT}", re.VERBOSE)
_LIST_RE = re.compile(rf"(?: (?<=,) | (?<=;) {_GAP} (?P<predicate>{_VERB}) ) {_GAP} {_OBJECT}", re.VERBOSE)
# One whole '@prefix name: <iri> .' directive, read as the token lexer
# reads it: no letter, digit or '-' continues the '@prefix' tag, and the
# prefix name is a whole prefixed-name token, as nothing but white space,
# a comment or the IRI can follow its ':'.
_PREFIX_RE = re.compile(
    rf"""{_GAP} @prefix(?![A-Za-z0-9-])
    {_GAP} (?P<name>{TERM_PATTERNS["pname"]})(?<=:)
    {_GAP} (?P<iri>{TERM_PATTERNS["iri"]})
    {_GAP} \.(?!\d)""",
    re.VERBOSE,
)
# Nothing left but white space and comments.
_END_RE = re.compile(rf"{_GAP}(?:\#[^\n]*)?\Z")

# Binary mode: on Windows os.open otherwise translates line ends.
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
_READ_CHUNK = 1 << 16  # bytes per read past the size os.fstat gave


class DocumentParseError(InputError):
    """An RDF document could not be parsed."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


def _triples(text: str, blank_scope: str, terms: dict | None = None, pos: int = 0) -> Iterator[Triple]:
    """Yield the triples of a document one at a time, in document order,
    from offset ``pos`` on.  The text before ``pos`` may hold whole
    N-Triples statements only, as they declare nothing.

    ``terms`` maps each map of leading prefix declarations to the terms
    read under it by any document read with it: those of IRI and
    prefixed-name tokens, and those of literals, keyed by their whole token
    in a plain N-Triples statement, else by their (string, language tag,
    datatype) tokens.  Under the key None it keeps the last leading block
    of directives it was given, as (its text, its prefix map, its terms).
    None gives a table of its own.  Raises
    DocumentParseError at the first token that does not fit; its line is
    counted only then.
    """
    blanks: dict[str, Term] = {}  # this document's blank-node tokens read so far

    # The fast path: the leading '@prefix' directives, then the statements
    # after them, plain N-Triples first, else Turtle whose terms are IRIs,
    # blank-node labels, prefixed names, 'a' and quoted literals.  A
    # statement is one match, a triple of its ';' or ',' lists one more,
    # and its triples are kept back until its '.' matches.  At the first
    # statement that does not match, names a relative IRI or an undeclared
    # prefix, or holds a bad escape, the token loop takes over from that
    # statement's start and reports any error.  A document read to its end
    # never starts the token loop.
    #
    # A document that starts with the last block read, where its final '.'
    # is not the start of a number and no directive follows it, declares
    # what that block declared: the directives match as they matched there.
    tail = _content_end(text, pos)  # where only white space is left, which nothing matches
    block = None if terms is None else terms.get(None)
    if (
        block is not None
        and text.startswith(block[0], pos)
        and not text[(after := pos + len(block[0])) : after + 1].isdecimal()
        and _PREFIX_RE.match(text, after) is None
    ):
        pos = after
        _, prefixes, nodes = block
    else:
        start = pos
        prefixes = {}
        while pos < tail and (m := _PREFIX_RE.match(text, pos)) is not None:
            prefixes[m["name"][:-1]] = m["iri"][1:-1]
            pos = m.end()
        nodes = {} if terms is None else terms.setdefault(tuple(prefixes.items()), {})
        if terms is not None and pos > start:
            terms[None] = (text[start:pos], prefixes, nodes)
    while pos < tail:
        m = _STATEMENT_RE.match(text, pos)
        if m is not None:  # one triple, yielded at once: a dump pays for no list
            s, p, o = m.groups()
            try:
                subject = nodes.get(s) or _node(s, prefixes, nodes, blanks, blank_scope)
                predicate = nodes.get(p) or _node(p, prefixes, nodes, blanks, blank_scope)
                obj = nodes.get(o) or _node(o, prefixes, nodes, blanks, blank_scope)
            except ValueError:
                break
            yield subject, predicate, obj
            pos = m.end()
            continue
        m = _TURTLE_RE.match(text, pos)
        if m is None:
            break
        s, p, o, string, language, datatype, end = m.groups()
        kept: list[Triple] = []  # the statement's triples before its last
        try:
            subject = nodes.get(s) or _node(s, prefixes, nodes, blanks, blank_scope)
            while True:
                if p is not None:
                    predicate = nodes.get(p) or (_TYPE if p == "a" else _node(p, prefixes, nodes, blanks, blank_scope))
                if o is None:
                    o = string, language, datatype
                obj = nodes.get(o) or _node(o, prefixes, nodes, blanks, blank_scope)
                if end[-1] == ".":
                    break
                kept.append((subject, predicate, obj))
                m = _LIST_RE.match(text, m.end())
                if m is None:
                    raise ValueError("the statement does not end in '.'")
                p, o, string, language, datatype, end = m.groups()
        except ValueError:
            break
        yield from kept
        yield subject, predicate, obj
        pos = m.end()
    if pos < tail and _END_RE.match(text, pos) is None:
        # the loop may declare prefixes: it gets a copy of the map, which later documents may share
        yield from _token_loop(text, pos, dict(prefixes), blanks, blank_scope)


def _content_end(text: str, pos: int) -> int:
    """The offset just past the last character of ``text`` from ``pos`` on
    that is not white space, or ``pos`` if there is none.  It scans back
    from the end, so the text is not copied.  ``str.isspace`` accepts the
    characters ``\\s`` matches."""
    end = len(text)
    while end > pos and text[end - 1].isspace():
        end -= 1
    return end


def _node(
    token: str | tuple, prefixes: dict[str, str], nodes: dict, blanks: dict[str, Term], blank_scope: str
) -> Term:
    """The term an IRI, blank-node, prefixed-name or whole literal token
    names, or a literal's (string, language tag, datatype) tokens, now in
    ``nodes``, or for a blank node in ``blanks``.  The lexer reads '_:'
    and a label character as a blank node, so a token that starts '_:' is
    a prefixed name only when nothing, '%' or '-' follows.

    Raises ValueError for an IRI outside the IRI class, which
    ``_STATEMENT_RE`` leaves to this check, a relative IRI, an undeclared
    prefix or a bad escape, and stores nothing then."""
    if isinstance(token, tuple) or token[0] in "\"'":
        string, language, datatype = token if isinstance(token, tuple) else _LITERAL_RE.fullmatch(token).groups()
        if datatype is not None:
            dt = nodes.get(datatype) or _node(datatype, prefixes, nodes, blanks, blank_scope)
            term = Term.literal(unquote(string), datatype=dt.value)
        else:
            term = Term.literal(unquote(string), language=language and language[1:])
    elif token[0] == "<":
        if _IRI_RUN.fullmatch(token, 1, len(token) - 1) is None:
            raise ValueError("an IRI holds a character it may not")
        term = Term.iri(token[1:-1])
    elif token[:2] == "_:" and token[2:3] not in "%-":
        term = blanks[token] = blanks.get(token) or Term.blank(token[2:] + blank_scope)
        return term
    else:
        prefix, _, local = token.partition(":")
        if prefix not in prefixes:
            raise ValueError(f"undeclared prefix {prefix + ':'!r}")
        term = Term.iri(prefixes[prefix] + local)
    nodes[token] = term
    return term


def _token_loop(
    text: str, pos: int, prefixes: dict[str, str], nodes: dict[str, Term], blank_scope: str
) -> Iterator[Triple]:
    """Yield the triples of ``text`` from ``pos`` on, token by token, with
    the prefixes and nodes read before ``pos``; raises DocumentParseError at
    the first token that does not fit."""
    tokens = _TOKEN_RE.finditer(text, pos)
    anon = 0

    def fail(message: str, m: re.Match) -> NoReturn:
        kind = m.lastgroup
        at = m.start(kind)
        if kind == "bad":
            if m[kind] == "<" and (end := _IRI_RUN.match(text, at + 1).end()) < len(text):
                at = end  # an IRI that holds a character it may not
            message = f"unexpected character {text[at]!r}"
        raise DocumentParseError(message, text.count("\n", 0, at) + 1)

    def node(m: re.Match, expected: str) -> Term:
        """The IRI or blank node at ``m``; fails naming ``expected`` if there is none."""
        nonlocal anon
        kind = m.lastgroup
        if kind == "iri" or kind == "pname" or kind == "blank":
            token = m[kind]
            try:
                return nodes.get(token) or _node(token, prefixes, nodes, nodes, blank_scope)
            except ValueError as exc:  # a relative IRI or an undeclared prefix
                fail(str(exc), m)
        if kind != "open":
            fail(f"expected {expected}, found {m[kind]!r}", m)
        if next(tokens).lastgroup != "close":
            fail("blank node property lists are not supported", m)
        anon += 1
        return Term.blank(f"[]{anon}{blank_scope}")  # no blank-node token spells "["

    def literal(m: re.Match) -> tuple[Term, re.Match]:
        """The literal starting at ``m`` and the token after it."""
        kind = m.lastgroup
        token = m[kind]
        after = next(tokens)
        if kind == "number":
            return Term.literal(token, datatype=number_datatype(token)), after
        if kind == "word" and token.lower() in ("true", "false"):
            return Term.literal(token.lower(), datatype=XSD_BOOLEAN), after
        if kind != "string":
            fail(f"expected a term, found {token!r}", m)
        try:
            lexical = unquote(token)
        except ValueError as exc:  # a bad escape
            fail(str(exc), m)
        if after.lastgroup == "langtag":
            return Term.literal(lexical, language=after["langtag"][1:]), next(tokens)
        if after.lastgroup != "dtype":
            return Term.literal(lexical), after
        dt = next(tokens)
        if dt.lastgroup != "iri" and dt.lastgroup != "pname":
            fail("expected a datatype IRI after '^^'", dt)
        return Term.literal(lexical, datatype=node(dt, "a datatype IRI").value), next(tokens)

    m = next(tokens)
    while True:
        kind = m.lastgroup
        if kind == "end":
            return
        word = m[kind].lower() if kind == "langtag" or kind == "word" else ""
        if word in ("@prefix", "@base", "prefix", "base"):
            name = next(tokens)
            if word.endswith("base"):
                fail("base IRIs are not supported; use absolute IRIs", name)
            if name.lastgroup != "pname" or not name["pname"].endswith(":"):
                fail("expected a prefix name ending in ':'", name)
            iri = next(tokens)
            if iri.lastgroup != "iri":
                fail("expected an IRI after the prefix name", iri)
            prefixes[name["pname"][:-1]] = iri["iri"][1:-1]
            nodes.clear()  # a redeclared prefix changes what its names expand to
            m = next(tokens)
            if kind == "langtag":
                if m.lastgroup != "dot":
                    fail(f"expected '.', found {m[m.lastgroup]!r}", m)
                m = next(tokens)
            continue

        subject = node(m, "an IRI or blank node")
        m = next(tokens)
        while True:  # predicate-object list
            if m.lastgroup == "word" and m["word"] == "a":
                predicate = _TYPE
            else:
                predicate = node(m, "an IRI or blank node")
            while True:  # object list
                m = next(tokens)
                kind = m.lastgroup
                if kind == "string" or kind == "number" or kind == "word":
                    obj, m = literal(m)
                else:
                    obj = node(m, "a term")
                    m = next(tokens)
                yield subject, predicate, obj
                if m.lastgroup != "comma":
                    break
            kind = m.lastgroup
            if kind == "semicolon":
                m = next(tokens)
                if m.lastgroup != "dot":
                    continue
            elif kind != "dot":
                fail(f"expected ';' or '.', found {m[kind]!r}", m)
            m = next(tokens)
            break


def parse_document(text: str, blank_scope: str = "", terms: dict | None = None) -> frozenset[Triple]:
    """Parse an RDF document into its set of ground triples.

    ``blank_scope`` is appended to blank node labels so graphs from
    different documents never share a blank node.  Documents parsed with
    one ``terms`` table and the same leading prefix declarations share
    their IRI and literal terms.  The table also keeps the last leading
    block of '@prefix' directives read; a document that starts with the
    same text takes its declarations without matching them again.
    """
    return frozenset(_triples(text, blank_scope, terms))


def term_key(term: Term) -> str:
    """Stable string key for grouping/counting: IRIs bare, blanks '_:'-prefixed,
    literals quoted with their tag or datatype."""
    kind, value, datatype, language = term
    if kind == "iri":
        return value
    if kind == "blank":
        return "_:" + value
    if language:
        return f'"{value}"@{language}'
    if datatype:
        return f'"{value}"^^<{datatype}>'
    return f'"{value}"'


def read_text(path) -> str:
    """The text of a UTF-8 file, less one leading byte order mark, with its
    line ends read as ``Path.read_text`` reads them.  Raises
    DocumentParseError naming the line of the first byte that is not UTF-8,
    and OSError naming ``path`` if the file cannot be read.

    A regular file is read with one ``os.read`` of the size ``os.fstat``
    gives; reading goes on until a read returns no data, for a file that
    grew or has no size."""
    try:
        fd = os.open(path, _READ_FLAGS)
        try:
            chunks = [os.read(fd, os.fstat(fd).st_size)]
            while chunk := os.read(fd, _READ_CHUNK):
                chunks.append(chunk)
        finally:
            os.close(fd)
    except OSError as exc:
        exc.filename = os.fspath(path)  # os.read on a directory names no file
        raise
    data = b"".join(chunks).removeprefix(b"\xef\xbb\xbf")  # one chunk is not copied
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DocumentParseError(f"byte {data[exc.start]:#04x} is not UTF-8", line) from None
    if "\r" in text:  # a text with none is not copied
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_dump(path) -> Iterator[tuple[str, str, str]]:
    """Read an N-Triples/Turtle file; yield its (subject, predicate, object)
    keys, repeats included, as they are parsed.  A file that is not UTF-8
    raises DocumentParseError at once; a malformed statement raises it
    when the iteration reaches it."""
    return _dump_keys(read_text(path))


def _dump_keys(text: str) -> Iterator[tuple[str, str, str]]:
    """The keys of the triples of ``text``, in document order.  Each plain
    N-Triples statement goes from its match straight to keys, and each
    distinct token, a literal's whole token included, is keyed once, an
    IRI's class check included.  From the first statement that does not
    match or holds an invalid term, ``_triples`` reads the rest and reports
    any error."""
    keys: dict[str, str] = {}  # an IRI, blank-node or literal token -> its key
    get = keys.get
    pos = 0
    while (m := _STATEMENT_RE.match(text, pos)) is not None:
        s, p, o = m.groups()
        try:
            record = (get(s) or _key(s, keys), get(p) or _key(p, keys), get(o) or _key(o, keys))
        except ValueError:
            break
        yield record
        pos = m.end()
    if _END_RE.match(text, pos) is None:
        for s, p, o in _triples(text, "", pos=pos):
            yield term_key(s), term_key(p), term_key(o)


def _key(token: str, keys: dict[str, str]) -> str:
    """The key of the term ``token`` names, now stored in ``keys``:
    ``token`` is an IRI, blank-node or literal token of ``_STATEMENT_RE``,
    and its key is ``term_key`` of the term ``_node`` builds from it, with
    tables of its own that are dropped, so no term is kept.  Raises
    ValueError for an IRI outside the IRI class, a relative IRI or a bad
    escape, and stores nothing then."""
    key = keys[token] = term_key(_node(token, {}, {}, {}, ""))
    return key
