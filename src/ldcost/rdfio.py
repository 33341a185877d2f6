"""Reader for RDF documents in N-Triples, Turtle and the N3 subset
needed to replay dereferenced resources: prefix declarations, ';'/','
abbreviations, typed and tagged literals, blank nodes.

Quoted formulas, collections and rules are out of scope.
"""

from __future__ import annotations

from .errors import InputError
from .query import RDF_TYPE, Term, _tokenize, _Token, _unquote, XSD, XSD_BOOLEAN, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER

Triple = tuple[Term, Term, Term]

XSD_STRING = XSD + "string"


class DocumentParseError(InputError):
    """An RDF document could not be parsed."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class _DocReader:
    def __init__(self, text: str, blank_scope: str):
        try:
            self.tokens = _tokenize(text)
        except InputError as exc:
            line = getattr(exc, "line", 0)
            raise DocumentParseError(str(exc), line) from None
        self.i = 0
        self.prefixes: dict[str, str] = {}
        self.blank_scope = blank_scope
        self.anon = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise DocumentParseError(message, tok.line)

    def expect_dot(self):
        tok = self.next()
        if not (tok.kind == "punct" and tok.text == "."):
            self.fail(f"expected '.', found {tok.text!r}", tok)

    def read(self) -> set[Triple]:
        triples: set[Triple] = set()
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return triples
            if tok.kind == "langtag" and tok.text.lower() in ("@prefix", "@base"):
                self.directive(tok.text.lower().lstrip("@"))
                self.expect_dot()
                continue
            if tok.kind == "keyword" and tok.text.lower() in ("prefix", "base"):
                self.directive(tok.text.lower())
                continue
            self.statement(triples)

    def directive(self, which: str):
        self.next()
        if which == "base":
            self.fail("base IRIs are not supported; use absolute IRIs")
        name = self.next()
        if name.kind != "pname" or not name.text.endswith(":"):
            self.fail("expected a prefix name ending in ':'", name)
        iri = self.next()
        if iri.kind != "iriref":
            self.fail("expected an IRI after the prefix name", iri)
        self.prefixes[name.text[:-1]] = iri.text[1:-1]

    def statement(self, triples: set[Triple]):
        subject = self.term(position="subject")
        while True:
            predicate = self.term(position="predicate")
            while True:
                obj = self.term(position="object")
                triples.add((subject, predicate, obj))
                if self.peek().kind == "punct" and self.peek().text == ",":
                    self.next()
                    continue
                break
            tok = self.next()
            if tok.kind == "punct" and tok.text == ";":
                nxt = self.peek()
                if nxt.kind == "punct" and nxt.text == ".":
                    self.next()
                    return
                continue
            if tok.kind == "punct" and tok.text == ".":
                return
            self.fail(f"expected ';' or '.', found {tok.text!r}", tok)

    def term(self, position: str) -> Term:
        tok = self.next()
        if tok.kind == "iriref":
            return Term.iri(tok.text[1:-1])
        if tok.kind == "pname":
            prefix, _, local = tok.text.partition(":")
            if prefix not in self.prefixes:
                self.fail(f"undeclared prefix {prefix + ':'!r}", tok)
            return Term.iri(self.prefixes[prefix] + local)
        if tok.kind == "blank":
            return Term.blank(tok.text[2:] + self.blank_scope)
        if tok.kind == "punct" and tok.text == "[":
            close = self.peek()
            if close.kind == "punct" and close.text == "]":
                self.next()
                self.anon += 1
                return Term.blank(f"anon{self.anon}{self.blank_scope}")
            self.fail("blank node property lists are not supported", tok)
        if tok.kind == "keyword" and tok.text == "a" and position == "predicate":
            return Term.iri(RDF_TYPE)
        if position in ("subject", "predicate"):
            self.fail(f"expected an IRI or blank node, found {tok.text!r}", tok)
        if tok.kind == "number":
            text = tok.text
            if "." not in text and "e" not in text.lower():
                return Term.literal(text, datatype=XSD_INTEGER)
            if "e" in text.lower():
                return Term.literal(text, datatype=XSD_DOUBLE)
            return Term.literal(text, datatype=XSD_DECIMAL)
        if tok.kind == "keyword" and tok.text.lower() in ("true", "false"):
            return Term.literal(tok.text.lower(), datatype=XSD_BOOLEAN)
        if tok.kind == "string":
            lexical = _unquote(tok.text)
            nxt = self.peek()
            if nxt.kind == "langtag":
                self.next()
                return Term.literal(lexical, language=nxt.text[1:])
            if nxt.kind == "dtype":
                self.next()
                dt = self.next()
                if dt.kind == "iriref":
                    datatype = dt.text[1:-1]
                elif dt.kind == "pname":
                    prefix, _, local = dt.text.partition(":")
                    if prefix not in self.prefixes:
                        self.fail(f"undeclared prefix {prefix + ':'!r}", dt)
                    datatype = self.prefixes[prefix] + local
                else:
                    self.fail("expected a datatype IRI after '^^'", dt)
                    return Term.literal(lexical)  # unreachable
                if datatype == XSD_STRING:
                    return Term.literal(lexical)
                return Term.literal(lexical, datatype=datatype)
            return Term.literal(lexical)
        self.fail(f"expected a term, found {tok.text!r}", tok)
        raise AssertionError  # fail always raises


def parse_document(text: str, blank_scope: str = "") -> set[Triple]:
    """Parse an RDF document into ground triples.

    ``blank_scope`` is appended to blank node labels so graphs from
    different documents never share a blank node.
    """
    return _DocReader(text, blank_scope).read()


def term_key(term: Term) -> str:
    """Stable string key for grouping/counting: IRIs bare, blanks '_:'-prefixed,
    literals quoted with their tag or datatype."""
    if term.is_iri:
        return term.value
    if term.is_blank:
        return "_:" + term.value
    if term.language:
        return f'"{term.value}"@{term.language}'
    if term.datatype:
        return f'"{term.value}"^^<{term.datatype}>'
    return f'"{term.value}"'


def read_dump(path) -> list[tuple[str, str, str]]:
    """Read an N-Triples/Turtle file into (subject, predicate, object) keys."""
    from pathlib import Path

    text = Path(path).read_text(encoding="utf-8")
    return [
        (term_key(s), term_key(p), term_key(o)) for s, p, o in parse_document(text)
    ]

