"""The streaming RDF reader against the token-list reader it replaced.

``_TokenListReader`` is the previous reader, kept as the oracle: it
tokenized the whole document with the SPARQL tokenizer first, then built
the triple set.  It has since learned one rule the reader gained later: a
relative IRI, one that does not start with a scheme, is a syntax error on
the line of its token.  Valid documents must give the same triples; malformed
ones, each with a single fault, the same exception type and line.  (With
two faults the readers may differ: the streaming reader reports the first
in document order, the old one any lexer fault before any parse fault.)

The SPARQL tokenizer the oracle ran on is frozen here as well
(``_frozen_tokenize``), so that the oracle does not change along with
``query``; the current ``query._tokenize`` must give the same token stream.
"""

import ast
import os
import random
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import pytest

import helpers
from ldcost import query, rdfio, stats
from ldcost.errors import InputError
from ldcost.query import (
    RDF_TYPE,
    XSD,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    QuerySyntaxError,
    Term,
    unquote,
)
from ldcost.rdfio import DocumentParseError, parse_document, read_dump

EX = helpers.EX
XSD_STRING = XSD + "string"


# --- the SPARQL tokenizer as it was when the oracle used it ------------------------

_FROZEN_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<iriref><[^<>"{}|^`\\\s]*>)
  | (?P<var>[?$][A-Za-z_0-9]+)
  | (?P<blank>_:[A-Za-z_0-9]+)
  | (?P<string>\"\"\"(?:[^"\\]|\\.|\"(?!\"\"))*\"\"\"|'''(?:[^'\\]|\\.|'(?!''))*'''|"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
  | (?P<langtag>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)
  | (?P<number>[+-]?(?:\d+\.\d+(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?))
  | (?P<dtype>\^\^)
  | (?P<punct>&&|\|\||!=|<=|>=|[{}().,;=<>!*\[\]/|+^])
  | (?P<pname>(?:[A-Za-z_][A-Za-z_0-9.-]*)?:(?:[A-Za-z_0-9%-]+(?:\.[A-Za-z_0-9%-]+)*)?)
  | (?P<keyword>[A-Za-z][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _frozen_tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _FROZEN_TOKEN_RE.match(text, pos)
        if m is None:
            raise QuerySyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup or ""
        tok = m.group(0)
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, tok, line, m.start() - line_start + 1))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            line_start = m.start() + tok.rfind("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


class _TokenListReader:
    def __init__(self, text: str, blank_scope: str):
        try:
            self.tokens = _frozen_tokenize(text)
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

    def read(self) -> set:
        triples: set = set()
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

    def statement(self, triples: set):
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

    def iri(self, tok: _Token) -> str:
        """The IRI an IRI or prefixed-name token names; a relative one
        fails on the token's line."""
        if tok.kind == "iriref":
            iri = tok.text[1:-1]
        else:
            prefix, _, local = tok.text.partition(":")
            if prefix not in self.prefixes:
                self.fail(f"undeclared prefix {prefix + ':'!r}", tok)
            iri = self.prefixes[prefix] + local
        if re.match(r"[A-Za-z][A-Za-z0-9+.-]*:", iri) is None:
            self.fail(f"IRI is not absolute: {iri!r}", tok)
        return iri

    def term(self, position: str) -> Term:
        tok = self.next()
        if tok.kind in ("iriref", "pname"):
            return Term.iri(self.iri(tok))
        if tok.kind == "blank":
            return Term.blank(tok.text[2:] + self.blank_scope)
        if tok.kind == "punct" and tok.text == "[":
            close = self.peek()
            if close.kind == "punct" and close.text == "]":
                self.next()
                self.anon += 1
                return Term.blank(f"[]{self.anon}{self.blank_scope}")
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
            lexical = unquote(tok.text)
            nxt = self.peek()
            if nxt.kind == "langtag":
                self.next()
                return Term.literal(lexical, language=nxt.text[1:])
            if nxt.kind == "dtype":
                self.next()
                dt = self.next()
                if dt.kind not in ("iriref", "pname"):
                    self.fail("expected a datatype IRI after '^^'", dt)
                datatype = self.iri(dt)
                if datatype == XSD_STRING:
                    return Term.literal(lexical)
                return Term.literal(lexical, datatype=datatype)
            return Term.literal(lexical)
        self.fail(f"expected a term, found {tok.text!r}", tok)
        raise AssertionError  # fail always raises


def oracle_parse(text: str, blank_scope: str = "") -> frozenset:
    return frozenset(_TokenListReader(text, blank_scope).read())


def outcome(parse, text: str):
    """The triples read, or the exception's type and line."""
    try:
        return parse(text, "@7")
    except (InputError, ValueError) as exc:
        return type(exc), getattr(exc, "line", None)


# --- corpus -----------------------------------------------------------------------

_LITERALS = [
    '"plain"',
    '"with \\"quotes\\" and \\\\ backslash"',
    '"tab\\tnew\\nline"',
    '"caf\\u00e9 \\U0001F600"',
    '"café direct"',
    "'single quoted'",
    '"""triple\nquoted "inner" text"""',
    "'''single\ntriple'''",
    '""',
    '"chat"@fr',
    '"colour"@en-GB',
    '"typed"^^xsd:string',
    f'"full"^^<{XSD_STRING}>',
    '"2021-06-01"^^xsd:date',
    f'"custom"^^<{EX}dt>',
    '"7"^^ex:number',
    "42",
    "-7",
    "+5",
    "3.14",
    ".5",
    "1.0e3",
    "2E-2",
    "true",
    "false",
]


def _random_graph(rng: random.Random):
    """(subject, predicate, objects) statements as Turtle fragments."""
    subjects = [f"ex:s{i}" for i in range(rng.randint(1, 6))] + ["_:b1", "_:b2", f"<{EX}full>"]
    predicates = ["ex:p", "ex:q", "a", f"<{EX}r>", "other:link"]
    objects = subjects + ["[]", "[ ]", "ex:o", f"<{EX}o2>"] + _LITERALS
    statements = []
    for _ in range(rng.randint(1, 8)):
        subject = rng.choice(subjects + ["[]"])
        pairs = []
        for _ in range(rng.randint(1, 3)):
            pairs.append((rng.choice(predicates), [rng.choice(objects) for _ in range(rng.randint(1, 3))]))
        statements.append((subject, pairs))
    return statements


def random_turtle(rng: random.Random) -> str:
    """A Turtle document using prefixes (both spellings), ';', ',', 'a',
    anonymous and labelled blank nodes, comments, escapes, language tags,
    datatypes, numbers and booleans."""
    def sp() -> str:
        return rng.choice([" ", "  ", "\n  ", "\t"])

    lines = []
    if rng.random() < 0.5:
        lines.append(f"@prefix ex: <{EX}> .")
    else:
        lines.append(f"PREFIX ex: <{EX}>")
    lines.append(rng.choice([f"@PREFIX xsd: <{XSD}> .", f"prefix xsd: <{XSD}>", f"@prefix xsd: <{XSD}> ."]))
    lines.append("@prefix other: <http://other.example/ns#> .")
    if rng.random() < 0.3:
        lines.append("# a comment line")
    for subject, pairs in _random_graph(rng):
        parts = []
        for predicate, objects in pairs:
            parts.append(predicate + sp() + ("," + sp()).join(objects))
        end = rng.choice([" .", " ;\n .", "\n."])
        comment = "  # trailing comment" if rng.random() < 0.2 else ""
        lines.append(subject + sp() + (" ;" + sp()).join(parts) + end + comment)
    if rng.random() < 0.3:  # redeclaring a prefix changes what its names expand to
        lines.append("@prefix ex: <http://example.org/other/> .")
        lines.append("ex:s0 ex:p ex:o .")
    return "\n".join(lines) + rng.choice(["\n", "", "\n\n# end\n"])


def turtle(records) -> str:
    """The same records as Turtle after a SPARQL-style 'PREFIX': prefixed
    names, 'a', ';' and ','."""
    return helpers.turtle(records, header=f"PREFIX ex: <{EX}>")


def chain_and_star_documents(root: Path) -> list[str]:
    """The texts of the chain, star, Plato and Mandela fixture documents."""
    helpers.build_chain_store(root / "chain", [3, 2, 2])
    helpers.build_plato_store(root / "plato", influencers=4)
    helpers.build_mandela_store(root / "mandela")
    texts = [path.read_text(encoding="utf-8") for path in sorted(root.rglob("docs/*"))]
    head = f"@prefix ex: <{EX}> .\n@prefix xsd: <{XSD}> .\n"
    texts.append(head + "\n".join(f"ex:seed ex:links ex:s{i} ." for i in range(5)) + "\n")
    for i in range(5):
        texts.append(f'{head}ex:s{i} ex:year "{1900 + i}"^^xsd:integer ;\n  ex:label "subject {i}" .\n')
    return texts


def _boundaries(text: str) -> list[int]:
    """Offsets where a token starts after white space, outside any string."""
    out = []
    quote = None
    for i, c in enumerate(text):
        if quote:
            if text.startswith(quote, i) and text[i - 1] != "\\":
                quote = None
            continue
        if c in "\"'":
            quote = text[i : i + 3] if text[i : i + 3] in ('"""', "'''") else c
            continue
        if i and text[i - 1].isspace() and not c.isspace():
            out.append(i)
    return out


_INSERTS = ["%", "{", "?x", "|", ")", "=", "$", "~", "&", "!", "<bad iri>", "@base <http://x/> .",
            "^^", ",", ";", ".", "a", "42", "# cut", "[ ex:p ex:o ]", "zz:undeclared", "@en", "BASE"]


def malformed_variants(rng: random.Random, text: str, n: int) -> Iterator[str]:
    """``n`` single faults of ``text``: an inserted token, a deleted or
    repeated token, a truncation."""
    cuts = _boundaries(text)
    if not cuts:
        return
    for _ in range(n):
        at = rng.choice(cuts)
        token_end = at
        while token_end < len(text) and not text[token_end].isspace() and text[token_end] not in "\"'":
            token_end += 1
        kind = rng.randrange(4)
        if kind == 0:
            yield text[:at] + rng.choice(_INSERTS) + " " + text[at:]
        elif kind == 1:
            yield text[:at] + text[token_end:]
        elif kind == 2:
            yield text[:token_end] + " " + text[at:]
        else:
            yield text[:at]


_QUERY_EXTRAS = [
    "# a comment line",
    "?v1 ex:label LITERAL .",
    "?v1 ex:label LITERAL, LITERAL ; ex:other $w .",
    'FILTER(?v1 != "x"@en && ?v1 <= 3 || !isURI(?v1))',
    "FILTER (lang(?v1) = 'en') FILTER(?v1 >= -2.5e3)",
    "SERVICE ?v1 { ?v1 ex:q ?w . }",
    "_:b ex:p [] .",
    "?v1 a xsd:string .",
]


def random_query(rng: random.Random) -> str:
    """A generated query with literals, escapes, comments, SERVICE blocks and
    filter operators added to a random answerable one."""
    body = helpers.random_answerable_query(rng).rstrip("}")
    for _ in range(rng.randint(0, 4)):
        extra = re.sub("LITERAL", lambda _: rng.choice(_LITERALS), rng.choice(_QUERY_EXTRAS))
        body += f"  {extra}\n"
    return f"PREFIX ex: <{EX}>\nPREFIX xsd: <{XSD}>\n{body}}}"


FIXTURE_QUERIES = [
    helpers.MANDELA_QUERY,
    helpers.PLATO_QUERY,
    helpers.PLATO_LD_QUERY,
    helpers.AUTHOR_CHAIN_QUERY,
    helpers.DIRECTOR_STAR_QUERY,
    helpers.BIRTHDATE_FILTER_QUERY,
    helpers.PARTY_CHAIN_QUERY,
    helpers.ISURI_QUERY,
]


def token_stream(tokenize, text: str, kinds: dict[str, str]):
    """(kind, text, line, column) per token with kinds renamed, or the
    tokenizer error's type, message and position."""
    try:
        return [(kinds.get(t.kind, t.kind), t.text, t.line, t.column) for t in tokenize(text)]
    except QuerySyntaxError as exc:
        return type(exc), str(exc), exc.line, exc.column


# --- tests ------------------------------------------------------------------------

class TestAgainstFrozenQueryTokenizer:
    def test_same_token_streams(self):
        rng = random.Random(4242)
        texts = FIXTURE_QUERIES + [random_query(rng) for _ in range(600)]
        variants = [v for text in texts for v in malformed_variants(rng, text, 3)]
        errors = 0
        for text in texts + variants:
            expected = token_stream(_frozen_tokenize, text, {"iriref": "iri", "keyword": "word"})
            assert token_stream(query._tokenize, text, {}) == expected, text
            errors += isinstance(expected, tuple)
        assert errors > 50

    def test_generated_queries_parse(self):
        rng = random.Random(4243)
        for _ in range(100):
            query.parse_query(random_query(rng))


class TestAgainstTokenListReader:
    def test_fixture_documents(self, tmp_path):
        texts = chain_and_star_documents(tmp_path)
        assert len(texts) > 20
        for text in texts:
            graph = parse_document(text, "@3")
            assert graph and graph == oracle_parse(text, "@3")

    def test_random_turtle_documents(self):
        rng = random.Random(2718)
        for _ in range(400):
            text = random_turtle(rng)
            graph = parse_document(text, "@1")
            assert graph == oracle_parse(text, "@1"), text

    def test_random_dumps_as_ntriples_and_turtle(self, tmp_path):
        rng = random.Random(31415)
        for _ in range(40):
            records = helpers.random_dump(rng, max_triples=200)
            text = helpers.ntriples(records)
            assert parse_document(text) == oracle_parse(text)
            path = tmp_path / "dump.nt"
            path.write_text(text, encoding="utf-8")
            assert set(read_dump(path)) == set(records)
            prefixed = turtle(records)
            assert parse_document(prefixed) == oracle_parse(prefixed) == parse_document(text)

    def test_malformed_documents_fail_alike(self, tmp_path):
        rng = random.Random(1618)
        texts = chain_and_star_documents(tmp_path) + [random_turtle(rng) for _ in range(150)]
        failures = 0
        for text in texts:
            for variant in malformed_variants(rng, text, 8):
                expected = outcome(oracle_parse, variant)
                assert outcome(parse_document, variant) == expected, variant
                failures += isinstance(expected, tuple)
        assert failures > 500


class TestStreamingReader:
    def test_lexer_error_reports_the_line_once(self):
        text = "<http://x/s> <http://x/p> <http://x/o> .\n<http://x/s> <http://x/p> % .\n"
        with pytest.raises(DocumentParseError) as err:
            parse_document(text)
        assert str(err.value) == "unexpected character '%' (line 2)"
        assert err.value.line == 2

    @pytest.mark.parametrize("c", ["\x01", " ", '"', "{", "\n"])
    def test_an_iri_error_names_the_character_at_fault(self, tmp_path, c):
        """Both readers name the first character the IRI class excludes,
        not the '<' before it, on that character's line, as the SPARQL
        parser does."""
        text = f"<{EX}s> <{EX}p> <{EX}o> .\n\n<{EX}s> <{EX}p>\n  <{EX}a{c}b> .\n"
        path = tmp_path / "dump.nt"
        path.write_text(text, encoding="utf-8")
        for read in (parse_document, lambda text: list(read_dump(path))):
            with pytest.raises(DocumentParseError) as err:
                read(text)
            assert str(err.value) == f"unexpected character {c!r} (line 4)"

    def test_an_unclosed_iri_at_the_end_names_its_start(self):
        with pytest.raises(DocumentParseError) as err:
            parse_document(f"<{EX}s> <{EX}p> <{EX}o> .\n<{EX}s")
        assert str(err.value) == "unexpected character '<' (line 2)"

    def test_error_line_is_the_offending_token(self):
        with pytest.raises(DocumentParseError) as err:
            parse_document(f'<{EX}s> <{EX}p> """one\ntwo\nthree""" ;\n\n  <{EX}q> ex:o .\n')
        assert err.value.line == 5 and "undeclared prefix 'ex:'" in str(err.value)

    def test_triples_are_yielded_one_at_a_time(self):
        triples = rdfio._triples(f"<{EX}s> <{EX}p> <{EX}o> .\n<{EX}s> <{EX}p> %\n", "")
        assert next(triples) == (Term.iri(EX + "s"), Term.iri(EX + "p"), Term.iri(EX + "o"))
        with pytest.raises(DocumentParseError):
            next(triples)

    def test_read_dump_is_an_iterator_of_keys(self, tmp_path):
        path = tmp_path / "dump.ttl"
        path.write_text(
            f'@prefix ex: <{EX}> .\nex:s a ex:C ; ex:p "v"@en, "v", 3 .\nex:s ex:p "v" .\n',
            encoding="utf-8",
        )
        records = read_dump(path)
        assert isinstance(records, Iterator)
        assert list(records) == [
            (EX + "s", RDF_TYPE, EX + "C"),
            (EX + "s", EX + "p", '"v"@en'),
            (EX + "s", EX + "p", '"v"'),
            (EX + "s", EX + "p", f'"3"^^<{XSD_INTEGER}>'),
            (EX + "s", EX + "p", '"v"'),  # repeats are yielded; the catalog counts distinct pairs
        ]


XSD_STRING_IRI = f"<{XSD_STRING}>"
OTHER = "http://other.example/ns#"

# Documents that start with statements the fast path reads, each next to
# the case it pins.
STATEMENT_CASES = {
    "number-after-literal": f'<{EX}s> <{EX}p> "1".5 .\n',
    "number-after-iri": f"<{EX}s> <{EX}p> <{EX}o>.5 .\n",
    "comments-and-blank-lines": (
        f"# header  \n\n<{EX}s> <{EX}p> <{EX}o> .\n\n   \n# between   \n# two lines\n"
        f'<{EX}s> <{EX}p> "x" . # trailing\n<{EX}s> # inside\n <{EX}p> <{EX}o2> .\n# end'
    ),
    "no-white-space": f'<{EX}s><{EX}p><{EX}o>.<{EX}s><{EX}p>"v"@en.<{EX}s><{EX}p>"w"^^<{EX}dt>.',
    "string-datatype-dropped": f'<{EX}s> <{EX}p> "x"^^{XSD_STRING_IRI} .\n<{EX}s> <{EX}p> "x" .\n',
    "tags-datatypes-escapes": (
        f'<{EX}s> <{EX}p> "chat"@fr .\n<{EX}s> <{EX}p> "c"@en-GB .\n'
        f'<{EX}s> <{EX}p> "7"^^<{XSD_INTEGER}> .\n<{EX}s> <{EX}p> "a\\"b\\u00e9\\n" .\n'
        f'<{EX}s> <{EX}p> "" .\n<{EX}s> <{EX}p> "x" ^^ <{EX}dt> .\n<{EX}s> <{EX}p> "y" @de .\n'
    ),
    "blank-nodes": f"_:a <{EX}p> _:b .\n_:b <{EX}p> _:a .\n<{EX}s> <{EX}p> _:a .\n",
    "blank-label-then-dot": f"<{EX}s> <{EX}p> _:b.\n_:c.d <{EX}p> <{EX}o> .\n",
    "turtle-semicolon-after": (
        f"<{EX}s> <{EX}p> <{EX}o> .\n<{EX}s> <{EX}p> <{EX}o2> ;\n  <{EX}q> \"v\" , 3 .\n"
        f"<{EX}t> <{EX}p> _:x .\n"
    ),
    "turtle-comma-after": f"<{EX}s> <{EX}p> <{EX}o> .\n<{EX}s> <{EX}p> <{EX}o2>, <{EX}o3> .\n",
    "prefix-after": f"<{EX}s> <{EX}p> <{EX}o> .\n@prefix ex: <{EX}> .\nex:s ex:p ex:o .\n",
    "commented-turtle": "# c   \n" * 300 + f"@prefix ex: <{EX}> .\nex:s a ex:C .\n",
    "long-string": f'<{EX}s> <{EX}p> """a\n"b"\n""" .\n<{EX}s> <{EX}p> \'single\' .\n',
    "truncated": f"<{EX}s> <{EX}p> <{EX}o> .\n<{EX}s> <{EX}p>",
    "missing-dot": f"<{EX}s> <{EX}p> <{EX}o>\n<{EX}s> <{EX}p> <{EX}o> .\n",
    # Turtle statements, at the boundaries where the lexer reads a token
    # another way than a backtracking match would
    "turtle-blank-label-then-dot": f"@prefix _: <{OTHER}> .\n@prefix ex: <{EX}> .\nex:s ex:p _:c.d .\n",
    "turtle-dotted-prefix-not-a": f"@prefix a.b: <{OTHER}> .\n@prefix ex: <{EX}> .\nex:s a.b:c ex:o ; a ex:C.\n",
    "turtle-a-then-prefixed-name": f"@prefix a: <{OTHER}> .\n@prefix ex: <{EX}> .\nex:s a:b ex:o ; a ex:C , a:D .\n",
    "turtle-a-then-colon": f"@prefix : <{EX}> .\n@prefix ex: <{EX}> .\nex:s a:b .\n",
    "turtle-blank-label-ending-in-a": f"@prefix ex: <{EX}> .\n_:xa ex:o .\n",
    "turtle-dot-in-local-name": f"@prefix ex: <{EX}> .\nex:s0.5 ex:p ex:s0.\nex:s0 ex:p ex:s0.5.\n",
    "turtle-colon-in-local-name": f"@prefix : <{EX}> .\n@prefix ex: <{EX}> .\nex:a:b ex:o .\n",
    "turtle-bare-blank-prefix": f"@prefix ex: <{EX}> .\nex:s ex:p ex:o .\nex:s ex:p _: .\n",
    "turtle-declared-blank-prefix": (
        f"@prefix _: <{OTHER}> .\n@prefix ex: <{EX}> .\nex:s ex:p _: , _:%41 , _:-b , _:b .\n"
    ),
    "turtle-percent-in-local-name": f"@prefix ex: <{EX}> .\nex:s ex:p ex:a%20b , ex:%7E ; ex:q ex:50%25 .\n",
    "turtle-undeclared-prefix": f"@prefix ex: <{EX}> .\nex:s ex:p ex:o ;\n  zz:p ex:o .\n",
    "turtle-lists": (
        f"@prefix ex: <{EX}> .\n@prefix xsd: <{XSD}> .\nex:s a ex:C ;\n  ex:p ex:o , _:b , <{EX}o2> ;\n"
        f'  ex:q "v"@en , "7"^^xsd:integer,"w" ^^ <{EX}dt> ; .\n_:b ex:p ex:s;ex:q"x".\n'
    ),
    "turtle-semicolon-twice": f"@prefix ex: <{EX}> .\nex:s ex:p ex:o ; ; ex:q ex:o .\n",
    "turtle-comma-after-semicolon": f"@prefix ex: <{EX}> .\nex:s ex:p ex:o ; , ex:o2 .\n",
    "turtle-number-after-semicolon": f"@prefix ex: <{EX}> .\nex:s ex:p ex:o ; .5 .\n",
    "turtle-prefixed-name-then-string": f"@prefix ex: <{EX}> .\nex:s ex:p ex:o.a\"x\" .\n",
    "turtle-directive-after": f"@prefix ex: <{EX}> .\nex:s ex:p ex:o .\n@prefix ex: <{OTHER}> .\nex:s ex:p ex:o .\n",
    # a relative IRI fails where it is used, on the line of its token
    "relative-prefix-as-a-name": f"@prefix ex: <rel/> .\n<{EX}s> <{EX}p> <{EX}o> .\nex:s ex:p ex:o .\n",
    "turtle-relative-prefix-datatype-in-a-list": (
        f'@prefix ex: <{EX}> .\n@prefix rel: <rel/> .\nex:s ex:p "x",\n  "y"^^rel:t .\n'
    ),
}


def disable_fast_paths(patch) -> None:
    """Make every compiled pattern of ``rdfio`` but the token lexer match
    nothing, and let no white-space tail end a document early, so that the
    token loop reads each document from its start."""
    for name, value in vars(rdfio).items():
        if isinstance(value, re.Pattern) and name != "_TOKEN_RE":
            patch.setattr(rdfio, name, re.compile(r"(?!)"))
    patch.setattr(rdfio, "_content_end", lambda text, pos: len(text) + 1)  # as if the text went on


def token_loop_outcome(monkeypatch, text: str, blank_scope: str = "@7", parse=parse_document):
    """``full_outcome`` with every directive and statement left to the
    token loop."""
    with monkeypatch.context() as patch:
        disable_fast_paths(patch)
        return full_outcome(text, blank_scope, parse)


def full_outcome(text: str, blank_scope: str = "@7", parse=parse_document):
    """The triples, or the error's type, message and line."""
    try:
        return parse(text, blank_scope)
    except DocumentParseError as exc:
        return type(exc), str(exc), exc.line


def in_order(text: str, blank_scope: str) -> list:
    """The triples in the order the reader yields them."""
    return list(rdfio._triples(text, blank_scope))


def assert_read_alike_in_sequence(texts: list[str]) -> None:
    """Read ``texts`` one after another through one term table, twice over,
    so that the second pass finds every term already there, each with a
    blank-node scope of its own: each gives the triples, in order, or the
    error of its reading alone, and hands over to the token loop where its
    reading alone does."""
    terms: dict = {}
    starts: list[int] = []  # where the token loop started reading the last text

    def shared(text: str, blank_scope: str) -> list:
        return list(rdfio._triples(text, blank_scope, terms))

    def read(text: str, blank_scope: str, parse) -> tuple:
        starts.clear()
        return full_outcome(text, blank_scope, parse), starts[:]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rdfio, "_TOKEN_RE", _RecordingTokenRe(starts))
        for i, text in enumerate(texts + texts):
            assert read(text, f"@{i}", shared) == read(text, f"@{i}", in_order), text
    assert len(terms) < len(texts) / 2  # documents with the same head shared a table


def random_ntriples(rng: random.Random) -> str:
    """An N-Triples document with comments, blank lines, blank nodes,
    escapes, language tags and datatypes, sometimes ending in Turtle."""
    nodes = [f"<{EX}n{i}>" for i in range(6)] + ["_:b0", "_:b1"]
    literals = ['"plain"', '"a\\"q\\u00e9\\t"', '"chat"@fr', '"c"@en-GB', '""',
                f'"7"^^<{XSD_INTEGER}>', f'"s"^^{XSD_STRING_IRI}', '"""long\n"x"\n"""']
    lines = []
    for _ in range(rng.randint(1, 30)):
        gap = rng.choice([" ", "  ", "\t", " # c \n "])
        obj = rng.choice(nodes + literals)
        lines.append(gap.join([rng.choice(nodes), rng.choice(nodes[:6]), obj]) + rng.choice([" .", ".", " . # t"]))
        if rng.random() < 0.15:
            lines.append(rng.choice(["", "# a comment   ", "   "]))
    if rng.random() < 0.3:
        lines.append(f"@prefix ex: <{EX}> .\nex:n0 ex:p ex:n1 ; ex:q 3 .")
    return "\n".join(lines) + rng.choice(["\n", ""])


class TestStatementLoop:
    """Leading N-Triples statements are matched whole; the token loop reads
    the rest of the document and reports every error."""

    @pytest.mark.parametrize("text", STATEMENT_CASES.values(), ids=STATEMENT_CASES)
    def test_cases_match_token_list_reader(self, monkeypatch, text):
        assert outcome(parse_document, text) == outcome(oracle_parse, text)
        assert full_outcome(text) == token_loop_outcome(monkeypatch, text)

    def test_random_ntriples_and_their_faults(self, monkeypatch):
        rng = random.Random(9091)
        failures = 0
        for _ in range(150):
            text = random_ntriples(rng)
            assert parse_document(text, "@2") == oracle_parse(text, "@2"), text
            for variant in malformed_variants(rng, text, 4):
                expected = token_loop_outcome(monkeypatch, variant)
                assert full_outcome(variant) == expected, variant
                assert outcome(parse_document, variant) == outcome(oracle_parse, variant), variant
                failures += isinstance(expected, tuple)
        assert failures > 100

    def test_cases_and_random_documents_read_alike_in_sequence(self):
        rng = random.Random(9091)
        texts = list(STATEMENT_CASES.values())
        for _ in range(150):
            text = random_ntriples(rng)
            texts += [text, *malformed_variants(rng, text, 4)]
        assert_read_alike_in_sequence(texts)

    @pytest.mark.parametrize("bad, message", [
        ("<relative> <http://x/p> <http://x/o> .", "IRI is not absolute: 'relative'"),
        ('<http://x/a> <http://x/p> "x"^^<rel> .', "IRI is not absolute: 'rel'"),
        ('<http://x/a> <http://x/p> "x\\uZZZZ" .', "bad escape \\uZZZZ"),
    ], ids=["relative-iri", "relative-datatype", "bad-escape"])
    def test_error_on_line_1001_of_a_dump(self, tmp_path, monkeypatch, bad, message):
        good = [f"<{EX}s{i}> <{EX}p> <{EX}o{i}> ." for i in range(1000)]
        text = "\n".join(good + [bad] + good[:5]) + "\n"
        expected = (DocumentParseError, f"{message} (line 1001)", 1001)
        assert full_outcome(text) == token_loop_outcome(monkeypatch, text) == expected
        path = tmp_path / "dump.nt"
        path.write_text(text, encoding="utf-8")
        records = read_dump(path)
        assert [next(records) for _ in range(1000)][-1] == (f"{EX}s999", f"{EX}p", f"{EX}o999")
        with pytest.raises(DocumentParseError) as err:
            next(records)
        assert (str(err.value), err.value.line) == expected[1:]

    @pytest.mark.parametrize("text, handed_over", [
        # read to the end: the token loop never starts
        (f"<{EX}s> <{EX}p> <{EX}o> .\n<{EX}s> <{EX}p> \"v\"@en .\n", None),
        (f"<{EX}s> <{EX}p> <{EX}o> .\n<{EX}s> <{EX}p> 3 .\n", f"\n<{EX}s> <{EX}p> 3 .\n"),
        # the directive and the statement after it are both matched whole
        (f"@prefix ex: <{EX}> .\n<{EX}s> <{EX}p> <{EX}o> .\n", None),
        # a statement's first triples are kept back, and read again by the token loop
        (f"@prefix ex: <{EX}> .\nex:s a ex:C .\nex:s ex:p ex:o ; ex:q 3 .\n", "\nex:s ex:p ex:o ; ex:q 3 .\n"),
    ])
    def test_token_loop_starts_after_the_leading_statements(self, monkeypatch, text, handed_over):
        start = token_loop_start(monkeypatch, text)
        assert (start if start is None else text[start:]) == handed_over


# Documents naming an IRI with no scheme: (text, message, line).  '_:b'
# written as an IRI is not the blank node '_:b'.
SCHEMELESS_IRIS = {
    "ntriples-blank-label-subject": (
        "<_:b> <http://x/p> <http://x/o> .\n_:b <http://x/p> <http://x/o2> .\n", "IRI is not absolute: '_:b'", 1
    ),
    "ntriples-empty-scheme-datatype": (
        f'<{EX}s> <{EX}p> <{EX}o> .\n<{EX}s> <{EX}p> "x"^^<:t> .\n', "IRI is not absolute: ':t'", 2
    ),
    "ntriples-digit-first-predicate": (f"<{EX}s> <1x:p> <{EX}o> .\n", "IRI is not absolute: '1x:p'", 1),
    "turtle-blank-label-in-a-list": (
        f"@prefix ex: <{EX}> .\nex:s ex:p ex:o ,\n  <_:b> .\n", "IRI is not absolute: '_:b'", 3
    ),
    "turtle-prefix-without-scheme": (
        "@prefix e: <_:> .\ne:b <http://x/p> <http://x/o> .\n", "IRI is not absolute: '_:b'", 2
    ),
}


class TestAbsoluteIris:
    """An IRI is absolute only if it starts with a scheme: a letter, then
    letters, digits, '+', '-' or '.', then ':'."""

    @pytest.mark.parametrize("text, message, line", SCHEMELESS_IRIS.values(), ids=SCHEMELESS_IRIS)
    def test_an_iri_with_no_scheme_fails_on_its_line(self, tmp_path, monkeypatch, text, message, line):
        expected = (DocumentParseError, f"{message} (line {line})", line)
        assert full_outcome(text) == token_loop_outcome(monkeypatch, text) == expected
        assert outcome(oracle_parse, text) == (DocumentParseError, line)
        path = tmp_path / "dump.nt"
        path.write_text(text, encoding="utf-8")
        assert dump_outcome(path) == expected

    def test_every_scheme_character_is_read(self, monkeypatch):
        text = f"<a1+b.c-d:s> <urn:p> <{EX}o> .\n<A:s> <urn:p> \"x\"^^<z:t> .\n"
        expected = {
            (Term.iri("a1+b.c-d:s"), Term.iri("urn:p"), Term.iri(EX + "o")),
            (Term.iri("A:s"), Term.iri("urn:p"), Term.literal("x", datatype="z:t")),
        }
        assert parse_document(text) == oracle_parse(text) == token_loop_outcome(monkeypatch, text) == expected


class TestAnonymousBlankNodes:
    """``[]`` is a blank node of its own, apart from every written label:
    its label holds a character no blank-node token can spell."""

    def test_an_anonymous_node_is_not_a_written_label(self):
        text = "_:anon1 <http://x/p> <http://x/o> .\n<http://x/s> <http://x/q> [] .\n"
        triples = {t[1].value: t for t in parse_document(text, "@7")}
        written, anonymous = triples["http://x/p"][0], triples["http://x/q"][2]
        assert written == Term.blank("anon1@7")
        assert anonymous.is_blank and anonymous != written and "[" in anonymous.value
        assert parse_document(text, "@7") == oracle_parse(text, "@7")

    def test_a_dump_counts_them_as_two_subjects(self, tmp_path):
        path = tmp_path / "dump.nt"
        path.write_text("_:anon1 <http://x/p> <http://x/o> .\n[] <http://x/p> <http://x/o> .\n", encoding="utf-8")
        (subject1, _, _), (subject2, _, _) = read_dump(path)
        assert subject1 == "_:anon1" and subject2 != subject1
        catalog = stats.compute_from_dump(read_dump(path))
        assert catalog.per_predicate["http://x/p"].avg_subject_bindings == 2.0


def dump_outcome(path):
    """The records ``read_dump`` yields, or the error's type, message and line."""
    try:
        return list(read_dump(path))
    except DocumentParseError as exc:
        return type(exc), str(exc), exc.line


def keyed_triples(text: str):
    """The keys of the terms ``_triples`` reads, or the error's type,
    message and line: the records ``read_dump`` must yield."""
    term_key = rdfio.term_key
    return full_outcome(text, "", lambda text, scope: [tuple(map(term_key, t)) for t in rdfio._triples(text, scope)])


class TestDumpKeys:
    """``read_dump`` keys plain N-Triples statements from their tokens; from
    the first other statement ``_triples`` reads the rest.  Either way the
    records, or the error, are those of the terms ``_triples`` reads."""

    def test_random_ntriples_and_their_faults(self, tmp_path, monkeypatch):
        rng = random.Random(9092)
        path = tmp_path / "dump.nt"
        failures = handed_over = 0
        for _ in range(150):
            text = random_ntriples(rng)
            for variant in [text, *malformed_variants(rng, text, 4)]:
                path.write_text(variant, encoding="utf-8")
                expected = keyed_triples(variant)
                assert dump_outcome(path) == expected, variant
                with monkeypatch.context() as patch:
                    disable_fast_paths(patch)
                    assert dump_outcome(path) == expected, variant
                failures += isinstance(expected, tuple)
                handed_over += "@prefix" in variant
        assert failures > 100 and handed_over > 50

    def test_a_turtle_block_mid_file_is_handed_over(self, tmp_path, monkeypatch):
        head = "".join(f"<{EX}s{i}> <{EX}p> <{EX}o{i}> .\n" for i in range(3))
        text = (
            head + f"@prefix ex: <{EX}> .\nex:s a ex:C ;\n  ex:p ex:o , _:b , \"v\"@en .\n"
            + f'<{EX}s> <{EX}p> _:b .\n<{EX}s> <{EX}p> "w"^^<{XSD_STRING}> .\n'
        )
        path = tmp_path / "dump.nt"
        path.write_text(text, encoding="utf-8")
        starts = []
        triples = rdfio._triples

        def recorded(text, blank_scope, terms=None, pos=0):
            starts.append(pos)
            return triples(text, blank_scope, terms, pos)

        with monkeypatch.context() as patch:
            patch.setattr(rdfio, "_triples", recorded)
            records = list(read_dump(path))
        assert starts == [len(head) - 1]  # the end of the last statement the key loop read
        s, p = EX + "s", EX + "p"
        assert records == keyed_triples(text) == [
            *[(f"{EX}s{i}", p, f"{EX}o{i}") for i in range(3)],
            (s, RDF_TYPE, EX + "C"), (s, p, EX + "o"), (s, p, "_:b"), (s, p, '"v"@en'),
            (s, p, "_:b"), (s, p, '"w"'),
        ]


# White space and comments a plain N-Triples statement may hold between
# its terms and around a literal's tag or datatype.
GAP_SHAPES = ["", " ", "\t", "   ", "\r\n", "\n", "\n\n", " # c\n", "\n# c\n\t", "\x0b", "\u3000"]
# Statements with a slot for a gap before each term and the '.', and
# around a literal's '^^' or tag; the first slot is the gap before the
# subject, which the statement before ends.
GAP_TEMPLATES = [
    '\n{}<{EX}s>{}<{EX}p>{}"x"{}^^{}<{XSD_STRING}>{}.',
    "\n{}_:b{}<{EX}p>{}'x'{}@en-GB{}.",
    '\n{}<{EX}s>{}<{EX}q>{}<{EX}o>{}.',
]


class TestStatementGaps:
    """Every gap shape in every slot reads as the one-space twin, by both
    readers; a literal's tokens in two spellings are keyed twice, as one
    term."""

    def test_every_gap_in_every_slot_reads_as_one_space(self, tmp_path):
        path = tmp_path / "dump.nt"
        for template in GAP_TEMPLATES:
            slots = template.count("{}")
            twin = template.format(*[" "] * slots, EX=EX, XSD_STRING=XSD_STRING)
            expected_keys, expected_triples = keyed_triples(twin), parse_document(twin)
            assert len(expected_keys) == 1
            for slot in range(slots):
                for gap in GAP_SHAPES:
                    gaps = [" "] * slots
                    gaps[slot] = gap
                    text = template.format(*gaps, EX=EX, XSD_STRING=XSD_STRING)
                    path.write_text(text, encoding="utf-8", newline="")
                    assert dump_outcome(path) == expected_keys, text
                    assert parse_document(text) == expected_triples, text

    def test_a_literal_is_keyed_by_its_whole_token(self, tmp_path):
        path = tmp_path / "dump.nt"
        spellings = [f'"x"^^<{XSD_STRING}>', f'"x" ^^ <{XSD_STRING}>', '"x"@en', '"x"\n  @en']
        text = "".join(f"<{EX}s{i}> <{EX}p> {o} .\n" for i, o in enumerate(spellings))
        path.write_text(text, encoding="utf-8")
        assert [o for _, _, o in read_dump(path)] == ['"x"', '"x"', '"x"@en', '"x"@en']
        terms: dict = {}
        triples = parse_document(text, terms=terms)
        assert len({o for _, _, o in triples}) == 2
        literal_tokens = [token for token in terms[()] if isinstance(token, str) and token[0] == '"']
        assert literal_tokens == spellings


def token_loop_start(monkeypatch, text: str) -> int | None:
    """The offset where the token loop starts reading ``text``; None if it
    never starts."""
    starts = []
    expected = parse_document(text)
    with monkeypatch.context() as patch:
        patch.setattr(rdfio, "_TOKEN_RE", _RecordingTokenRe(starts))
        assert parse_document(text) == expected
    assert len(starts) <= 1
    return starts[0] if starts else None


class _RecordingTokenRe:
    """Records where the token loop starts, then lexes as ``rdfio._TOKEN_RE``."""

    def __init__(self, starts: list):
        self.starts = starts
        self.pattern = rdfio._TOKEN_RE

    def finditer(self, text: str, pos: int = 0):
        self.starts.append(pos)
        return self.pattern.finditer(text, pos)


def random_directives(rng: random.Random) -> str:
    """One to four '@prefix' directives, the empty prefix and redeclarations
    included, with white space and comments between and inside them; the
    text ends at the last directive's '.'."""
    def gap() -> str:
        return rng.choice([" ", "", "\t", "\n  ", " # note \n", "\n# a line\n\n"])

    names = rng.choice([["ex", "xsd"], ["", "ex"], ["ex", "ex"], ["a.b", "ex"]])
    iris = {"ex": EX, "xsd": XSD, "": EX, "a.b": "http://other.example/ns#"}
    out = []
    for name in names[: rng.randint(0, 2)] + ["ex"] * rng.randint(1, 2):
        space = rng.choice([" ", "\t", " # c\n "])  # the tag ends before the name
        out.append(f"{gap()}@prefix{space}{name}:{gap()}<{iris[name]}>{gap()}.")
    return "".join(out)


def random_directive_document(rng: random.Random) -> str:
    """Leading directives, then prefixed Turtle, N-Triples or both."""
    body = rng.choice([
        "\nex:s ex:p ex:o ; ex:q 3 .\n",
        f"\n<{EX}s> <{EX}p> <{EX}o> .\nex:s a ex:C .\n",
        f"\n<{EX}s> <{EX}p> \"v\"@en .\n",
        "\n_:b ex:p [] , \"w\" .\n# end",
        "",
    ])
    return random_directives(rng) + body


# Documents with a fault in or near a leading directive, and valid spellings
# that the directive match leaves to the token loop.
DIRECTIVE_CASES = {
    "missing-dot": f"@prefix ex: <{EX}>\nex:s ex:p ex:o .\n",
    "name-without-colon": f"@prefix ex <{EX}> .\nex:s ex:p ex:o .\n",
    "name-with-local-part": f"@prefix ex:s <{EX}> .\n",
    "upper-case-keyword": f"@PREFIX ex: <{EX}> .\nex:s ex:p ex:o .\n",
    "longer-tag": f"@prefixes ex: <{EX}> .\nex:s ex:p ex:o .\n",
    "no-space-after-the-tag": f"@prefixex: <{EX}> .\nex:s ex:p ex:o .\n",
    "tag-with-subtag": f"@prefix-x ex: <{EX}> .\n",
    "tag-then-digit": f"@prefix0 ex: <{EX}> .\n",
    "comment-inside": f"@prefix ex: # the vocabulary\n  <{EX}> # ends here\n .\nex:s ex:p ex:o .\n",
    "comment-to-the-end": f"@prefix ex: <{EX}> # no dot",
    "relative-iri-unused": f"@prefix ex: <rel/> .\n<{EX}s> <{EX}p> <{EX}o> .\n",
    "redeclaration-after-statements": (
        f"@prefix ex: <{EX}> .\nex:s ex:p ex:o .\n@prefix ex: <http://other.example/> .\nex:s ex:p ex:o .\n"
    ),
    "redeclaration-in-the-head": f"@prefix ex: <http://other.example/> .\n@prefix ex: <{EX}> .\nex:s ex:p ex:o .\n",
    "number-after-the-iri": f"@prefix ex: <{EX}> .5 .\n",
    "no-white-space": f"@prefix ex:<{EX}>.ex:s ex:p ex:o.",
    "empty-prefix": f"@prefix : <{EX}> .\n:s :p : .\n",
    "sparql-spelling": f"PREFIX ex: <{EX}>\n@prefix xsd: <{XSD}> .\nex:s ex:p \"1\"^^xsd:int .\n",
    "sparql-spelling-after": f"@prefix ex: <{EX}> .\nPREFIX xsd: <{XSD}>\nex:s ex:p \"1\"^^xsd:int .\n",
    "base": f"@base <{EX}> .\n<{EX}s> <{EX}p> <{EX}o> .\n",
    "iri-not-closed": f"@prefix ex: <{EX} .\n",
    "undeclared-after-directive": f"@prefix ex: <{EX}> .\nzz:s ex:p ex:o .\n",
}


class TestLeadingDirectives:
    """Leading '@prefix' directives are matched whole before the N-Triples
    statements; the token loop reads every other spelling and reports
    every error, with the same message and line."""

    @pytest.mark.parametrize("text", DIRECTIVE_CASES.values(), ids=DIRECTIVE_CASES)
    def test_cases_match_token_list_reader(self, monkeypatch, text):
        assert outcome(parse_document, text) == outcome(oracle_parse, text)
        assert full_outcome(text) == token_loop_outcome(monkeypatch, text)

    def test_random_documents_and_their_faults(self, monkeypatch):
        rng = random.Random(6061)
        failures = 0
        for _ in range(300):
            text = random_directive_document(rng)
            assert parse_document(text, "@2") == oracle_parse(text, "@2"), text
            assert full_outcome(text) == token_loop_outcome(monkeypatch, text), text
            for variant in malformed_variants(rng, text, 4):
                expected = token_loop_outcome(monkeypatch, variant)
                assert full_outcome(variant) == expected, variant
                assert outcome(parse_document, variant) == outcome(oracle_parse, variant), variant
                failures += isinstance(expected, tuple)
        assert failures > 600

    def test_cases_and_random_documents_read_alike_in_sequence(self):
        rng = random.Random(6061)
        texts = list(DIRECTIVE_CASES.values())
        for _ in range(300):
            text = random_directive_document(rng)
            texts += [text, *malformed_variants(rng, text, 4)]
        assert_read_alike_in_sequence(texts)

    def test_token_loop_starts_after_the_directives(self, monkeypatch):
        rng = random.Random(6062)
        for _ in range(100):
            head = random_directives(rng) + "\nex:s ex:p ex:o ."
            text = head + "\nex:s ex:p 3 .\n"
            assert token_loop_start(monkeypatch, text) == len(head), text


def random_prefixed_turtle(rng: random.Random) -> str:
    """Leading '@prefix' directives, then Turtle statements with prefixed
    names, IRIs and blank-node labels in every position, 'a', ';' and ','
    lists, '; .' endings, tagged and typed literals, escapes and comments;
    some statements hold a term only the token loop reads."""
    def gap() -> str:
        return rng.choice([" ", "  ", "\n  ", "\t", " # c \n "])

    def mark(punct: str) -> str:  # no white space is needed around a mark
        return rng.choice(["", " ", "\n"]) + punct + rng.choice(["", " ", "\n  "])

    nodes = ["ex:s0", "ex:s0.5", "ex:a-b", "ex:a%20b", "ex:", ":s", "o.x:thing", "_:b0", "_:b_1", "_:ba", "_:", "_:-x",
             f"<{EX}s>"]
    predicates = ["ex:p", "ex:q", "a", ":p", "a:b", "o.x:rel", f"<{EX}r>"]
    literals = ['"plain"', '"esc\\"aped\\u00e9"', '"chat"@fr', '"c" @en-GB', '"7"^^xsd:integer',
                f'"7"^^<{XSD_INTEGER}>', '"x" ^^ xsd:string', '"""long "x" text"""', "'single'", '""']
    token_loop_only = ["42", "true", "[]", "-1.5e3"]
    lines = [f"@prefix {name}: <{iri}> ." for name, iri in
             [("ex", EX), ("xsd", XSD), ("", EX), ("a", OTHER), ("_", OTHER), ("o.x", OTHER)]]
    for _ in range(rng.randint(1, 8)):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            objects = [rng.choice(nodes + literals) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.05:
                objects[-1] = rng.choice(token_loop_only)
            pairs.append(rng.choice(predicates) + gap() + mark(",").join(objects))
        end = rng.choice([mark("."), mark(";") + ".", " ;" + gap() + "."])
        lines.append(rng.choice(nodes) + gap() + mark(";").join(pairs) + end)
    return "\n".join(lines) + rng.choice(["\n", "", "\n# end", "\n\n"])


def joined_variants(rng: random.Random, text: str, n: int) -> Iterator[str]:
    """``n`` copies of ``text``, each with the white space before one token
    taken out, so that it runs into the token before it."""
    cuts = _boundaries(text)
    for at in rng.sample(cuts, min(n, len(cuts))):
        yield text[:at].rstrip() + text[at:]


def block_variants(rng: random.Random, text: str) -> list[str]:
    """Documents to read right after ``text`` (a ``random_prefixed_turtle``)
    whose leading '@prefix' block is ``text``'s, or differs from it in one
    way: one more directive, fewer directives, 'ex:' declared again, other
    white space or a comment, or the block followed by '5', by '@base' or
    by a statement and then a directive."""
    lines = text.split("\n", 6)
    block, body = "\n".join(lines[:6]), lines[6]
    other = 'ex:s0 ex:p "7"^^xsd:integer , o.x:thing ; a:b _:b0 .\n'
    redeclared = f"@prefix ex: <{OTHER}> ."
    variants = [
        block + "\n" + body,
        block + "\n" + other,
        block + "\n@prefix extra: <http://extra.example/> .\n" + other,
        "\n".join(lines[: rng.randint(1, 5)]) + "\n" + rng.choice([body, other]),
        block + "\n" + redeclared + "\n" + other,
        block.replace(f"@prefix ex: <{EX}> .", redeclared) + "\n" + other,
        block.replace("\n", rng.choice(["\n\n", "\n# c\n", " \n", "\t\n"]), 1) + "\n" + other,
        block.replace(" .", rng.choice(["  .", "\t.", "."]), 1) + "\n" + other,
        block + "5 .\n" + other,
        block + "\n@base <http://x/> .\n" + other,
        block + "\n" + other + redeclared + "\n" + other,
    ]
    return [*rng.sample(variants, 4), block + "\n" + other]


# A typed literal whose datatype prefix maps to one IRI in some blocks and
# to another in others, and in one document is declared again after a
# statement.
TYPED_UNDER_TWO_BLOCKS = [
    f'@prefix t: <{EX}> .\n<{EX}s> <{EX}p> "7"^^t:int .\n',
    f'@prefix t: <{OTHER}> .\n<{EX}s> <{EX}p> "7"^^t:int .\n',
    f'@prefix t: <{EX}> .\n<{EX}s> <{EX}p> "7"^^t:int .\n@prefix t: <{OTHER}> .\n<{EX}s> <{EX}q> "7"^^t:int .\n',
    f'@prefix t: <{EX}> .\n<{EX}s> <{EX}q> "7"^^t:int .\n',
    f'@prefix t: <{EX}> .\n\n<{EX}s> <{EX}q> "7"^^t:int .\n',
    f'@prefix t: <{EX}> .\n@prefix t: <{OTHER}> .\n<{EX}s> <{EX}q> "7"^^t:int .\n',
    f'@prefix t: <{EX}> .\n<{EX}s> <{EX}q> "7"^^t:int .\n',
]


# Documents the fast path reads to their end.
READ_WHOLE = {
    "empty": "",
    "comments": "# a comment\n\n   # another, with no newline",
    "ntriples": f'<{EX}s> <{EX}p> <{EX}o> .\n_:b <{EX}p> "v"@en .\n<{EX}s> <{EX}p> "7"^^<{XSD_INTEGER}> .\n',
    "directives": f"@prefix ex: <{EX}> .\n@prefix xsd: <{XSD}> .\n",
    "star": (
        f'@prefix ex: <{EX}> .\n@prefix xsd: <{XSD}> .\nex:s7 ex:year "1950"^^xsd:integer ;\n  ex:label "subject 7" .\n'
    ),
    "seed": f"@prefix ex: <{EX}> .\n" + "\n".join(f"ex:seed ex:links ex:s{i} ." for i in range(5)),
    "lists": STATEMENT_CASES["turtle-lists"] + "# end",
    "mixed": f"@prefix ex: <{EX}> .\n<{EX}s> <{EX}p> <{EX}o> .\nex:s a ex:C ; .\n<{EX}s> <{EX}p> _:b .\n",
}
# The same documents with tails only white space or comments follow.
READ_WHOLE |= {
    "space-tail": READ_WHOLE["ntriples"] + " ",
    "separator-tail": READ_WHOLE["star"] + "\x1c",  # a file separator: white space to \\s and str.isspace
    "next-line-tail": READ_WHOLE["seed"] + "\x85",
    "comment-tail": READ_WHOLE["star"] + "# end\n",
    "comment-tail-no-newline": READ_WHOLE["star"] + "  # end",
    "white-space-only": " \t\n\x0b\x0c\x1c\x85\u2028\u3000\n",
    "comment-only": "# only a comment\n",
}


class TestTurtleStatements:
    """Turtle statements with prefixed names, 'a' and ';' or ',' lists are
    matched whole; the triples, their order and every error are the token
    loop's."""

    def test_random_documents_and_their_faults(self, monkeypatch):
        rng = random.Random(7071)
        whole = failures = 0
        for _ in range(300):
            text = random_prefixed_turtle(rng)
            assert parse_document(text, "@2") == oracle_parse(text, "@2"), text
            assert full_outcome(text, "@2", in_order) == token_loop_outcome(monkeypatch, text, "@2", in_order), text
            whole += token_loop_start(monkeypatch, text) is None
            for variant in malformed_variants(rng, text, 4):
                expected = token_loop_outcome(monkeypatch, variant, parse=in_order)
                assert full_outcome(variant, parse=in_order) == expected, variant
                assert outcome(parse_document, variant) == outcome(oracle_parse, variant), variant
                failures += isinstance(expected, tuple)
            # The token list reader reports a lexer fault before any parse
            # fault, so a joined token is checked against the token loop only.
            for variant in joined_variants(rng, text, 2):
                assert full_outcome(variant, parse=in_order) == token_loop_outcome(monkeypatch, variant, parse=in_order)
        assert whole > 100 and failures > 400

    def test_random_documents_read_alike_in_sequence(self):
        rng = random.Random(7071)
        siblings = random.Random(7072)
        texts = list(READ_WHOLE.values())
        for _ in range(300):
            text = random_prefixed_turtle(rng)
            texts += [text, *block_variants(siblings, text), *malformed_variants(rng, text, 4),
                      *joined_variants(rng, text, 2)]
        texts += TYPED_UNDER_TWO_BLOCKS
        assert_read_alike_in_sequence(texts)

    @pytest.mark.parametrize("text, message, line", [
        (f'@prefix ex: <{EX}> .\nex:s ex:p "x" ;\n  ex:q "\\uZZZZ" .\n', "bad escape \\uZZZZ", 3),
    ], ids=["bad-escape-in-a-list"])
    def test_errors_the_fast_path_leaves_to_the_token_loop(self, monkeypatch, text, message, line):
        """A bad escape in a statement's list fails on the line of its
        token, as the token loop reads it.  (``STATEMENT_CASES`` has a
        relative IRI in a list.)"""
        expected = (DocumentParseError, f"{message} (line {line})", line)
        assert full_outcome(text) == token_loop_outcome(monkeypatch, text) == expected

    @pytest.mark.parametrize("text", READ_WHOLE.values(), ids=READ_WHOLE)
    def test_a_document_read_whole_never_starts_the_token_loop(self, monkeypatch, text):
        assert token_loop_start(monkeypatch, text) is None
        assert full_outcome(text, parse=in_order) == token_loop_outcome(monkeypatch, text, parse=in_order)

    @pytest.mark.parametrize("text", READ_WHOLE.values(), ids=READ_WHOLE)
    def test_token_loop_outcome_leaves_no_fast_path(self, monkeypatch, text):
        """The oracle the fast path is checked against reads every document
        from its start with the token loop alone."""
        starts = []
        with monkeypatch.context() as patch:
            disable_fast_paths(patch)
            patch.setattr(rdfio, "_TOKEN_RE", _RecordingTokenRe(starts))
            parse_document(text)
        assert starts == [0]

    @pytest.mark.parametrize("tail", ["\n", " \n\x85 ", "# end\n"], ids=["newline", "white-space", "comment"])
    def test_no_pattern_reads_a_white_space_tail(self, monkeypatch, tail):
        """Star documents like the benchmark's, read one after another through
        one term table, make no match at all past their last '.', not even
        one that fails, unless a comment follows it."""
        texts = [READ_WHOLE["star"].rstrip() + tail, READ_WHOLE["star"].replace("s7", "s8").rstrip() + tail]
        terms: dict = {}
        for text in texts:
            calls = []
            with monkeypatch.context() as patch:
                for name, value in vars(rdfio).items():
                    if isinstance(value, re.Pattern) and name != "_TOKEN_RE":
                        patch.setattr(rdfio, name, _RecordingPattern(name, value, calls))
                triples = list(rdfio._triples(text, "@1", terms))
            assert triples == in_order(text, "@1")
            last = text.rindex(".") + 1
            at_end = [(name, matched) for name, pos, matched in calls if pos >= last]
            if "#" in tail:  # a comment is read as a statement might start there
                assert at_end == [("_STATEMENT_RE", False), ("_TURTLE_RE", False), ("_END_RE", True)]
            else:
                assert at_end == []
            # before it, the check for a directive after the block fails, and
            # so does the N-Triples reading of the Turtle statement
            failed = [name for name, pos, matched in calls if not matched and pos < last]
            assert failed == ["_PREFIX_RE", "_STATEMENT_RE"]


class _RecordingPattern:
    """Records each match asked of it, (name, offset, whether it matched),
    then matches as ``pattern``."""

    def __init__(self, name: str, pattern: re.Pattern, calls: list):
        self.name, self.pattern, self.calls = name, pattern, calls

    def match(self, text: str, pos: int = 0):
        m = self.pattern.match(text, pos)
        self.calls.append((self.name, pos, m is not None))
        return m


def test_white_space_is_what_the_patterns_skip():
    """``_content_end`` scans back over ``str.isspace`` characters, and the
    patterns skip ``\\s``: both accept the same characters."""
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", chars) == [c for c in chars if c.isspace()]
    assert rdfio._content_end("a .\x85\u3000\n", 0) == 3
    assert rdfio._content_end("a . \n", 3) == 3
    assert rdfio._content_end("", 0) == 0


def frozen_read_text(path) -> str:
    """``rdfio.read_text`` as it read through a buffered ``open``: the
    oracle of the os-level reader."""
    with open(path, "rb") as file:
        data = file.read().removeprefix(b"\xef\xbb\xbf")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DocumentParseError(f"byte {data[exc.start]:#04x} is not UTF-8", line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_outcome(read, path):
    """The text ``read`` gives, or its error's type and message."""
    try:
        return read(path)
    except (OSError, DocumentParseError) as exc:
        return type(exc), str(exc)


_LINE = f'<{EX}s> <{EX}p> "v" .\r\n'.encode()
_PAST_64_KIB = _LINE * (65536 // len(_LINE) + 1)
# File contents, each read by ``read_text`` as by its frozen oracle.
READ_FILES = {
    "empty": b"",
    "byte-order-mark-only": b"\xef\xbb\xbf",
    "crlf": _LINE * 3,
    "lone-cr": _LINE.replace(b"\r\n", b"\r") * 3,
    "crlf-across-64-kib": b"#" * 65535 + b"\r\n" + _LINE,
    "not-utf8-past-64-kib": b"\xef\xbb\xbf" + _PAST_64_KIB + f'<{EX}s> <{EX}p> "caf'.encode() + b'\xe9" .\r\n' + _LINE,
}


class TestReadText:
    @pytest.mark.parametrize("content", READ_FILES.values(), ids=READ_FILES)
    def test_a_file_reads_as_the_buffered_reader_read_it(self, tmp_path, content):
        path = tmp_path / "doc.nt"
        path.write_bytes(content)
        for given in (path, str(path)):
            assert read_outcome(rdfio.read_text, given) == read_outcome(frozen_read_text, given)

    def test_the_line_of_a_byte_past_64_kib(self, tmp_path):
        path = tmp_path / "doc.nt"
        path.write_bytes(READ_FILES["not-utf8-past-64-kib"])
        line = _PAST_64_KIB.count(b"\n") + 1
        assert read_outcome(rdfio.read_text, path) == (DocumentParseError, f"byte 0xe9 is not UTF-8 (line {line})")

    @pytest.mark.parametrize("kind", [str, Path], ids=["str", "Path"])
    @pytest.mark.parametrize("fault", ["missing", "directory"])
    def test_an_unreadable_path_is_named(self, tmp_path, fault, kind):
        path = tmp_path / "doc.nt"
        if fault == "directory":
            path.mkdir()
        expected = read_outcome(frozen_read_text, kind(path))
        assert read_outcome(rdfio.read_text, kind(path)) == expected
        assert expected[1].endswith(f": {str(path)!r}")

    def test_a_regular_file_takes_one_read_sized_by_fstat(self, tmp_path, monkeypatch):
        path = tmp_path / "doc.nt"
        path.write_bytes(READ_FILES["not-utf8-past-64-kib"])
        reads = []
        read = os.read

        def recorded(fd: int, n: int) -> bytes:
            data = read(fd, n)
            reads.append((n, len(data)))
            return data

        with monkeypatch.context() as patch:
            patch.setattr(os, "read", recorded)
            read_outcome(rdfio.read_text, path)
        size = path.stat().st_size
        assert reads == [(size, size), (rdfio._READ_CHUNK, 0)]  # the second read finds the end

    @pytest.mark.parametrize("shown", [0, 1, 70_000], ids=["no-size", "one-byte", "past-a-chunk"])
    def test_a_file_larger_than_fstat_says_is_read_to_its_end(self, tmp_path, monkeypatch, shown):
        path = tmp_path / "doc.nt"
        path.write_bytes(_PAST_64_KIB * 3)
        expected = frozen_read_text(path)
        fstat = os.fstat
        with monkeypatch.context() as patch:
            patch.setattr(os, "fstat", lambda fd: os.stat_result((*fstat(fd)[:6], shown, *fstat(fd)[7:10])))
            assert rdfio.read_text(path) == expected

    def test_line_ends_as_text_mode_reads_them(self, tmp_path):
        path = tmp_path / "dump.nt"
        path.write_bytes(f'<{EX}s> <{EX}p> """a\r\nb\rc""" .\r\n<{EX}s> <{EX}p> "d" .\r'.encode())
        assert rdfio.read_text(path) == path.read_text(encoding="utf-8")
        assert list(read_dump(path)) == [(EX + "s", EX + "p", '"a\nb\nc"'), (EX + "s", EX + "p", '"d"')]

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "after-a-byte-order-mark"])
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, bom):
        path = tmp_path / "dump.nt"
        path.write_bytes(bom + f'<{EX}s> <{EX}p> "caf\u00e9" .\n\n<{EX}s> <{EX}p> "caf'.encode() + b'\xe9" .\n')
        with pytest.raises(DocumentParseError) as err:
            read_dump(path)
        assert (str(err.value), err.value.line) == ("byte 0xe9 is not UTF-8 (line 3)", 3)


def test_rdfio_imports_no_private_name_from_query():
    tree = ast.parse(Path(rdfio.__file__).read_text(encoding="utf-8"))
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("query", "ldcost.query"):
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "query" and node.attr.startswith("_"):
                private.append(node.attr)
    assert private == []


def test_term_tokens_are_written_once():
    """Each term token pattern is written once, in ``query``; ``rdfio`` builds
    its lexer from it and leaves literal typing to ``query``."""
    assert query.TERM_TOKENS in rdfio._TOKEN_RE.pattern
    assert query.TERM_TOKENS in query._TOKEN_RE.pattern
    patterns = query.TERM_PATTERNS
    assert list(patterns) == ["iri", "blank", "string", "langtag", "number", "dtype", "pname", "word"]
    package = Path(rdfio.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    for kind, pattern in patterns.items():
        assert [name for name, text in sources.items() if pattern in text] == ["query.py"], kind
        assert sources["query.py"].count(pattern) == 1, kind
    for name, text in sources.items():
        if name != "query.py":
            assert "XSD_STRING" not in text and '+ "string"' not in text, name
            assert "#string" not in text, name
    imported = {
        alias.name
        for node in ast.walk(ast.parse(sources["rdfio.py"]))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & {"XSD_INTEGER", "XSD_DECIMAL", "XSD_DOUBLE", "XSD_STRING"}
