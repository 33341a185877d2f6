"""SPARQL subset: term model, parser and renderer.

The supported language is SELECT over a single basic graph pattern:
triple patterns with ';'/',' abbreviations, FILTER clauses whose position
is retained, PREFIX declarations, and SERVICE blocks (IRI- or
variable-anchored) which are flattened into the plain triple list with
their grouping kept as metadata.  UNION, OPTIONAL, property paths and
the rest of SPARQL 1.1 are rejected explicitly.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InputError

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_BOOLEAN = XSD + "boolean"
XSD_STRING = XSD + "string"

# Filter functions the simulator can evaluate.  Anything else still parses,
# but the resulting node is opaque: usable for position/variable analysis,
# not for evaluation.
SUPPORTED_FILTER_FUNCTIONS = frozenset({"lang", "year", "isuri", "isiri", "str"})

COMPARISON_OPS = frozenset({"=", "!=", "<", ">", "<=", ">="})


class QuerySyntaxError(InputError):
    """Query text does not conform to the supported grammar."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnsupportedFeature(InputError):
    """Query uses a SPARQL feature outside the supported subset."""


class UnknownPrefix(InputError):
    """A prefixed name uses a prefix that was never declared."""


class EmptyPattern(InputError):
    """The WHERE clause contains no triple patterns."""


class _TermFields(NamedTuple):
    kind: str  # one of: iri, literal, variable, blank
    value: str
    datatype: str | None = None
    language: str | None = None


class Term(_TermFields):
    """A node of a triple pattern: IRI, literal, variable or blank node.

    For literals, ``value`` holds the lexical form and ``datatype`` /
    ``language`` are mutually exclusive.  Variables are stored without
    the leading '?'.  A term is a tuple of its four fields, so it hashes
    and compares as that tuple does; documents hold one per node, so it
    is built, hashed and compared often.
    """

    __slots__ = ()

    def __new__(cls, kind: str, value: str, datatype: str | None = None, language: str | None = None):
        if kind == "iri" and ":" not in value:
            raise ValueError(f"IRI is not absolute: {value!r}")
        if kind == "variable" and (not value or any(c.isspace() for c in value)):
            raise ValueError(f"bad variable name: {value!r}")
        if datatype is not None and language is not None:
            raise ValueError("literal cannot carry both a datatype and a language tag")
        return tuple.__new__(cls, (kind, value, datatype, language))

    @staticmethod
    def iri(value: str) -> "Term":
        return Term("iri", value)

    @staticmethod
    def var(name: str) -> "Term":
        return Term("variable", name)

    @staticmethod
    def blank(label: str) -> "Term":
        return Term("blank", label)

    @staticmethod
    def literal(lexical: str, datatype: str | None = None, language: str | None = None) -> "Term":
        """A literal term; ``xsd:string`` is dropped, as plain and
        ``xsd:string`` literals are the same term."""
        if datatype == XSD_STRING:
            datatype = None
        return Term("literal", lexical, datatype=datatype, language=language)

    @property
    def is_iri(self) -> bool:
        return self.kind == "iri"

    @property
    def is_variable(self) -> bool:
        return self.kind == "variable"

    @property
    def is_literal(self) -> bool:
        return self.kind == "literal"

    @property
    def is_blank(self) -> bool:
        return self.kind == "blank"


@dataclass(frozen=True)
class TriplePattern:
    subject: Term
    predicate: Term
    object: Term
    index: int

    def __post_init__(self):
        if self.predicate.kind in ("literal", "blank"):
            raise ValueError("predicate must be an IRI or a variable")
        if self.subject.is_literal:
            raise ValueError("literal subjects are not accepted")

    def variables(self) -> set[str]:
        return {t.value for t in (self.subject, self.predicate, self.object) if t.is_variable}

    def terms(self) -> tuple[Term, Term, Term]:
        return (self.subject, self.predicate, self.object)


# --- filter expression tree -------------------------------------------------

@dataclass(frozen=True)
class Comparison:
    op: str  # member of COMPARISON_OPS
    left: "FilterNode"
    right: "FilterNode"


@dataclass(frozen=True)
class FunctionCall:
    name: str
    args: tuple["FilterNode", ...]

    @property
    def opaque(self) -> bool:
        return self.name.lower() not in SUPPORTED_FILTER_FUNCTIONS


@dataclass(frozen=True)
class BoolOp:
    op: str  # "and" | "or" | "not"
    operands: tuple["FilterNode", ...]


FilterNode = Term | Comparison | FunctionCall | BoolOp


def expression_variables(node: FilterNode) -> set[str]:
    """All variable names syntactically appearing in a filter expression."""
    if isinstance(node, Term):
        return {node.value} if node.is_variable else set()
    if isinstance(node, Comparison):
        return expression_variables(node.left) | expression_variables(node.right)
    if isinstance(node, FunctionCall):
        out: set[str] = set()
        for a in node.args:
            out |= expression_variables(a)
        return out
    out = set()
    for a in node.operands:
        out |= expression_variables(a)
    return out


def expression_has_opaque(node: FilterNode) -> bool:
    if isinstance(node, FunctionCall):
        return node.opaque or any(expression_has_opaque(a) for a in node.args)
    if isinstance(node, Comparison):
        return expression_has_opaque(node.left) or expression_has_opaque(node.right)
    if isinstance(node, BoolOp):
        return any(expression_has_opaque(a) for a in node.operands)
    return False


@dataclass(frozen=True)
class FilterClause:
    expression: FilterNode
    after_triple: int  # index of the triple this filter textually follows
    variables: frozenset[str] = field(default=frozenset())

    def __post_init__(self):
        object.__setattr__(self, "variables", frozenset(expression_variables(self.expression)))


@dataclass(frozen=True)
class ServiceGroup:
    """One SERVICE block: its anchor term and the triple index range it covered."""

    anchor: Term
    start: int
    stop: int  # exclusive


@dataclass(frozen=True, eq=True)
class QueryPattern:
    select_vars: tuple[str, ...] | None  # None means SELECT *
    triples: tuple[TriplePattern, ...]
    filters: tuple[FilterClause, ...]
    prefixes: tuple[tuple[str, str], ...] = ()
    service_groups: tuple[ServiceGroup, ...] = ()

    def __post_init__(self):
        if not self.triples:
            raise EmptyPattern("query pattern has no triple patterns")
        for i, t in enumerate(self.triples):
            if t.index != i:
                raise ValueError("triple indices must be contiguous from 0")
        for f in self.filters:
            if not (0 <= f.after_triple < len(self.triples)):
                raise ValueError("filter attached to a non-existent triple index")
        if self.select_vars is not None:
            known = self.all_variables()
            for f in self.filters:
                known |= f.variables
            for v in self.select_vars:
                if v not in known:
                    raise ValueError(f"selected variable ?{v} appears nowhere in the pattern")

    def all_variables(self) -> set[str]:
        out: set[str] = set()
        for t in self.triples:
            out |= t.variables()
        return out

    def variables_in_order(self) -> list[str]:
        """Variables in first-appearance order over the triple list."""
        seen: list[str] = []
        for t in self.triples:
            for term in t.terms():
                if term.is_variable and term.value not in seen:
                    seen.append(term.value)
        return seen

    def filters_after(self, triple_index: int) -> list[FilterClause]:
        return [f for f in self.filters if f.after_triple == triple_index]


def distinct_anchor_iris(q: QueryPattern) -> set[str]:
    """IRIs in subject or object position of any triple.

    Predicate-position IRIs are excluded: they are never dereferenced.
    """
    out: set[str] = set()
    for t in q.triples:
        if t.subject.is_iri:
            out.add(t.subject.value)
        if t.object.is_iri:
            out.add(t.object.value)
    return out


# --- tokenizer ---------------------------------------------------------------

# The RDF term tokens, written once for the SPARQL tokenizer and the RDF
# reader (``rdfio``): a block of verbose-regex alternatives, each group
# naming its token kind.
TERM_TOKENS = r"""
    (?P<iri><[^<>"{}|^`\\\s]*>)
  | (?P<blank>_:[A-Za-z_0-9]+)
  | (?P<string>\"\"\"(?:[^"\\]|\\.|\"(?!\"\"))*\"\"\"|'''(?:[^'\\]|\\.|'(?!''))*'''|"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
  | (?P<langtag>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)
  | (?P<number>[+-]?(?:\d+\.\d+(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?))
  | (?P<dtype>\^\^)
  | (?P<pname>(?:[A-Za-z_][A-Za-z_0-9.-]*)?:(?:[A-Za-z_0-9%-]+(?:\.[A-Za-z_0-9%-]+)*)?)
  | (?P<word>[A-Za-z][A-Za-z_0-9]*)
"""

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+) | (?P<comment>\#[^\n]*) | (?P<var>[?$][A-Za-z_0-9]+) |"
    + TERM_TOKENS
    + r"| (?P<punct>&&|\|\||!=|<=|>=|[{}().,;=<>!*\[\]/|+^])",
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
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


_UNSUPPORTED_KEYWORDS = {
    "union": "UNION groups",
    "optional": "OPTIONAL groups",
    "minus": "MINUS groups",
    "graph": "GRAPH groups",
    "bind": "BIND assignments",
    "values": "VALUES blocks",
    "group": "GROUP BY",
    "order": "ORDER BY",
    "having": "HAVING",
    "limit": "LIMIT",
    "offset": "OFFSET",
    "construct": "CONSTRUCT queries",
    "ask": "ASK queries",
    "describe": "DESCRIBE queries",
    "insert": "updates",
    "delete": "updates",
    "exists": "EXISTS filters",
}


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.prefixes: dict[str, str] = {}
        self.blank_counter = itertools.count()

    # -- token helpers

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> QuerySyntaxError:
        tok = tok or self.peek()
        return QuerySyntaxError(message, tok.line, tok.column)

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "word" and tok.text.lower() == word

    def expect_punct(self, text: str) -> _Token:
        tok = self.next()
        if tok.kind != "punct" or tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def reject_unsupported(self, tok: _Token):
        if tok.kind == "word":
            feature = _UNSUPPORTED_KEYWORDS.get(tok.text.lower())
            if feature:
                raise UnsupportedFeature(f"{feature} are not supported")
        if tok.kind == "punct" and tok.text in ("/", "|", "*", "+", "["):
            raise UnsupportedFeature("property paths and blank node property lists are not supported")

    # -- grammar

    def parse(self) -> QueryPattern:
        self.parse_prologue()
        selected = self.parse_select()
        if self.at_keyword("where"):
            self.next()
        self.expect_punct("{")
        triples, filters, services = self.parse_group()
        tok = self.peek()
        if tok.kind != "eof":
            self.reject_unsupported(tok)
            raise self.error(f"unexpected trailing content {tok.text!r}", tok)
        if not triples:
            raise EmptyPattern("WHERE clause contains no triple patterns")
        known = set().union(*(t.variables() for t in triples), *(f.variables for f in filters))
        for var in selected or ():
            if var.text[1:] not in known:
                raise self.error(f"selected variable ?{var.text[1:]} appears nowhere in the pattern", var)
        # Filters seen before any triple are evaluated at the earliest point
        # where anything can be bound: after the first triple.
        filters = [
            FilterClause(f.expression, max(f.after_triple, 0)) for f in filters
        ]
        return QueryPattern(
            select_vars=None if selected is None else tuple(var.text[1:] for var in selected),
            triples=tuple(triples),
            filters=tuple(filters),
            prefixes=tuple(sorted(self.prefixes.items())),
            service_groups=tuple(services),
        )

    def parse_prologue(self):
        while True:
            tok = self.peek()
            if tok.kind == "word" and tok.text.lower() == "prefix":
                self.next()
                name = self.next()
                if name.kind != "pname" or not name.text.endswith(":"):
                    raise self.error("expected a prefix name ending in ':'", name)
                iri = self.next()
                if iri.kind != "iri":
                    raise self.error("expected an IRI after the prefix name", iri)
                self.prefixes[name.text[:-1]] = iri.text[1:-1]
            elif tok.kind == "word" and tok.text.lower() == "base":
                raise UnsupportedFeature("BASE declarations are not supported")
            else:
                return

    def parse_select(self) -> list[_Token] | None:
        tok = self.next()
        if tok.kind != "word" or tok.text.lower() != "select":
            self.reject_unsupported(tok)
            raise self.error("expected SELECT", tok)
        if self.at_keyword("distinct") or self.at_keyword("reduced"):
            self.next()  # results use set semantics anyway
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "*":
            self.next()
            return None
        selected: list[_Token] = []
        while self.peek().kind == "var":
            selected.append(self.next())
        if not selected:
            raise self.error("SELECT needs '*' or at least one variable")
        return selected

    def parse_group(self):
        """Body of a '{...}' group: triples, filters, SERVICE blocks."""
        triples: list[TriplePattern] = []
        filters: list[FilterClause] = []
        services: list[ServiceGroup] = []
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.text == "}":
                self.next()
                return triples, filters, services
            if tok.kind == "eof":
                raise self.error("unterminated group: missing '}'")
            if tok.kind == "word" and tok.text.lower() == "filter":
                self.next()
                expr = self.parse_constraint()
                filters.append(FilterClause(expr, len(triples) - 1))
                self.skip_dot()
                continue
            if tok.kind == "word" and tok.text.lower() == "service":
                self.next()
                self.parse_service(triples, filters, services)
                self.skip_dot()
                continue
            if tok.kind == "punct" and tok.text == "{":
                raise UnsupportedFeature("nested groups and subqueries are not supported")
            self.reject_unsupported(tok)
            self.parse_triples_same_subject(triples)
            if self.skip_dot():
                continue
            tok = self.peek()
            if tok.kind == "punct" and tok.text == "}":
                continue
            if tok.kind == "word" and tok.text.lower() in ("filter", "service"):
                continue
            self.reject_unsupported(tok)
            raise self.error("expected '.', '}', FILTER or SERVICE after a triple pattern", tok)

    def parse_service(self, triples, filters, services):
        anchor_tok = self.peek()
        anchor = self.parse_term(position="service")
        if not (anchor.is_iri or anchor.is_variable):
            raise self.error("SERVICE anchor must be an IRI or a variable", anchor_tok)
        self.expect_punct("{")
        start = len(triples)
        inner_triples, inner_filters, inner_services = self.parse_group()
        if inner_services:
            raise UnsupportedFeature("nested SERVICE blocks are not supported")
        for t in inner_triples:
            triples.append(
                TriplePattern(t.subject, t.predicate, t.object, index=len(triples))
            )
        for f in inner_filters:
            filters.append(FilterClause(f.expression, start + f.after_triple if f.after_triple >= 0 else start))
        if len(triples) > start:
            services.append(ServiceGroup(anchor=anchor, start=start, stop=len(triples)))

    def skip_dot(self) -> bool:
        if self.peek().kind == "punct" and self.peek().text == ".":
            self.next()
            return True
        return False

    def parse_triples_same_subject(self, triples: list[TriplePattern]):
        subject = self.parse_term(position="subject")
        while True:
            predicate = self.parse_term(position="predicate")
            self.check_property_path()
            while True:
                obj = self.parse_term(position="object")
                triples.append(TriplePattern(subject, predicate, obj, index=len(triples)))
                if self.peek().kind == "punct" and self.peek().text == ",":
                    self.next()
                    continue
                break
            if self.peek().kind == "punct" and self.peek().text == ";":
                self.next()
                # tolerate trailing ';' before '.' or '}'
                nxt = self.peek()
                if nxt.kind == "punct" and nxt.text in (".", "}"):
                    return
                continue
            return

    def check_property_path(self):
        tok = self.peek()
        if tok.kind == "punct" and tok.text in ("/", "|", "*", "+"):
            raise UnsupportedFeature("property paths are not supported")

    def parse_term(self, position: str) -> Term:
        tok = self.next()
        if tok.kind == "iri" or tok.kind == "pname":
            iri = tok.text[1:-1] if tok.kind == "iri" else self.expand_pname(tok)
            try:
                return Term.iri(iri)
            except ValueError as exc:  # a relative IRI
                raise self.error(str(exc), tok) from None
        if tok.kind == "var":
            return Term.var(tok.text[1:])
        if tok.kind == "blank":
            if position == "predicate":
                raise self.error("blank node in predicate position", tok)
            return Term.blank(tok.text[2:])
        if tok.kind == "punct" and tok.text == "[":
            close = self.peek()
            if close.kind == "punct" and close.text == "]":
                self.next()
                if position == "predicate":
                    raise self.error("blank node in predicate position", tok)
                return Term.blank(f"anon{next(self.blank_counter)}")
            raise UnsupportedFeature("blank node property lists are not supported")
        if tok.kind == "word" and tok.text == "a" and position == "predicate":
            return Term.iri(RDF_TYPE)
        if tok.kind == "punct" and tok.text == "^":
            raise UnsupportedFeature("property paths are not supported")
        if tok.kind in ("string", "number") or (
            tok.kind == "word" and tok.text.lower() in ("true", "false")
        ):
            literal = self.finish_literal(tok)
            if position == "subject":
                raise self.error("literal subjects are not accepted", tok)
            if position == "predicate":
                raise self.error("literal in predicate position", tok)
            return literal
        self.reject_unsupported(tok)
        raise self.error(f"expected a term, found {tok.text!r}", tok)

    def finish_literal(self, tok: _Token) -> Term:
        if tok.kind == "number":
            return Term.literal(tok.text, datatype=number_datatype(tok.text))
        if tok.kind == "word":
            return Term.literal(tok.text.lower(), datatype=XSD_BOOLEAN)
        try:
            lexical = unquote(tok.text)
        except ValueError as exc:  # a bad escape
            raise self.error(str(exc), tok) from None
        nxt = self.peek()
        if nxt.kind == "langtag":
            self.next()
            return Term.literal(lexical, language=nxt.text[1:])
        if nxt.kind == "dtype":
            self.next()
            if self.peek().kind != "iri" and self.peek().kind != "pname":
                raise self.error("expected a datatype IRI after '^^'")
            return Term.literal(lexical, datatype=self.parse_term(position="datatype").value)
        return Term.literal(lexical)

    def expand_pname(self, tok: _Token) -> str:
        prefix, _, local = tok.text.partition(":")
        if prefix not in self.prefixes:
            raise UnknownPrefix(f"prefix {prefix + ':'!r} was never declared")
        return self.prefixes[prefix] + local

    # -- filter expressions

    def parse_constraint(self) -> FilterNode:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "(":
            self.next()
            expr = self.parse_or()
            self.expect_punct(")")
            return expr
        if tok.kind in ("word", "pname", "iri"):
            return self.parse_function_call()
        raise self.error("expected '(' or a function call after FILTER", tok)

    def parse_or(self) -> FilterNode:
        left = self.parse_and()
        operands = [left]
        while self.peek().kind == "punct" and self.peek().text == "||":
            self.next()
            operands.append(self.parse_and())
        return operands[0] if len(operands) == 1 else BoolOp("or", tuple(operands))

    def parse_and(self) -> FilterNode:
        operands = [self.parse_unary()]
        while self.peek().kind == "punct" and self.peek().text == "&&":
            self.next()
            operands.append(self.parse_unary())
        return operands[0] if len(operands) == 1 else BoolOp("and", tuple(operands))

    def parse_unary(self) -> FilterNode:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "!":
            self.next()
            return BoolOp("not", (self.parse_unary(),))
        return self.parse_relational()

    def parse_relational(self) -> FilterNode:
        left = self.parse_primary()
        tok = self.peek()
        if tok.kind == "punct" and tok.text in COMPARISON_OPS:
            self.next()
            right = self.parse_primary()
            return Comparison(tok.text, left, right)
        return left

    def parse_primary(self) -> FilterNode:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "(":
            self.next()
            inner = self.parse_or()
            self.expect_punct(")")
            return inner
        if tok.kind == "word" and tok.text.lower() in ("true", "false"):
            self.next()
            return Term.literal(tok.text.lower(), datatype=XSD_BOOLEAN)
        if tok.kind == "word":
            return self.parse_function_call()
        if tok.kind in ("iri", "pname"):
            # could be a function call named by the IRI, or an IRI term
            after = self.tokens[self.i + 1]
            if after.kind == "punct" and after.text == "(":
                return self.parse_function_call()
        if tok.kind in ("iri", "pname", "var", "string", "number", "blank"):
            return self.parse_term(position="filter")
        raise self.error(f"expected a filter operand, found {tok.text!r}", tok)

    def parse_function_call(self) -> FunctionCall:
        name_tok = self.peek()
        if name_tok.kind in ("iri", "pname"):
            name = self.parse_term(position="function").value  # an opaque call
        elif name_tok.kind == "word":
            self.next()
            name = name_tok.text
            if name.lower() in _UNSUPPORTED_KEYWORDS:
                raise UnsupportedFeature(f"{_UNSUPPORTED_KEYWORDS[name.lower()]} are not supported")
        else:
            raise self.error("expected a function name", name_tok)
        self.expect_punct("(")
        args: list[FilterNode] = []
        if not (self.peek().kind == "punct" and self.peek().text == ")"):
            args.append(self.parse_or())
            while self.peek().kind == "punct" and self.peek().text == ",":
                self.next()
                args.append(self.parse_or())
        self.expect_punct(")")
        return FunctionCall(name, tuple(args))


_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", "b": "\b", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_UNICODE_ESCAPE = re.compile(r"u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}")


def unquote(text: str) -> str:
    """The lexical form of a quoted SPARQL or Turtle string, escapes resolved.

    Raises ValueError for an escape the grammars lack, and for a ``\\u`` or
    ``\\U`` escape that is not four or eight hex digits naming a Unicode
    code point.
    """
    if text.startswith('"""') or text.startswith("'''"):
        body = text[3:-3]
    else:
        body = text[1:-1]
    if "\\" not in body:
        return body
    out: list[str] = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\" and i + 1 < len(body):
            nxt = body[i + 1]
            if nxt in _ESCAPES:
                out.append(_ESCAPES[nxt])
                i += 2
                continue
            if nxt == "u" or nxt == "U":
                m = _UNICODE_ESCAPE.match(body, i + 1)
                code = int(m[0][1:], 16) if m else -1
                if not 0 <= code <= 0x10FFFF:
                    raise ValueError(f"bad escape {body[i : i + (6 if nxt == 'u' else 10)]}")
                out.append(chr(code))
                i = m.end()
                continue
            raise ValueError(f"bad escape \\{nxt}")
        out.append(c)
        i += 1
    return "".join(out)


def number_datatype(numeral: str) -> str:
    """The XSD datatype of a numeral token: double with an exponent, else
    decimal with a point, else integer."""
    lowered = numeral.lower()
    return XSD_DOUBLE if "e" in lowered else XSD_DECIMAL if "." in lowered else XSD_INTEGER


def parse_query(text: str) -> QueryPattern:
    """Parse SPARQL text in the supported subset into a QueryPattern.

    Prefixed names are expanded to absolute IRIs; FILTER clauses carry the
    index of the triple they textually follow; SERVICE blocks are flattened
    with their grouping recorded in ``service_groups``.
    """
    return _Parser(text).parse()


# --- rendering ----------------------------------------------------------------

def _abbreviate(iri: str, prefixes: dict[str, str]) -> str | None:
    best: tuple[int, str] | None = None
    for prefix, base in prefixes.items():
        if iri.startswith(base) and len(base) > (best[0] if best else -1):
            # the whole name must re-tokenize as one pname token: under a
            # prefix named ``_`` it could read back as a blank node
            pname = f"{prefix}:{iri[len(base):]}"
            m = _TOKEN_RE.match(pname)
            if m and m.lastgroup == "pname" and m.end() == len(pname):
                best = (len(base), pname)
    return best[1] if best else None


def _escape_literal(lexical: str) -> str:
    out = lexical.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    return f'"{out}"'


def _numeric_shape(lexical: str) -> str | None:
    """The datatype a bare numeral with this lexical form would parse to."""
    m = _TOKEN_RE.fullmatch(lexical)
    return number_datatype(lexical) if m and m.lastgroup == "number" else None


def render_term(term: Term, prefixes: dict[str, str] | None = None) -> str:
    prefixes = prefixes or {}
    if term.is_iri:
        if term.value == RDF_TYPE:
            return "a"
        pname = _abbreviate(term.value, prefixes)
        return pname if pname is not None else f"<{term.value}>"
    if term.is_variable:
        return f"?{term.value}"
    if term.is_blank:
        return f"_:{term.value}"
    if term.datatype and _numeric_shape(term.value) == term.datatype:
        return term.value
    body = _escape_literal(term.value)
    if term.language:
        return f"{body}@{term.language}"
    if term.datatype:
        dt = _abbreviate(term.datatype, prefixes)
        return f"{body}^^{dt}" if dt is not None else f"{body}^^<{term.datatype}>"
    return body


def render_expression(node: FilterNode, prefixes: dict[str, str] | None = None) -> str:
    prefixes = prefixes or {}
    if isinstance(node, Term):
        text = render_term(node, prefixes)
        return f"<{node.value}>" if node.is_iri and text == "a" else text
    if isinstance(node, Comparison):
        return (
            f"({render_expression(node.left, prefixes)} {node.op} "
            f"{render_expression(node.right, prefixes)})"
        )
    if isinstance(node, FunctionCall):
        args = ", ".join(render_expression(a, prefixes) for a in node.args)
        name = node.name
        if ":" in name:  # absolute IRI function name
            name = f"<{name}>"
        return f"{name}({args})"
    if node.op == "not":
        return f"(! {render_expression(node.operands[0], prefixes)})"
    joiner = " && " if node.op == "and" else " || "
    return "(" + joiner.join(render_expression(a, prefixes) for a in node.operands) + ")"


def render_query(q: QueryPattern) -> str:
    """Emit parseable text for a QueryPattern.

    Round-trips: parse_query(render_query(q)) is structurally identical to
    q up to whitespace and prefix re-abbreviation.  SERVICE grouping is
    reproduced from ``service_groups``.
    """
    prefixes = dict(q.prefixes)
    lines = [f"PREFIX {p}: <{iri}>" for p, iri in q.prefixes]
    select = "*" if q.select_vars is None else " ".join(f"?{v}" for v in q.select_vars)
    lines.append(f"SELECT {select} WHERE {{")

    covered: dict[int, ServiceGroup] = {}
    for g in q.service_groups:
        for i in range(g.start, g.stop):
            covered[i] = g

    def triple_line(t: TriplePattern, indent: str) -> list[str]:
        out = [
            f"{indent}{render_term(t.subject, prefixes)} "
            f"{render_term(t.predicate, prefixes)} "
            f"{render_term(t.object, prefixes)} ."
        ]
        for f in q.filters_after(t.index):
            expression = render_expression(f.expression, prefixes)
            # a bare term must be bracketed; everything else already is, or is a call
            if isinstance(f.expression, Term):
                expression = f"({expression})"
            out.append(f"{indent}FILTER {expression}")
        return out

    i = 0
    n = len(q.triples)
    while i < n:
        group = covered.get(i)
        if group is not None and group.start == i:
            lines.append(f"  SERVICE {render_term(group.anchor, prefixes)} {{")
            for j in range(group.start, group.stop):
                lines.extend(triple_line(q.triples[j], "    "))
            lines.append("  }")
            i = group.stop
        else:
            lines.extend(triple_line(q.triples[i], "  "))
            i += 1
    lines.append("}")
    return "\n".join(lines) + "\n"
