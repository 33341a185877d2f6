"""Differential tests of the RDF term patterns against frozen oracles.

``query.TERM_PATTERNS`` once read an IRI as ``<[^<>"{}|^`\\\\\\s]*>`` and
each quoted string as a loop of single-character alternatives.  The IRI
class is now the IRIREF class of the N-Triples, Turtle and SPARQL grammars,
and the string loops are unrolled.  The oracles below are those old term
patterns and the patterns built from them, rebuilt from today's sources;
their text is pinned by hash to the sources as they were.  The statement
pattern has changed since: it is read from its old text, frozen below, and
the last tests here check today's against it.

The unrolled loops read the same language with the same candidate ends, so
every pattern must match as its oracle with the old strings does, at every
offset.  The IRI class is a named change: C0 controls that are not white
space leave it, and the white space beyond ASCII joins it.  Against the
old IRI class the patterns must agree except on a text where an IRI run
reaches one of those characters.
"""

from __future__ import annotations

import functools
import hashlib
import random
import re

import pytest

from ldcost import query, rdfio
from ldcost.rdfio import parse_document
from ldcost.errors import InputError

OLD_IRI = r'<[^<>"{}|^`\\\s]*>'
OLD_STRING = r"""\"\"\"(?:[^"\\]|\\.|\"(?!\"\"))*\"\"\"|'''(?:[^'\\]|\\.|'(?!''))*'''|"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*'"""

# ``rdfio._STATEMENT_RE`` as it was before its object became one capture
# and its gap took a short branch, verbatim: six captures, the full gap.
OLD_STATEMENT_RE = re.compile(
    "\n".join([
        r'\s*(?:\#[^\n]*\n\s*)* (?P<subject><[^\x00-\x20<>"{}|^`\\]*>|_:[A-Za-z_0-9]+)',
        r'    \s*(?:\#[^\n]*\n\s*)* (?P<predicate><[^\x00-\x20<>"{}|^`\\]*>)',
        r'    \s*(?:\#[^\n]*\n\s*)* (?: (?P<node><[^\x00-\x20<>"{}|^`\\]*>|_:[A-Za-z_0-9]+)',
        r'             | (?P<string>\"\"\"[^"\\]*(?:(?:\\.|\"(?!\"\"))[^"\\]*)*\"\"\"|'
        + r"'''[^'\\]*(?:(?:\\.|'(?!''))[^'\\]*)*'''|"
        + r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"|'
        + r"'[^'\\\n]*(?:\\.[^'\\\n]*)*')",
        r'               (?: \s*(?:\#[^\n]*\n\s*)* (?P<langtag>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)',
        r'                 | \s*(?:\#[^\n]*\n\s*)* \^\^ \s*(?:\#[^\n]*\n\s*)* (?P<datatype><[^\x00-\x20<>"{}|^`\\]*>) )? )',
        r'    \s*(?:\#[^\n]*\n\s*)* \.(?!\d)',
    ]),
    re.VERBOSE,
)

# The patterns built from the term patterns, with the sha256 of their
# source text when they held the old ones.
COMPOSITES = {
    "query._TOKEN_RE": (query._TOKEN_RE, "29f59836d06ea7e97bfc9235582fdb2298819dbd42bfb5a8aeffb384329b92f7"),
    "rdfio._TOKEN_RE": (rdfio._TOKEN_RE, "e9fd4c2420eb422603cdb9311ce9af99cf5a2293fe35b997adca4c24bfa25bef"),
    "rdfio._STATEMENT_RE": (OLD_STATEMENT_RE, "3613fc975f7ee3cb1b6b89fb5cde0b25a0ac5751b9eacec55176d821a6d3bd28"),
    "rdfio._TURTLE_RE": (rdfio._TURTLE_RE, "837afb04b3553dd0e790ee22ccfa23735860bdb47caae2319cfe00d4e72ed76f"),
    "rdfio._LIST_RE": (rdfio._LIST_RE, "a44dc0752207148eec8b140037ba2ddac288cfe8a402f44a1eece6aba891ae07"),
    "rdfio._PREFIX_RE": (rdfio._PREFIX_RE, "8f6f38fe2678048f6919e3c244c575127e461ffeb36a4fc0b1be3a6aa96a938e"),
}

WHITE_SPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]
C0 = [chr(c) for c in range(0x20)]
# The characters an IRI gained and lost: the white space beyond ASCII, and
# the C0 controls that are not white space.
GAINED = "\x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B))) + "\u2028\u2029\u202f\u205f\u3000"
LOST = "".join(map(chr, range(0x00, 0x09))) + "".join(map(chr, range(0x0E, 0x1C)))
# An IRI token's start, a run that both classes accept, then a character
# only one of them accepts.
_REACHES_A_CHANGED_CHARACTER = re.compile(rf'<[^\x00-\x20\s<>"{{}}|^`\\]*[{re.escape(GAINED + LOST)}]')

SEED = 2841
RANDOM_TEXTS = 300
SHAPED_TEXTS = 400


def _rebuilt(pattern: re.Pattern, iri: bool, string: bool) -> re.Pattern:
    """``pattern`` with the old IRI pattern, the old string pattern or both
    in place of today's."""
    source = pattern.pattern
    if string:
        source = source.replace(query.TERM_PATTERNS["string"], OLD_STRING)
    if iri:
        source = source.replace(query.TERM_PATTERNS["iri"], OLD_IRI)
    return re.compile(source, pattern.flags)


def _patterns():
    """(name, today's pattern, its oracle with the old strings, its oracle
    with the old strings and IRIs) for each term pattern and composite."""
    terms = {f"TERM_PATTERNS[{kind!r}]": re.compile(query.TERM_PATTERNS[kind], re.VERBOSE) for kind in ("iri", "string")}
    for name, pattern in {**terms, **{name: p for name, (p, _) in COMPOSITES.items()}}.items():
        yield name, pattern, _rebuilt(pattern, iri=False, string=True), _rebuilt(pattern, iri=True, string=True)


def _outcome(match: re.Match | None):
    return None if match is None else (match.span(), match.groups())


# --- the corpus ---------------------------------------------------------------

_PLAIN = list("\"'\\#<>.:_^@\n") + list("abepxEr") + list("0159")
_SPECIAL = sorted(set(WHITE_SPACE) | set(C0))


def _char(rng: random.Random) -> str:
    return rng.choice(_SPECIAL) if rng.random() < 0.15 else rng.choice(_PLAIN)


def _random_text(rng: random.Random) -> str:
    return "".join(_char(rng) for _ in range(rng.randint(0, 40)))


def _mutated(rng: random.Random, text: str) -> str:
    """``text``, or with probability 0.2 with one corpus character inserted."""
    if rng.random() < 0.2:
        at = rng.randint(0, len(text))
        text = text[:at] + _char(rng) + text[at:]
    return text


def _iri(rng: random.Random) -> str:
    body = "".join(rng.choice(["http://x/", "a", "b", "1", "#", ":", "%20", "."]) for _ in range(rng.randint(0, 3)))
    return "<" + body + (">" if rng.random() < 0.9 else "")


def _string(rng: random.Random) -> str:
    quote = rng.choice(['"', "'", '"""', "'''"])
    body = "".join(
        rng.choice(["v", "a 1", "\\" + quote[0], "\\\\", "\\n", "\\", quote[0], quote[0] * 2, "\n", "'", '"'])
        for _ in range(rng.randint(0, 4))
    )
    return quote + body + (quote if rng.random() < 0.9 else "")


def _term(rng: random.Random) -> str:
    kind = rng.random()
    if kind < 0.5:
        return _iri(rng)
    if kind < 0.65:
        return f"_:b{rng.randint(0, 9)}"
    if kind < 0.8:
        return rng.choice(["ex:a", "ex:", ":b", "a", "ex:a.b"])
    literal = _string(rng)
    return literal + rng.choice(["", "", "@en", "@en-GB", "^^" + _iri(rng), " ^^ ex:t"])


def _shaped_text(rng: random.Random) -> str:
    """Statements and directives, each part mutated at random."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.15:
            parts.append(f"@prefix ex: {_iri(rng)} .")
            continue
        parts += [_term(rng), _term(rng), _term(rng)]
        parts += [rng.choice([" ;", " ,", ""]) + " " + _term(rng) for _ in range(rng.randint(0, 2))]
        parts.append(rng.choice([" .", ".", " ;\n.", " . # c", " .5"]))
    gaps = (" ", "\n", "\t", " # c\n", "")
    return "".join(_mutated(rng, part) + rng.choice(gaps) for part in parts)


def _corpus() -> list[str]:
    rng = random.Random(SEED)
    return [_random_text(rng) for _ in range(RANDOM_TEXTS)] + [_shaped_text(rng) for _ in range(SHAPED_TEXTS)]


# --- the tests ----------------------------------------------------------------


def test_the_oracles_are_the_old_patterns():
    for name, (pattern, digest) in COMPOSITES.items():
        old = _rebuilt(pattern, iri=True, string=True).pattern
        assert hashlib.sha256(old.encode()).hexdigest() == digest, name


def test_each_pattern_matches_as_its_oracle_at_every_offset():
    corpus = _corpus()
    exempt = [bool(_REACHES_A_CHANGED_CHARACTER.search(text)) for text in corpus]
    assert 0.1 < sum(exempt) / len(corpus) < 0.5
    for name, new, old_strings, old in _patterns():
        matched = 0
        for text, text_is_exempt in zip(corpus, exempt):
            for pos in range(len(text) + 1):
                outcome = _outcome(new.match(text, pos))
                assert outcome == _outcome(old_strings.match(text, pos)), (name, text, pos)
                if not text_is_exempt:
                    assert outcome == _outcome(old.match(text, pos)), (name, text, pos)
                matched += outcome is not None
        assert matched >= 50, name  # the corpus reaches each pattern


# A text each pattern matches at an offset with an IRI holding ``{c}``.
NAMED_CHANGE_CASES = {
    "query._TOKEN_RE": ("<a{c}b>", 0),
    "rdfio._TOKEN_RE": ("<a{c}b>", 0),
    "rdfio._STATEMENT_RE": ("<a{c}b> <http://x/p> <http://x/o> .", 0),
    "rdfio._TURTLE_RE": ("ex:s ex:p <a{c}b> .", 0),
    "rdfio._LIST_RE": ("x, <a{c}b> .", 2),
    "rdfio._PREFIX_RE": ("@prefix ex: <a{c}b> .", 0),
}


def test_the_named_change_shows_in_each_pattern():
    for name, (pattern, _) in COMPOSITES.items():
        old = _rebuilt(pattern, iri=True, string=True)
        text, pos = NAMED_CHANGE_CASES[name]
        for c in GAINED + LOST:
            new_match, old_match = pattern.match(text.format(c=c), pos), old.match(text.format(c=c), pos)
            reads_it = new_match if c in GAINED else old_match
            assert reads_it is not None and reads_it.end() == len(text) + 1 - len("{c}"), (name, c)
            assert _outcome(new_match) != _outcome(old_match), (name, c)


@functools.cache
def _every_code_point() -> str:
    return "".join(map("<a{}b>".format, map(chr, range(0x110000))))


@functools.cache
def _whole_iris(iri: str) -> set[int]:
    """The code points c for which the pattern ``iri`` reads '<a{c}b>' as one
    token.  Each is five characters, and an IRI match ends at the first '>'
    after its start, so no match crosses into the next one."""
    return {ord(token[2]) for token in re.compile(iri, re.VERBOSE).findall(_every_code_point()) if len(token) == 5}


def test_an_iri_holds_every_character_but_the_grammars_exclusions():
    excluded = {c for c in range(0x110000) if c <= 0x20 or chr(c) in '<>"{}|^`\\'}
    assert _whole_iris(query.TERM_PATTERNS["iri"]) == set(range(0x110000)) - excluded


def test_the_named_change_is_the_two_sets():
    changed = _whole_iris(OLD_IRI) ^ _whole_iris(query.TERM_PATTERNS["iri"])
    assert changed == set(map(ord, GAINED + LOST))
    assert _whole_iris(query.TERM_PATTERNS["iri"]) >= set(map(ord, GAINED))


def test_readers_take_the_iris_the_class_takes():
    for c in GAINED + LOST:
        iri = f"http://x/a{c}b"
        document = f"<{iri}> <http://x/p> <http://x/o> .\n"
        sparql = f"SELECT * WHERE {{ <{iri}> <http://x/p> ?o }}"
        if c in GAINED:
            ((s, _, _),) = parse_document(document)
            assert s.value == iri
            assert query.parse_query(sparql).triples[0].subject.value == iri
        else:
            with pytest.raises(InputError, match=re.escape(f"unexpected character {c!r} (line 1)")):
                parse_document(document)
            with pytest.raises(InputError, match=re.escape(f"unexpected character {c!r} (line 1, column 29)")):
                query.parse_query(sparql)


# --- today's statement pattern against its old text ---------------------------

GAP_SEED = 3011
GAP_DUMPS = 300
# White space and comments between a statement's terms and around a
# literal's tag and datatype: none, the one space or newline the short
# branch reads, longer runs, other white space, comments, and a comment
# the end of the text cuts off.
GAPS = ("", " ", "\n", "  ", "\t", "\r\n", " \n ", "\n\n", "\x0b", "\x1c", "\xa0", "\u2028",
        " # c\n", "# c\n", "\n# c\n  ", " #\n\t", " # c")
_DUMP_STRINGS = ('"v"', '"a 1"', "'w'", '"""x\ny"""', "'''z'''", '"q\\"r"', '""')


def _gap_statement(rng: random.Random) -> str:
    """A statement with a random gap before each term and the '.', and
    around a literal object's tag or datatype."""
    def gap():
        return rng.choice(GAPS)

    subject = rng.choice(["<http://x/s>", "<http://x/s1>", "_:b1"])
    kind = rng.random()
    if kind < 0.3:
        obj = rng.choice(["<http://x/o>", "_:b2"])
    else:
        obj = rng.choice(_DUMP_STRINGS) + rng.choice(
            ["", gap() + "@en", gap() + "@en-GB", gap() + "^^" + gap() + "<http://x/t>"]
        )
    end = rng.choice([".", ".", " .", ".5"])
    return gap() + subject + gap() + "<http://x/p>" + gap() + obj + gap() + end


def _gap_dumps() -> list[str]:
    rng = random.Random(GAP_SEED)
    return [
        _mutated(rng, "".join(_gap_statement(rng) + rng.choice(GAPS) for _ in range(rng.randint(1, 3))))
        for _ in range(GAP_DUMPS)
    ]


def _same_statement_match(text: str, pos: int) -> bool:
    """Asserts that today's statement pattern matches at ``pos`` as the old
    one does, its object capture being the old object's whole token;
    returns whether they match."""
    new, old = rdfio._STATEMENT_RE.match(text, pos), OLD_STATEMENT_RE.match(text, pos)
    assert (new is None) == (old is None), (text, pos)
    if new is None:
        return False
    assert new.span() == old.span(), (text, pos)
    assert new.group("subject", "predicate") == old.group("subject", "predicate"), (text, pos)
    if old["node"] is not None:
        assert new["object"] == old["node"], (text, pos)
    else:
        end = max(old.end("string"), old.end("langtag"), old.end("datatype"))
        assert new["object"] == text[old.start("string") : end], (text, pos)
        parts = rdfio._LITERAL_RE.fullmatch(new["object"])
        assert parts.group("string", "langtag", "datatype") == old.group("string", "langtag", "datatype")
    return True


def test_the_statement_pattern_matches_as_its_old_text_at_every_offset():
    matched = literals = spaced = 0
    for text in _corpus() + _gap_dumps():
        for pos in range(len(text) + 1):
            if _same_statement_match(text, pos):
                m = rdfio._STATEMENT_RE.match(text, pos)
                matched += 1
                literals += m["object"][0] in "\"'"
                spaced += m["object"][0] in "\"'" and bool(re.search(r"\s(?:@|\^\^)|\^\^\s", m["object"]))
    assert matched >= 300 and literals >= 100 and spaced >= 20, (matched, literals, spaced)


def _gap_branches() -> tuple[re.Pattern, re.Pattern]:
    """The statement gap's two branches, each compiled alone."""
    gap = rdfio._STATEMENT_GAP
    assert gap.startswith("(?:") and gap.endswith(")")
    short, full = gap[3:-1].split("|", 1)
    return re.compile(short, re.VERBOSE), re.compile(full, re.VERBOSE)


def test_the_gap_branches_never_both_match_and_the_short_one_reads_as_the_full_gap():
    short, full = _gap_branches()
    assert full.pattern.endswith(rdfio._GAP)
    old_gap = re.compile(rdfio._GAP)
    took_short = 0
    for text in _corpus() + _gap_dumps():
        for pos in range(len(text) + 1):
            m = short.match(text, pos)
            assert m is None or full.match(text, pos) is None, (text, pos)
            if m is not None:
                assert m.end() == old_gap.match(text, pos).end() == pos + 1, (text, pos)
                took_short += 1
    assert took_short >= 500
