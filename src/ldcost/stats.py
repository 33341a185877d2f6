"""Knowledge-base statistics consumed by the cost estimators.

A catalog holds five global averages plus per-predicate subject/object
binding averages.  It can be computed from an RDF dump, fetched from a
SPARQL endpoint by running the aggregate queries that define each value,
or loaded from a plain-text file.  Lookups never fail: unknown predicates
fall back to the global averages.
"""

from __future__ import annotations

import math
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from xml.etree import ElementTree

from . import web
from .errors import FormatError, InputError, RemoteError
from .query import RDF_TYPE
from .rdfio import DocumentParseError, read_text

# Averages measured on DBpedia; used when no catalog is supplied.
DEFAULT_AVG_OUTGOING_PROPS = 25.0
DEFAULT_AVG_INCOMING_PROPS = 5.0
DEFAULT_AVG_SUBJ_BINDINGS_NONTYPE = 1505.0
DEFAULT_AVG_INSTANCES_PER_CLASS = 848.0
DEFAULT_AVG_OBJ_BINDINGS = 1.86

GLOBAL_KEYS = (
    "avg_outgoing_props",
    "avg_incoming_props",
    "avg_subj_bindings_nontype",
    "avg_instances_per_class",
    "avg_obj_bindings",
)

GLOBAL_PARAMETERS = ("K1", "K2", "K3", "K4", "K5")
PER_PREDICATE_PARAMETERS = ("perPredSubj", "perPredObj")


class MissingPredicate(InputError):
    """A per-predicate collector query was requested without a predicate."""


class MalformedTriple(InputError):
    """A dump record could not be interpreted as a triple."""


class EndpointUnreachable(RemoteError):
    """The SPARQL endpoint could not be contacted at all."""


class ProtocolError(RemoteError):
    """The endpoint answered with something that is not a numeric result."""


class PartialCatalogWarning(UserWarning):
    """Some collector queries failed; the catalog has gaps noted in provenance."""


@dataclass(frozen=True)
class GlobalStats:
    """The five dataset-wide averages.

    In order: outgoing properties per typed entity, incoming properties
    per typed entity, subjects per object for non-type predicates,
    instances per class, and objects per subject.
    """

    avg_outgoing_props: float = DEFAULT_AVG_OUTGOING_PROPS
    avg_incoming_props: float = DEFAULT_AVG_INCOMING_PROPS
    avg_subj_bindings_nontype: float = DEFAULT_AVG_SUBJ_BINDINGS_NONTYPE
    avg_instances_per_class: float = DEFAULT_AVG_INSTANCES_PER_CLASS
    avg_obj_bindings: float = DEFAULT_AVG_OBJ_BINDINGS

    def __post_init__(self):
        for key in GLOBAL_KEYS:
            value = getattr(self, key)
            if not _is_average(value):
                raise ValueError(f"{key} must be finite and non-negative, got {value!r}")

    def as_dict(self) -> dict[str, float]:
        return {key: getattr(self, key) for key in GLOBAL_KEYS}


@dataclass(frozen=True)
class PredicateStats:
    predicate: str
    avg_subject_bindings: float
    avg_object_bindings: float

    def __post_init__(self):
        for key in ("avg_subject_bindings", "avg_object_bindings"):
            value = getattr(self, key)
            if not _is_average(value):
                raise ValueError(f"{key} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class StatsCatalog:
    global_stats: GlobalStats = field(default_factory=GlobalStats)
    per_predicate: dict[str, PredicateStats] = field(default_factory=dict)
    provenance: str = ""

    def lookup_subject_avg(self, predicate: str) -> float:
        """Average subjects per object for a predicate, with global fallback
        (instances per class for ``rdf:type``)."""
        entry = self.per_predicate.get(predicate)
        if entry is not None:
            return entry.avg_subject_bindings
        if predicate == RDF_TYPE:
            return self.global_stats.avg_instances_per_class
        return self.global_stats.avg_subj_bindings_nontype

    def lookup_object_avg(self, predicate: str) -> float:
        """Average objects per subject for a predicate, with global fallback."""
        entry = self.per_predicate.get(predicate)
        if entry is not None:
            return entry.avg_object_bindings
        return self.global_stats.avg_obj_bindings


# --- collector queries --------------------------------------------------------

_GLOBAL_QUERIES = {
    "K1": (
        "SELECT (AVG(?count) AS ?average)\n"
        "WHERE {\n"
        "  { SELECT ?x (COUNT(DISTINCT ?y) AS ?count)\n"
        "    WHERE {\n"
        "      ?x a ?type . ?x ?y ?z } GROUP BY ?x }}"
    ),
    "K2": (
        "SELECT (AVG(?count) AS ?average)\n"
        "WHERE {\n"
        "  { SELECT ?z (COUNT(DISTINCT ?y) AS ?count)\n"
        "    WHERE {\n"
        "      ?x ?y ?z . ?z a ?type } GROUP BY ?z }}"
    ),
    "K3": (
        "SELECT (AVG(?count) AS ?average)\n"
        "WHERE {\n"
        " { SELECT ?z (COUNT(DISTINCT ?x) AS ?count)\n"
        "   WHERE {\n"
        "    ?x ?y ?z FILTER (?y!=<" + RDF_TYPE + ">) } GROUP BY ?z } }"
    ),
    "K4": (
        "SELECT (AVG(?count) AS ?average)\n"
        "WHERE {\n"
        "  { SELECT ?z (COUNT(DISTINCT ?x) AS ?count)\n"
        "    WHERE { ?x a ?z } GROUP BY ?z } }"
    ),
    "K5": (
        "SELECT (AVG(?count) AS ?average)\n"
        "WHERE {\n"
        "  { SELECT ?x (COUNT(DISTINCT ?z) AS ?count)\n"
        "    WHERE { ?x ?y ?z } GROUP BY ?x } }"
    ),
}

_PER_PREDICATE_QUERIES = {
    "perPredObj": (
        "SELECT (AVG(?count) AS ?average)\n"
        "WHERE {\n"
        "  { SELECT ?x (COUNT(DISTINCT ?z) AS ?count)\n"
        "    WHERE { ?x <PREDICATE> ?z } GROUP BY ?x } }"
    ),
    "perPredSubj": (
        "SELECT (AVG(?count) AS ?average)\n"
        "WHERE {\n"
        "  { SELECT ?z (COUNT(DISTINCT ?x) AS ?count)\n"
        "    WHERE { ?x <PREDICATE> ?z } GROUP BY ?z } }"
    ),
}


def collector_query(parameter: str, predicate: str | None = None) -> str:
    """The aggregate SPARQL query that defines a catalog value.

    ``parameter`` is one of K1..K5 or perPredSubj/perPredObj; the latter two
    require ``predicate``.
    """
    if parameter in _GLOBAL_QUERIES:
        return _GLOBAL_QUERIES[parameter]
    if parameter in _PER_PREDICATE_QUERIES:
        if predicate is None:
            raise MissingPredicate(f"{parameter} requires a predicate IRI")
        return _PER_PREDICATE_QUERIES[parameter].replace("PREDICATE", predicate)
    raise InputError(f"unknown statistics parameter {parameter!r}")


# --- computing from a dump ----------------------------------------------------

def _ratio(pairs: int, keys: int) -> float:
    """|distinct (key, member) pairs| ÷ |distinct keys|, 0.0 with no pairs."""
    return pairs / keys if pairs else 0.0


def compute_from_dump(triples, provenance: str = "dump") -> StatsCatalog:
    """Build a catalog from an iterable of (subject, predicate, object) records.

    Each catalog value is a mean over the keys of a group-by of each key's
    distinct members, so it equals |distinct (key, member) pairs| ÷
    |distinct keys| (K5 = |distinct (s, o)| ÷ |distinct s|), and being a
    quotient of exact counts it is the same float as the mean of the counts.
    Records stream into one in-memory set of distinct (s, o) per predicate,
    so the distinct triples must fit in memory; the counts come from each
    predicate's subject and object sets by intersection and union.  Records
    that are not 3-tuples of strings are skipped and counted; only an
    all-malformed stream is an error.
    """
    by_predicate: defaultdict[str, set[tuple[str, str]]] = defaultdict(set)  # p -> distinct (s, o)
    total = 0
    malformed = 0
    for record in triples:
        total += 1
        try:
            s, p, o = record
            if not (isinstance(s, str) and isinstance(p, str) and isinstance(o, str)):
                raise TypeError
        except (TypeError, ValueError):
            malformed += 1
            continue
        by_predicate[p].add((s, o))

    if total and malformed == total:
        raise MalformedTriple(f"all {total} records were malformed")

    subjects = {p: set(map(itemgetter(0), pairs)) for p, pairs in by_predicate.items()}
    objects = {p: set(map(itemgetter(1), pairs)) for p, pairs in by_predicate.items()}
    instances = by_predicate.get(RDF_TYPE, set())
    typed = subjects.get(RDF_TYPE, set())
    typed_objects = [members & typed for members in objects.values()]
    others = [p for p in by_predicate if p != RDF_TYPE]
    other_pairs = set().union(*(by_predicate[p] for p in others))
    k1 = _ratio(sum(len(members & typed) for members in subjects.values()), len(typed))
    k2 = _ratio(sum(map(len, typed_objects)), len(set().union(*typed_objects)))
    k3 = _ratio(len(other_pairs), len(set().union(*(objects[p] for p in others))))
    k4 = _ratio(len(instances), len(objects.get(RDF_TYPE, ())))
    k5 = _ratio(len(other_pairs) + len(instances - other_pairs), len(set().union(*subjects.values())))

    per_predicate = {
        p: PredicateStats(
            predicate=p,
            avg_subject_bindings=len(pairs) / len(objects[p]),
            avg_object_bindings=len(pairs) / len(subjects[p]),
        )
        for p, pairs in by_predicate.items()
    }
    note = provenance
    if malformed:
        note += f" ({malformed} malformed records skipped)"
    return StatsCatalog(
        global_stats=GlobalStats(k1, k2, k3, k4, k5),
        per_predicate=per_predicate,
        provenance=note,
    )


# --- SPARQL endpoint fetch ------------------------------------------------------

def _parse_average(payload_text: str, content_type: str) -> float | None:
    """Extract the single ?average value from a results document.

    Returns None for an empty result set (no qualifying groups); raises
    ProtocolError for anything that is not a results document.
    """
    import json

    if "json" in content_type:
        try:
            doc = json.loads(payload_text)
            bindings = doc["results"]["bindings"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"bad SPARQL results JSON: {exc}") from exc
        if not bindings:
            return None
        try:
            value = bindings[0]["average"]["value"]
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"non-numeric average in results: {exc}") from exc
    else:
        try:
            root = ElementTree.fromstring(payload_text)
        except ElementTree.ParseError as exc:
            raise ProtocolError(f"unparseable SPARQL results: {exc}") from exc
        ns = {"s": "http://www.w3.org/2005/sparql-results#"}
        literals = root.findall(".//s:binding[@name='average']/s:literal", ns)
        if not literals:
            if root.findall(".//s:result", ns):
                raise ProtocolError("result row lacks an ?average binding")
            return None
        value = literals[0].text or ""
    try:
        average = float(value)
    except (ValueError, TypeError) as exc:
        raise ProtocolError(f"non-numeric average in results: {exc}") from exc
    if not _is_average(average):
        raise ProtocolError(f"average {value!r} is not a finite non-negative number")
    return average


def fetch_from_endpoint(
    endpoint_url: str,
    predicate_list: list[str] | None = None,
    timeout: float = 60.0,
) -> StatsCatalog:
    """Assemble a catalog by running the collector queries over HTTP.

    Per-predicate queries that fail or return nothing leave the entry out;
    global queries that fail keep their default value.  Either case is
    noted in the provenance and raises PartialCatalogWarning.
    """
    gaps: list[str] = []

    def run(query: str) -> float | None:
        try:
            resp = web.get(
                endpoint_url,
                accept="application/sparql-results+json, application/sparql-results+xml",
                timeout=timeout,
                params={"query": query},
            )
        except TimeoutError:
            raise
        except OSError as exc:
            raise EndpointUnreachable(f"cannot reach {endpoint_url}: {exc}") from exc
        if resp.status >= 500:
            raise ProtocolError(f"endpoint error {resp.status}")
        if resp.status != 200:
            raise ProtocolError(f"unexpected status {resp.status}")
        return _parse_average(resp.text, resp.content_type)

    globals_kwargs: dict[str, float] = {}
    for parameter, key in zip(GLOBAL_PARAMETERS, GLOBAL_KEYS):
        try:
            value = run(collector_query(parameter))
        except (TimeoutError, ProtocolError) as exc:
            gaps.append(f"{parameter}: {exc}")
            continue
        if value is None:
            gaps.append(f"{parameter}: empty result")
            continue
        globals_kwargs[key] = value

    per_predicate: dict[str, PredicateStats] = {}
    for predicate in sorted(predicate_list or []):
        try:
            obj_avg = run(collector_query("perPredObj", predicate))
            subj_avg = run(collector_query("perPredSubj", predicate))
        except (TimeoutError, ProtocolError) as exc:
            gaps.append(f"{predicate}: {exc}")
            continue
        if obj_avg is None or subj_avg is None:
            continue  # predicate absent from the knowledge base
        per_predicate[predicate] = PredicateStats(
            predicate=predicate,
            avg_subject_bindings=subj_avg,
            avg_object_bindings=obj_avg,
        )

    provenance = f"endpoint {endpoint_url}"
    if gaps:
        provenance += "; gaps: " + "; ".join(gaps)
        warnings.warn(
            f"partial catalog: {len(gaps)} collector queries failed", PartialCatalogWarning
        )
    return StatsCatalog(
        global_stats=GlobalStats(**globals_kwargs),
        per_predicate=per_predicate,
        provenance=provenance,
    )


# --- catalog file format --------------------------------------------------------
#
# UTF-8 text, '#' comments.  A "[global]" section with one "key<TAB>value"
# row per global average, then a "[predicates]" section with
# "IRI<TAB>avgSubjectBindings<TAB>avgObjectBindings" rows.

def save_catalog(catalog: StatsCatalog, path) -> None:
    lines = ["# ldcost statistics catalog"]
    if catalog.provenance:
        for part in catalog.provenance.splitlines():
            lines.append(f"# provenance: {part}")
    lines.append("[global]")
    for key in GLOBAL_KEYS:
        lines.append(f"{key}\t{getattr(catalog.global_stats, key)!r}")
    lines.append("[predicates]")
    for iri in sorted(catalog.per_predicate):
        entry = catalog.per_predicate[iri]
        lines.append(f"{iri}\t{entry.avg_subject_bindings!r}\t{entry.avg_object_bindings!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _is_average(value: float) -> bool:
    """The rule every catalog average keeps: finite and non-negative."""
    return 0.0 <= value < math.inf


def _catalog_number(text: str, lineno: int) -> float:
    """A catalog average: a finite, non-negative number."""
    try:
        value = float(text)
    except ValueError:
        raise FormatError(f"line {lineno}: bad number {text!r}") from None
    if not _is_average(value):
        raise FormatError(f"line {lineno}: {text!r} is not a finite non-negative number")
    return value


def load_catalog(path) -> StatsCatalog:
    try:
        raw_lines = read_text(path).splitlines()
    except (OSError, DocumentParseError) as exc:
        raise InputError(f"cannot read catalog {path}: {exc}") from exc

    section = None
    globals_seen: dict[str, float] = {}
    per_predicate: dict[str, PredicateStats] = {}
    provenance_parts: list[str] = []
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if line.startswith("# provenance:"):
            provenance_parts.append(line[len("# provenance:"):].strip())
            continue
        if not line or line.startswith("#"):
            continue
        if line == "[global]":
            section = "global"
            continue
        if line == "[predicates]":
            section = "predicates"
            continue
        if line.startswith("["):
            raise FormatError(f"line {lineno}: unknown section {line!r}")
        if section == "global":
            parts = line.split("\t")
            if len(parts) != 2 or parts[0] not in GLOBAL_KEYS:
                raise FormatError(f"line {lineno}: expected 'key<TAB>value' global row")
            globals_seen[parts[0]] = _catalog_number(parts[1], lineno)
        elif section == "predicates":
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(
                    f"line {lineno}: expected 'IRI<TAB>subjAvg<TAB>objAvg' predicate row"
                )
            per_predicate[parts[0]] = PredicateStats(
                predicate=parts[0],
                avg_subject_bindings=_catalog_number(parts[1], lineno),
                avg_object_bindings=_catalog_number(parts[2], lineno),
            )
        else:
            raise FormatError(f"line {lineno}: content before any section header")

    missing = [k for k in GLOBAL_KEYS if k not in globals_seen]
    if missing:
        raise FormatError(f"missing global parameter rows: {', '.join(missing)}")
    return StatsCatalog(
        global_stats=GlobalStats(**globals_seen),
        per_predicate=per_predicate,
        provenance="\n".join(provenance_parts),
    )
