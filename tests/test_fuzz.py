"""A seeded fuzz of the RDF, manifest and ground-truth readers through the
command line.

Dumps (N-Triples and Turtle, from ``helpers.random_dump``), store
documents (the chain and Plato stores) and the ``meta.json`` and
``query.rq`` files of a ground-truth dataset are mutated with flipped
bytes, cut tails, and token deletions, repeats and swaps, then run through
in-process ``cli.main``: ``stats collect --dump``, ``simulate``, ``train``
and ``eval``.  Chain-store manifests are mutated with flipped bytes, cut
tails, and tabs deleted or repeated, then run through ``simulate``.  Every
case must return a documented exit code, 0 or 2 here (a store error is
malformed input, 2), and raise nothing; exit 2 prints one ``error:`` line.
The seeds and case counts were fixed before the first run.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import helpers
from ldcost import cli

SEED = 1730
DUMP_CASES = 160  # alternately N-Triples and Turtle
STORE_CASES = 60  # alternately the chain and the Plato store, text and --json
GROUND_TRUTH_CASES = 80  # alternately train and eval, text and --json
MANIFEST_CASES = 60  # alternately text and --json

_TOKEN_GAP = re.compile(rb"(\s+)")


def mutated(rng: random.Random, data: bytes) -> bytes:
    """``data`` after one to three mutations: a flipped byte, a cut tail,
    or a token deleted, repeated or swapped with another."""
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5)
        if kind == 0 and data:
            i = rng.randrange(len(data))
            data = data[:i] + bytes([data[i] ^ rng.choice([0x01, 0x20, 0x80, 0xFF])]) + data[i + 1 :]
        elif kind == 1:
            data = data[: rng.randint(0, len(data))]
        else:
            parts = _TOKEN_GAP.split(data)  # tokens at the even indices
            tokens = range(0, len(parts), 2)
            i, j = rng.choice(tokens), rng.choice(tokens)
            if kind == 2:
                parts[i] = b""
            elif kind == 3:
                parts[i] = parts[i] + b" " + parts[i]
            else:
                parts[i], parts[j] = parts[j], parts[i]
            data = b"".join(parts)
    return data


def run(capsys, argv: list[str]) -> tuple[int, str]:
    """``cli.main``'s exit code and what it wrote to stderr."""
    code = cli.main(argv)
    return code, capsys.readouterr().err


def assert_documented(code: int, err: str, case) -> None:
    assert code in (0, 2), (code, err, case)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (err, case)


def test_mutated_dumps_exit_0_or_2(tmp_path, capsys):
    rng = random.Random(SEED)
    dump, out = tmp_path / "dump.nt", tmp_path / "catalog.json"
    codes = []
    for case in range(DUMP_CASES):
        records = helpers.random_dump(rng, max_triples=40)
        text = helpers.ntriples(records) if case % 2 == 0 else helpers.turtle(records)
        data = mutated(rng, text.encode())
        dump.write_bytes(data)
        out.unlink(missing_ok=True)
        code, err = run(capsys, ["stats", "collect", "--dump", str(dump), "--out", str(out)])
        assert_documented(code, err, data)
        assert out.exists() == (code == 0), data
        codes.append(code)
    assert codes.count(0) >= 5 and codes.count(2) >= 5, (codes.count(0), codes.count(2))  # 10 and 150


def _stores(root: Path) -> list[tuple[Path, Path, list[Path]]]:
    """(manifest, query file, documents) of the chain and Plato stores."""
    chain, chain_query, _, _ = helpers.build_chain_store(root / "chain", [3, 2, 2])
    plato = helpers.build_plato_store(root / "plato", influencers=4)
    stores = []
    for manifest, query_text in ((chain, chain_query), (plato, helpers.PLATO_QUERY)):
        query = manifest.parent / "query.rq"
        query.write_text(query_text, encoding="utf-8")
        stores.append((manifest, query, sorted((manifest.parent / "docs").iterdir())))
    return stores


def test_mutated_store_documents_exit_0_or_2(tmp_path, capsys):
    rng = random.Random(SEED + 1)
    stores = _stores(tmp_path)
    codes = []
    for case in range(STORE_CASES):
        manifest, query, documents = stores[case % 2]
        document = rng.choice(documents)
        original = document.read_bytes()
        data = mutated(rng, original)
        document.write_bytes(data)
        try:
            argv = ["simulate", str(query), "--store", str(manifest)] + (["--json"] if case % 4 >= 2 else [])
            code, err = run(capsys, argv)
        finally:
            document.write_bytes(original)
        assert_documented(code, err, (document.name, data))
        codes.append(code)
    assert codes.count(0) >= 5 and codes.count(2) >= 5, (codes.count(0), codes.count(2))  # 7 and 53


def mutated_manifest(rng: random.Random, data: bytes) -> bytes:
    """``data`` after one to three mutations: a flipped byte, a cut tail,
    or a tab deleted or repeated."""
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        tabs = [i for i, byte in enumerate(data) if byte == ord("\t")]
        if kind == 0 and data:
            i = rng.randrange(len(data))
            data = data[:i] + bytes([data[i] ^ rng.choice([0x01, 0x20, 0x80, 0xFF])]) + data[i + 1 :]
        elif kind == 1:
            data = data[: rng.randint(0, len(data))]
        elif tabs:
            i = rng.choice(tabs)
            data = data[:i] + (b"" if kind == 2 else b"\t\t") + data[i + 1 :]
    return data


def test_mutated_manifests_exit_0_or_2(tmp_path, capsys):
    rng = random.Random(SEED + 3)
    manifest, query_text, _, _ = helpers.build_chain_store(tmp_path / "chain", [3, 2, 2])
    query = tmp_path / "query.rq"
    query.write_text(query_text, encoding="utf-8")
    original = manifest.read_bytes()
    codes = []
    for case in range(MANIFEST_CASES):
        data = mutated_manifest(rng, original)
        manifest.write_bytes(data)
        argv = ["simulate", str(query), "--store", str(manifest)] + (["--json"] if case % 2 else [])
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert_documented(code, err, data)
        if code == 0 and "--json" in argv:
            json.loads(out)
        codes.append(code)
    # most mutations leave a row that names no file or does not split in two
    assert codes.count(0) >= 1 and codes.count(2) >= 50, (codes.count(0), codes.count(2))  # 1 and 59


def _ground_truth(root: Path) -> list[Path]:
    """The four-shapes dataset, with a stray top-level file, an empty entry
    directory and a broken symlink; returns its entries' files."""
    for name, (text, real) in helpers.FOUR_SHAPES_DATASET.items():
        helpers.write_ground_truth_entry(root, name, text, real)
    (root / "notes.txt").write_text("not an entry\n", encoding="utf-8")
    (root / "empty").mkdir()
    (root / "dangling").symlink_to("nowhere")
    return sorted(root.glob("q*/*"))  # meta.json and query.rq of each entry


def test_mutated_ground_truth_exits_0_or_2(tmp_path, capsys):
    rng = random.Random(SEED + 2)
    root = tmp_path / "gt"
    files = _ground_truth(root)
    codes = []
    for case in range(GROUND_TRUTH_CASES):
        originals = {f: f.read_bytes() for f in rng.sample(files, rng.randint(1, len(files)))}
        mutations = {f: mutated(rng, data) for f, data in originals.items()}
        for f, data in mutations.items():
            f.write_bytes(data)
        argv = [("train", "eval")[case % 2], "--dataset", str(root)] + (["--json"] if case % 4 >= 2 else [])
        try:
            code = cli.main(argv)
        finally:
            for f, data in originals.items():
                f.write_bytes(data)
        out, err = capsys.readouterr()
        case_info = (argv, {f.relative_to(root).as_posix(): data for f, data in mutations.items()})
        assert_documented(code, err, case_info)
        if code == 0 and "--json" in argv:
            json.loads(out)
        codes.append(code)
    assert codes.count(0) >= 5 and codes.count(2) >= 5, (codes.count(0), codes.count(2))  # 32 and 48
