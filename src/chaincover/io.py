"""File formats: instances, chains, result tables.

Exact rationals are serialized as strings of any length ("3/4", "2"); floats
never enter the JSON formats.  JSON output is canonical (sorted keys,
two-space indent, trailing newline) so identical inputs produce
byte-identical files.  The CSV result schema is method,phi,size,coverage,seed
with rows ordered by (method, phi, seed) and decimals printed to 12
significant digits.
"""

from __future__ import annotations

import csv
import io as _io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .chain import NestedChain
from .hypergraph import (
    InputError,
    WeightedHypergraph,
    _is_int,
    as_fraction,
    check_vertex_ids,
    rational_to_text as text,
)

__all__ = [
    "ResultRow",
    "canonical_json",
    "load_instance",
    "save_instance",
    "load_pairs",
    "load_chain",
    "load_chain_or_instance",
    "save_chain",
    "check_writable",
    "result_csv",
    "write_result_csv",
]

CSV_HEADER = ("method", "phi", "size", "coverage", "seed")


@dataclass(frozen=True)
class ResultRow:
    method: str
    phi: Fraction
    size: int
    coverage: Fraction
    seed: int


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _frac(value: object, where: str) -> Fraction:
    """``as_fraction``, with ``where`` in front of its error."""
    try:
        return as_fraction(value)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def _vertex_list(value: object, where: str) -> list[int]:
    if not isinstance(value, list) or not all(_is_int(v) for v in value):
        raise InputError(f"{where}: vertices must be a list of ints, got {value!r}")
    return value


def _objects(doc: dict, key: str, where: str) -> list[dict]:
    """doc[key], which must be a list of JSON objects."""
    items = doc.get(key)
    if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
        raise InputError(f"{where}: '{key}' must be a list of objects")
    return items


def _read_doc(path: str | Path, kind: str) -> dict:
    """The JSON object in ``path``; a missing key fails the check of its field."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # also bad UTF-8 and over-long int literals
        raise InputError(f"cannot read {kind} {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{kind} {path}: expected a JSON object")
    return doc


def _write(path: str | Path, kind: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:  # a missing directory, or a directory given as the file
        raise InputError(f"cannot write {kind} {path}: {exc}") from None


def check_writable(path: str | Path) -> None:
    """Fail as ``_write`` would on a missing directory, or a directory given as
    the file, without creating ``path``: a command checks OUT before it computes."""
    if Path(path).is_dir() or not Path(path).parent.is_dir():
        raise InputError(f"cannot write {path}: not a file in an existing directory")


def _hypergraph(doc: dict, where: str, weight) -> WeightedHypergraph:
    """Hypergraph from the "n" and "edges" fields; ``weight(edge, where)`` reads
    one mass, and ``WeightedHypergraph.build`` checks "n" as every vertex count."""
    edges = []
    for i, e in enumerate(_objects(doc, "edges", where)):
        at = f"{where}: edge {i}"
        if "v" not in e:
            raise InputError(f"{at} needs 'v'")
        edges.append((_vertex_list(e["v"], at), weight(e, at)))
    try:
        return WeightedHypergraph.build(doc.get("n"), edges)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def load_instance(path: str | Path) -> tuple[WeightedHypergraph, list[str] | None]:
    return _instance(_read_doc(path, "instance"), f"instance {path}")


def load_chain_or_instance(path: str | Path) -> NestedChain | WeightedHypergraph:
    """The chain saved in ``path`` if its document has "sets", else its instance's hypergraph."""
    if "sets" in (doc := _read_doc(path, "chain or instance")):
        return _chain(doc, f"chain {path}")
    return _instance(doc, f"instance {path}")[0]


def _instance(doc: dict, where: str) -> tuple[WeightedHypergraph, list[str] | None]:
    def weight(e: dict, at: str) -> Fraction:
        if "w" not in e:
            raise InputError(f"{at} needs 'w'")
        return _frac(e["w"], at)

    h = _hypergraph(doc, where, weight)
    labels = doc.get("vertices")
    if labels is not None and (not isinstance(labels, list) or len(labels) != h.n):
        raise InputError(f"{where}: 'vertices' must list {h.n} labels")
    return h, labels


def save_instance(path: str | Path, h: WeightedHypergraph, labels: Sequence[str] | None = None) -> None:
    doc: dict = {
        "n": h.n,
        "edges": [{"v": sorted(e.vertices), "w": text(e.weight)} for e in h.edges],
    }
    if labels is not None:
        doc["vertices"] = list(labels)
    _write(path, "instance", canonical_json(doc))


def save_chain(path: str | Path, chain: NestedChain) -> None:
    doc = {
        "sets": [sorted(s) for s in chain.sets],
        "breakpoints": [text(b) for b in chain.breakpoints],
        "stats": [{"size": len(s), "induced": text(e), "residual": text(chain.total - e)}
                  for s, e in zip(chain.sets, chain.induced)],
    }
    _write(path, "chain", canonical_json(doc))


def load_pairs(path: str | Path) -> tuple[WeightedHypergraph, list[tuple[frozenset[int], frozenset[int]]], int]:
    """Universe, (prediction, truth) pairs and stage-1 split count of a pairs file.

    The file holds {"n", "edges", "pairs": [{"a": [...], "b": [...]}, ...]};
    edge weights "w" are optional (default 1) and, as in every format,
    rational strings or ints; the "split" count defaults to half the pairs.
    """
    doc = _read_doc(path, "pairs file")
    where = f"pairs file {path}"
    universe = _hypergraph(doc, where, lambda e, at: _frac(e.get("w", 1), at))
    pairs = []
    for i, p in enumerate(_objects(doc, "pairs", where)):
        at = f"{where}: pair {i}"
        if "a" not in p or "b" not in p:
            raise InputError(f"{at} needs 'a' and 'b'")
        a, b = _vertex_list(p["a"], at), _vertex_list(p["b"], at)
        try:
            check_vertex_ids(universe.n, (a, b))
        except InputError as exc:
            raise InputError(f"{at}: {exc}") from None
        pairs.append((frozenset(a), frozenset(b)))
    if len(pairs) < 2:
        raise InputError(f"{where}: need at least two pairs to split")
    split = doc.get("split", len(pairs) // 2)
    if not _is_int(split) or not 0 < split < len(pairs):
        raise InputError(f"{where}: bad split {split}")
    return universe, pairs, split


def load_chain(path: str | Path) -> NestedChain:
    return _chain(_read_doc(path, "chain"), f"chain {path}")


def _chain(doc: dict, where: str) -> NestedChain:
    if not isinstance(doc.get("sets"), list) or not isinstance(doc.get("breakpoints"), list):
        raise InputError(f"{where}: 'sets' and 'breakpoints' must be lists")
    stats = _objects(doc, "stats", where)
    if not stats or not all("induced" in st for st in stats) or "residual" not in stats[-1]:
        raise InputError(f"{where}: 'stats' must list 'induced' per set and end with 'residual'")
    sets = tuple(frozenset(_vertex_list(s, where)) for s in doc["sets"])
    breakpoints = tuple(_frac(b, where) for b in doc["breakpoints"])
    induced = tuple(_frac(st["induced"], where) for st in stats)
    residual_top = _frac(stats[-1]["residual"], where)
    chain = NestedChain(sets, breakpoints, induced, induced[-1] + residual_top)
    try:
        chain.validate()
    except Exception as exc:
        raise InputError(f"{where}: {exc}") from None
    # no n to check ids against; the sets are nested, so the top one holds every id
    if min(chain.sets[-1], default=0) < 0:
        raise InputError(f"{where}: vertex ids must be non-negative")
    return chain


def result_csv(rows: Sequence[ResultRow]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in sorted(rows, key=lambda r: (r.method, r.phi, r.seed)):
        writer.writerow(
            [r.method, "%.12g" % float(r.phi), r.size, "%.12g" % float(r.coverage), r.seed]
        )
    return buf.getvalue()


def write_result_csv(path: str | Path, rows: Sequence[ResultRow]) -> None:
    _write(path, "result table", result_csv(rows))
