"""Throttling, complement-sum bounds, and exhaustive extremal searches.

Every exhaustive search reads one invariant table: one :class:`ExtremalRecord`
(Z+, pt+) per isomorphism class, in deterministic order (order, then
canonical label), computed once per order.  ``invariant_table``,
``classify_extremal``, ``zeta`` and ``ng_search`` all read it, so with a
checkpoint directory they share one ``invariants.nN.jsonl`` file per order and
resume from it; ``ng_search`` adds its complement pairs, ``complements.nN.jsonl``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from contextlib import ExitStack, suppress
from dataclasses import dataclass
from itertools import count, takewhile
from typing import Callable, Iterable

from . import canon
from .canon import enumerate_graphs
from .engine import ConsistencyError, _budgeted_scans, _halving_bound, _z_and_pt
from .graph import Graph, complement, parse_graph6, write_graph6

__all__ = [
    "ExtremalRecord",
    "NGSearchResult",
    "classify_extremal",
    "graph_record",
    "invariant_table",
    "ng_search",
    "throttling_number",
    "zeta",
]

_writes = count()  # numbers this process's checkpoint writes


@dataclass(frozen=True, slots=True)
class ExtremalRecord:
    """One graph's exact invariants, JSON-lines ready."""

    g6: str
    n: int
    z_plus: int
    pt_plus: int

    def doc(self) -> dict:
        """The JSON object of this record."""
        return {"g6": self.g6, "n": self.n, "z+": self.z_plus, "pt+": self.pt_plus}

    def to_json(self) -> str:
        return json.dumps(self.doc(), separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "ExtremalRecord":
        doc = json.loads(line)
        return cls(g6=doc["g6"], n=doc["n"], z_plus=doc["z+"], pt_plus=doc["pt+"])


def graph_record(g: Graph) -> ExtremalRecord:
    z, pt, _ = _z_and_pt(g)
    return ExtremalRecord(g6=write_graph6(g), n=g.n, z_plus=z, pt_plus=pt)


# ---------------------------------------------------------------------------
# throttling


def throttling_number(
    g: Graph, *, max_subsets: int | None = None
) -> tuple[int, int, int]:
    """min over k of k + best time at size k; returns (value, best_k, witness).

    Ties go to the least k.  The value never exceeds Z + ceil((n - Z)/2)
    (asserted).  Every size scanned is charged to one ``max_subsets``
    budget.  Since k + pt >= k, the sizes stop once k reaches the best
    k + pt so far: the next size is neither charged nor scanned.
    """
    best: tuple[int, int, int] | None = None
    z = None
    ks = takewhile(lambda k: best is None or k < best[0], range(1, g.n + 1))
    for k, got in _budgeted_scans(g, ks, max_subsets):
        if got is None:
            continue
        if z is None:
            z = k
        pt, witness = got
        if best is None or k + pt < best[0]:
            best = (k + pt, k, witness)
    if best is None or z is None:
        raise ConsistencyError("no size up to n forces, but the full vertex set always does")
    bound = z + _halving_bound(g.n, z)
    if best[0] > bound:
        raise ConsistencyError(f"throttling {best[0]} above bound {bound}")
    return best


# ---------------------------------------------------------------------------
# complement sums


@dataclass(frozen=True, slots=True)
class NGSums:
    """Graph-plus-complement sums.

    For order n >= 2: n-2 <= z_sum <= 2n-1 and 1 <= pt_sum <= n/2 + 2 (order
    1 sums to pt 0, z 2).  ``ng_search`` says whether a sum reaches the bound.
    """

    n: int
    pt_sum: int
    z_sum: int


def ng_sums(g: Graph) -> NGSums:
    z_g, pt_g, _ = _z_and_pt(g)
    z_c, pt_c, _ = _z_and_pt(complement(g))
    return NGSums(n=g.n, pt_sum=pt_g + pt_c, z_sum=z_g + z_c)


def ng_pt_sum(g: Graph) -> int:
    return ng_sums(g).pt_sum


def ng_z_sum(g: Graph) -> int:
    return ng_sums(g).z_sum


# ---------------------------------------------------------------------------
# exhaustive searches


def _trailer(n: int, lines: list[str]) -> dict:
    """The last line of an order-n checkpoint of these lines: their count and
    the SHA-256 of the order and the lines, each ended by a newline."""
    # lazy, and the lean builtin module, as random does: hashlib loads OpenSSL (3.5 MB RSS)
    try:
        from _sha256 import sha256  # Python <= 3.11
    except ImportError:
        try:
            from _sha2 import sha256  # Python >= 3.12
        except ImportError:
            from hashlib import sha256
    text = "".join(line + "\n" for line in [str(n), *lines])
    return {"done": len(lines), "sha256": sha256(text.encode()).hexdigest()}


def _load_lines(path: str, n: int, parse: Callable[[list[str]], list | None]) -> list | None:
    """``parse`` of the lines of a complete order-n checkpoint, or None to
    recompute; a file that is there but not used prints a note on stderr."""
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            *lines, last = fh.read().splitlines()
        # an incomplete or edited file, another order's or one without a digest fails here
        if json.loads(last) == _trailer(n, lines) and (parsed := parse(lines)):
            return parsed
    except (ValueError, KeyError, TypeError):  # also empty files, JSON and UTF-8 errors
        pass
    print(f"note: checkpoint {path} does not check out; recomputing it", file=sys.stderr)
    return None


def _write_lines(path: str, n: int, lines: list[str]) -> None:
    """Atomically write lines and trailer, via a temporary file no other write shares."""
    tmp = f"{path}.{os.getpid()}-{next(_writes)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
            fh.write(json.dumps(_trailer(n, lines)) + "\n")
        os.replace(tmp, path)
    finally:  # gone after a replace; left behind by a failed write
        with suppress(OSError):
            os.remove(tmp)


def _records(n: int, lines: list[str]) -> list[ExtremalRecord] | None:
    """Checkpoint lines as order-n records, or None if a field is wrongly typed."""
    records = [ExtremalRecord.from_json(ln) for ln in lines]
    # exact types: bool is an int subclass, and 3.0 == 3
    sound = all(type(r.g6) is str and type(r.n) is type(r.z_plus) is type(r.pt_plus) is int
                and r.n == n for r in records)
    return records if sound else None


def _records_for_orders(
    orders: Iterable[int], jobs: int = 1, checkpoint_dir: str | None = None
) -> list[ExtremalRecord]:
    """The invariant table's records of each order in ``orders``, order by order.

    An order with a complete checkpoint is read from it; every other order
    is computed, then checkpointed.  With ``jobs`` > 1 one ``Pool`` of at most
    one worker per CPU serves every order computed, so a run that resumes
    every order opens none.  An order enumeration does not list fails first,
    before any file or work.
    """
    paths = dict.fromkeys(map(canon._enumerable, orders))  # order -> its checkpoint, if any
    if checkpoint_dir is not None:  # an unusable directory fails before any work
        os.makedirs(checkpoint_dir, exist_ok=True)
        paths = {n: os.path.join(checkpoint_dir, f"invariants.n{n}.jsonl") for n in paths}
    tables = {n: p and _load_lines(p, n, functools.partial(_records, n)) for n, p in paths.items()}
    missing = [n for n, records in tables.items() if records is None]
    with ExitStack() as stack:
        records_of = map
        jobs = min(jobs, os.cpu_count() or 1)
        if jobs > 1 and missing:
            import multiprocessing  # loaded only by a search that fans out
            pool = stack.enter_context(multiprocessing.Pool(jobs))
            # imap, not map: map would list every Graph before sending any
            records_of = functools.partial(pool.imap, chunksize=64)
        for n in missing:
            tables[n] = list(records_of(graph_record, enumerate_graphs(n)))
            if paths[n] is not None:
                _write_lines(paths[n], n, [rec.to_json() for rec in tables[n]])
    return [rec for records in tables.values() for rec in records]


def invariant_table(
    max_n: int, *, jobs: int = 1, checkpoint_dir: str | None = None
) -> list[ExtremalRecord]:
    """Z and pt for every isomorphism class of order 1..max_n (max 8)."""
    return _records_for_orders(range(1, max_n + 1), jobs, checkpoint_dir)


def classify_extremal(
    k: int,
    *,
    jobs: int = 1,
    checkpoint_dir: str | None = None,
    table: list[ExtremalRecord] | None = None,
) -> list[ExtremalRecord]:
    """All graphs (up to isomorphism) with propagation time exactly n - k.

    Any such graph has order at most 2k, so the search space is complete.
    Edgeless graphs are excluded: their time is 0 only because nothing is
    ever forced, and the slow-propagation catalogs are about graphs that do
    propagate.  Ordered by (n, canonical label).
    """
    if not 1 <= k <= 4:
        raise ValueError(f"catalog supports 1 <= k <= 4, got {k}")
    if table is None:
        table = invariant_table(2 * k, jobs=jobs, checkpoint_dir=checkpoint_dir)
    out = [
        rec
        for rec in table
        if rec.n <= 2 * k and rec.pt_plus == rec.n - k and rec.pt_plus > 0
    ]
    out.sort(key=lambda r: (r.n, r.g6))
    return out


def zeta(
    n: int, k: int, *, jobs: int = 1, checkpoint_dir: str | None = None
) -> tuple[int, list[str]]:
    """Largest propagation time among order-n graphs with Z = k, with witnesses.

    Exhaustive over isomorphism classes (n <= 8), read from the order-n
    invariant table; witnesses come in table order.  Raises ValueError if no
    order-n graph has forcing number k.  The value never exceeds
    ceil((n-k)/2) (asserted).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    at_k = [rec for rec in _records_for_orders((n,), jobs, checkpoint_dir) if rec.z_plus == k]
    if not at_k:
        raise ValueError(f"no graph of order {n} has forcing number {k}")
    best = max(rec.pt_plus for rec in at_k)
    witnesses = [rec.g6 for rec in at_k if rec.pt_plus == best]
    if best > _halving_bound(n, k):
        raise ConsistencyError(f"zeta({n}, {k}) = {best}, above the bound ceil((n-k)/2)")
    return best, witnesses


@dataclass(frozen=True, slots=True)
class NGSearchResult:
    """Distribution of graph-plus-complement time sums over one order.

    ``threshold`` is floor(n/2) + 2, the largest integer sum the bound
    n/2 + 2 permits; ``attained`` says whether any graph reaches it, and
    ``attaining`` lists those that do.
    """

    n: int
    histogram: dict[int, int]
    max_sum: int
    threshold: int
    attained: bool
    attaining: tuple[str, ...]


def _pairing(labels: Iterable[str], lines: list[str]) -> list[list[str]] | None:
    """Checkpoint lines as [class, complement] pairs, or None unless each label is in one."""
    pairs = [json.loads(ln) for ln in lines]
    paired = sorted(lab for p in pairs for lab in dict.fromkeys(p))
    sound = all(type(p) is list and len(p) == 2 for p in pairs) and paired == sorted(labels)
    return pairs if sound else None


def ng_search(n: int, *, jobs: int = 1, checkpoint_dir: str | None = None) -> NGSearchResult:
    """Exact complement-sum survey of every order-n isomorphism class.

    Both terms of each sum come from the order-n invariant table.
    Complementation is an involution on classes, so one canonical label
    pairs a class with its complement and fills in both sums.  With a
    checkpoint the pairs are read back, so a resumed search labels nothing.
    """
    records = _records_for_orders((n,), jobs, checkpoint_dir)
    pt = {rec.g6: rec.pt_plus for rec in records}
    path = checkpoint_dir and os.path.join(checkpoint_dir, f"complements.n{n}.jsonl")
    pairs = path and _load_lines(path, n, functools.partial(_pairing, pt))
    if not pairs:
        pairs, paired = [], set()
        for lab in pt:
            if lab not in paired:
                co = canon.canonical_label(complement(parse_graph6(lab)))
                pairs.append([lab, co])
                paired.update((lab, co))
        if path:
            _write_lines(path, n, [json.dumps(p, separators=(",", ":")) for p in pairs])
    sums: dict[str, int] = {}
    for lab, co in pairs:
        sums[lab] = sums[co] = pt[lab] + pt[co]
    hist = Counter(sums.values())
    threshold = n // 2 + 2
    attaining = sorted(lab for lab, pt_sum in sums.items() if pt_sum == threshold)
    return NGSearchResult(
        n=n,
        histogram=dict(sorted(hist.items())),
        max_sum=max(hist),
        threshold=threshold,
        attained=bool(attaining),
        attaining=tuple(attaining),
    )
