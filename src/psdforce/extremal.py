"""Throttling, complement-sum bounds, and exhaustive extremal searches.

Every exhaustive search reads one invariant table: one :class:`ExtremalRecord`
(Z+, pt+) per isomorphism class, in deterministic order (order, then
canonical label), computed once per order.  ``invariant_table``,
``classify_extremal``, ``zeta`` and ``ng_search`` all read it, so with a
checkpoint directory they share one ``invariants.nN.jsonl`` file per order and
resume from it.
"""

from __future__ import annotations

import json
import os
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import takewhile
from typing import Iterable

from . import canon
from .canon import enumerate_graphs
from .engine import ConsistencyError, _budgeted_scans, _z_and_pt
from .graph import Graph, complement, parse_graph6, write_graph6


@dataclass(frozen=True, slots=True)
class ExtremalRecord:
    """One graph's exact invariants, JSON-lines ready."""

    g6: str
    n: int
    z_plus: int
    pt_plus: int

    def to_json(self) -> str:
        doc = {"g6": self.g6, "n": self.n, "z+": self.z_plus, "pt+": self.pt_plus}
        return json.dumps(doc, separators=(",", ":"))

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

    Ties go to the least k.  The value never exceeds ceil((n + Z)/2)
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
    bound = (g.n + z + 1) // 2  # ceil((n+Z)/2)
    if best[0] > bound:
        raise ConsistencyError(f"throttling {best[0]} above bound {bound}")
    return best


# ---------------------------------------------------------------------------
# complement sums


@dataclass(frozen=True, slots=True)
class NGSums:
    """Graph-plus-complement sums with bound-tightness flags.

    For order n >= 2: n-2 <= z_sum <= 2n-1 and 1 <= pt_sum <= n/2 + 2 (order
    1 sums to pt 0, z 2).  The pt upper flag marks pt_sum == n/2 + 2 exactly
    (so only even orders can set it).
    """

    n: int
    pt_sum: int
    z_sum: int
    pt_at_lower: bool
    pt_at_upper: bool
    z_at_lower: bool
    z_at_upper: bool


def ng_sums(g: Graph) -> NGSums:
    z_g, pt_g, _ = _z_and_pt(g)
    z_c, pt_c, _ = _z_and_pt(complement(g))
    pt_sum = pt_g + pt_c
    z_sum = z_g + z_c
    n = g.n
    return NGSums(
        n=n,
        pt_sum=pt_sum,
        z_sum=z_sum,
        pt_at_lower=pt_sum == 1,
        pt_at_upper=2 * pt_sum == n + 4,
        z_at_lower=z_sum == n - 2,
        z_at_upper=z_sum == 2 * n - 1,
    )


def ng_pt_sum(g: Graph) -> int:
    return ng_sums(g).pt_sum


def ng_z_sum(g: Graph) -> int:
    return ng_sums(g).z_sum


# ---------------------------------------------------------------------------
# exhaustive searches


def _load_checkpoint(path: str, n: int) -> list[ExtremalRecord] | None:
    """The records of a complete order-n checkpoint, or None to recompute.

    None also when a record does not parse, has a field of the wrong type
    or has an order other than n.
    """
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    try:
        tail = json.loads(lines[-1]) if lines else None
        if not isinstance(tail, dict) or tail.get("done") != len(lines) - 1:
            return None  # incomplete run
        records = [ExtremalRecord.from_json(ln) for ln in lines[:-1]]
    except (ValueError, KeyError, TypeError):  # JSONDecodeError is a ValueError
        return None
    # exact types: bool is an int subclass, and 3.0 == 3
    sound = all(type(r.g6) is str and type(r.n) is type(r.z_plus) is type(r.pt_plus) is int
                and r.n == n for r in records)
    return records if sound else None


def _write_checkpoint(path: str, records: list[ExtremalRecord]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")
        fh.write(json.dumps({"done": len(records)}) + "\n")
    os.replace(tmp, path)


def _records_for_orders(
    orders: Iterable[int], jobs: int = 1, checkpoint_dir: str | None = None
) -> list[ExtremalRecord]:
    """The invariant table's records of each order in ``orders``, order by order.

    An order with a complete checkpoint is read from it; any other order is
    computed, then checkpointed.  With ``jobs`` > 1 one ``Pool`` is opened
    on the first order computed and serves every later one, so a run that
    resumes every order opens none.
    """
    if checkpoint_dir is not None:  # an unusable directory fails before any work
        os.makedirs(checkpoint_dir, exist_ok=True)
    out: list[ExtremalRecord] = []
    with ExitStack() as stack:
        pool = None
        for n in orders:
            path = None
            if checkpoint_dir is not None:
                path = os.path.join(checkpoint_dir, f"invariants.n{n}.jsonl")
                cached = _load_checkpoint(path, n)
                if cached is not None:
                    out.extend(cached)
                    continue
            if jobs > 1:
                if pool is None:
                    import multiprocessing  # loaded only by a search that fans out
                    pool = stack.enter_context(multiprocessing.Pool(jobs))
                # imap, not map: map would list every Graph before sending any
                records = list(pool.imap(graph_record, enumerate_graphs(n), chunksize=64))
            else:
                records = [graph_record(g) for g in enumerate_graphs(n)]
            if path is not None:
                _write_checkpoint(path, records)
            out.extend(records)
    return out


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
    best = -1
    witnesses: list[str] = []
    for rec in _records_for_orders((n,), jobs, checkpoint_dir):
        if rec.z_plus != k:
            continue
        if rec.pt_plus > best:
            best = rec.pt_plus
            witnesses = [rec.g6]
        elif rec.pt_plus == best:
            witnesses.append(rec.g6)
    if best < 0:
        raise ValueError(f"no graph of order {n} has forcing number {k}")
    if best > (n - k + 1) // 2:
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


def ng_search(n: int, *, jobs: int = 1, checkpoint_dir: str | None = None) -> NGSearchResult:
    """Exact complement-sum survey of every order-n isomorphism class.

    Both terms of each sum come from the order-n invariant table.
    Complementation is an involution on classes, so one canonical label
    pairs a class with its complement and fills in both sums.
    """
    records = _records_for_orders((n,), jobs, checkpoint_dir)
    pt = {rec.g6: rec.pt_plus for rec in records}
    sums: dict[str, int] = {}
    for lab in pt:
        if lab not in sums:
            co = canon.canonical_label(complement(parse_graph6(lab)))
            sums[lab] = sums[co] = pt[lab] + pt[co]
    hist: dict[int, int] = {}
    attaining = []
    threshold = n // 2 + 2
    for lab, pt_sum in sums.items():
        hist[pt_sum] = hist.get(pt_sum, 0) + 1
        if pt_sum == threshold:
            attaining.append(lab)
    return NGSearchResult(
        n=n,
        histogram=dict(sorted(hist.items())),
        max_sum=max(hist),
        threshold=threshold,
        attained=bool(attaining),
        attaining=tuple(sorted(attaining)),
    )
