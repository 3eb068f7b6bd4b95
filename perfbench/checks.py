"""Correctness checks of the benchmark's workloads.

Every check compares the program's outputs with a reference computed
apart from the path under test (a direct ``verify_population`` call,
the payload the production line imprinted, the offline receipt
checker, the registry's own audit chain) or with a property the method
must have.  Each returns the set of operation indices it failed, so a
failed check counts as a failed operation in the run's report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

#: Traffic kinds that carry no ACCEPT mark: reading any of them as
#: ``authentic`` is a false acceptance, never tolerated.
UNMARKED_KINDS = frozenset({"counterfeit", "fallout", "tampered"})

#: Share of authentic-expected chips allowed to read ``counterfeit``
#: (the paper's false-rejection fallout), plus a small-sample floor.
#: See README.md, "Correctness checks", for the measured rates.
FALLOUT_SHARE = 0.06
FALLOUT_FLOOR = 4


def fallout_bound(n_expected_authentic: int) -> int:
    return max(FALLOUT_FLOOR, math.ceil(FALLOUT_SHARE * n_expected_authentic))


@dataclass
class Served:
    """One service verify as the benchmark saw it."""

    index: int
    kind: str
    die_id: str
    expected: Sequence[str]
    #: The direct ``verify_population`` verdict (the reference).
    reference: str
    #: The parsed response frame (None: no response).
    response: Optional[dict]


def check_served(served: Sequence[Served]) -> Dict[str, Set[int]]:
    """Verdict checks of the service workloads; failures by check."""
    failed: Dict[str, Set[int]] = {
        "response": set(),
        "reference": set(),
        "false_accept": set(),
        "deviation_shape": set(),
        "fallout_bound": set(),
    }
    fallout: List[int] = []
    n_authentic = 0
    for s in served:
        resp = s.response
        if not resp or not resp.get("ok"):
            failed["response"].add(s.index)
            continue
        result = resp.get("result") or {}
        verdict = result.get("verdict")
        if verdict != s.reference or result.get("die_id") != s.die_id:
            failed["reference"].add(s.index)
        if s.kind in UNMARKED_KINDS and verdict == "authentic":
            failed["false_accept"].add(s.index)
        if "authentic" in s.expected:
            n_authentic += 1
        if verdict not in s.expected:
            if s.expected == ("authentic",) and verdict == "counterfeit":
                fallout.append(s.index)
            else:
                failed["deviation_shape"].add(s.index)
    if len(fallout) > fallout_bound(n_authentic):
        failed["fallout_bound"].update(fallout)
    return failed


def check_receipts(
    served: Sequence[Served], shard_registries: Sequence[str]
) -> Set[int]:
    """Each receipt passes the offline check against the audit chain
    of the shard that issued it, and carries the returned verdict."""
    from repro.receipts import verify_receipts_offline
    from repro.service import WatermarkRegistry

    chains = []
    keys: Dict[str, tuple] = {}
    for path in shard_registries:
        with WatermarkRegistry(path, create=False) as registry:
            entries = registry.audit_entries()
            for record in registry.families():
                if record.verify_key is not None:
                    keys[record.family_id] = (
                        record.verify_algorithm,
                        record.verify_key,
                    )
        chains.append((entries, {e["entry_hash"] for e in entries}))
    failed: Set[int] = set()
    by_chain: Dict[int, List[Served]] = {}
    for s in served:
        result = (s.response or {}).get("result") or {}
        receipt = result.get("receipt")
        if not isinstance(receipt, dict) or receipt.get(
            "decision"
        ) != result.get("verdict"):
            failed.add(s.index)
            continue
        owner = [
            i for i, (_, hashes) in enumerate(chains)
            if receipt.get("audit_head") in hashes
        ]
        if len(owner) != 1:
            failed.add(s.index)
            continue
        by_chain.setdefault(owner[0], []).append(s)
    for i, group in by_chain.items():
        report = verify_receipts_offline(
            [s.response["result"]["receipt"] for s in group],
            keys=keys,
            audit_entries=chains[i][0],
        )
        for failure in report["failures"]:
            failed.add(group[failure["index"]].index)
    return failed


def check_audit(
    registries: Sequence[str], completed_die_ids: Iterable[str]
) -> bool:
    """Every audit chain verifies, with one history row per completed
    verify (matched by die id across all registries)."""
    from repro.service import RegistryError, WatermarkRegistry

    recorded: List[str] = []
    for path in registries:
        with WatermarkRegistry(path, create=False) as registry:
            try:
                registry.verify_audit_chain()
            except RegistryError:
                return False
            recorded.extend(
                r.die_id for r in registry.history(limit=1_000_000)
            )
    return sorted(recorded) == sorted(completed_die_ids)


@dataclass
class LotDie:
    """One produced and screened die of the ``lot`` workload."""

    index: int
    passed: bool
    #: The payload the line imprinted: manufacturer, die_id, status.
    imprinted: dict
    verdict: str
    #: The payload the verifier extracted (None when none decoded).
    extracted: Optional[dict]


def check_lot(dies: Sequence[LotDie]) -> Dict[str, Set[int]]:
    failed: Dict[str, Set[int]] = {
        "reject_read_authentic": set(),
        "payload": set(),
        "deviation_shape": set(),
        "fallout_bound": set(),
    }
    fallout: List[int] = []
    n_passed = 0
    for d in dies:
        if not d.passed:
            # Irreversibility: a REJECT mark never reads ACCEPT.
            if d.verdict == "authentic":
                failed["reject_read_authentic"].add(d.index)
            continue
        n_passed += 1
        if d.verdict == "authentic":
            if d.extracted != d.imprinted or d.imprinted.get(
                "status"
            ) != "ACCEPT":
                failed["payload"].add(d.index)
        elif d.verdict == "counterfeit":
            fallout.append(d.index)
        else:
            failed["deviation_shape"].add(d.index)
    if len(fallout) > fallout_bound(n_passed):
        failed["fallout_bound"].update(fallout)
    return failed


def union(groups: Dict[str, Set[int]]) -> Set[int]:
    out: Set[int] = set()
    for group in groups.values():
        out |= group
    return out
