"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

Smoke runs of every workload at tiny size, the traced run, and
negative tests showing that the correctness checks catch a flipped
verdict, a tampered receipt and an authentic read on a die-sort
reject.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import common  # noqa: E402

common.require_program()

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = _run("--workload", workload, "--seed", "3", "--trace", "0",
                  "--tiny")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tiny_traced_run_reports_every_per_layer_metric():
    result = _run("--workload", "inspect_serial", "--seed", "3",
                  "--trace", "1", "--tiny")
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_no_program_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- negative tests of the checks --------------------------------------------


@pytest.fixture(scope="module")
def traffic(tmp_path_factory):
    """Four real traffic chips with direct verify_population verdicts."""
    from repro.engine import verify_population
    from repro.workloads.traffic import TrafficGenerator

    db = tmp_path_factory.mktemp("traffic") / "published.db"
    common.publish_family(db, receipts=True)
    items = TrafficGenerator(seed=5).draw(4)
    verdicts = verify_population(
        [it.chip for it in items], common.published_verifier(db)
    ).verdicts
    return db, items, verdicts


def _served(items, verdicts, responses):
    return [
        checks.Served(
            index=i,
            kind=it.kind,
            die_id=f"0x{it.chip.die_id:012X}",
            expected=tuple(it.expected_verdicts),
            reference=v,
            response=r,
        )
        for i, (it, v, r) in enumerate(zip(items, verdicts, responses))
    ]


def _ok(it, verdict, **extra):
    return {
        "id": 0,
        "ok": True,
        "result": {
            "die_id": f"0x{it.chip.die_id:012X}",
            "verdict": verdict,
            **extra,
        },
    }


def test_check_catches_a_flipped_verdict(traffic):
    _, items, verdicts = traffic
    responses = [_ok(it, v) for it, v in zip(items, verdicts)]
    assert not checks.union(
        checks.check_served(_served(items, verdicts, responses))
    )
    flip = {"authentic": "counterfeit", "counterfeit": "authentic",
            "tampered": "authentic"}
    responses[1] = _ok(items[1], flip[verdicts[1]])
    failed = checks.check_served(_served(items, verdicts, responses))
    assert failed["reference"] == {1}


def test_check_catches_a_tampered_receipt(traffic):
    from repro.receipts import ReceiptSigner, build_receipt
    from repro.service import WatermarkRegistry

    db, items, verdicts = traffic
    shard = db.parent / "shard.db"
    shutil.copyfile(db, shard)
    signer = ReceiptSigner(bytes.fromhex(common.RECEIPT_KEY_HEX))
    responses = []
    with WatermarkRegistry(shard, create=False) as registry:
        for it, verdict in zip(items, verdicts):
            die = f"0x{it.chip.die_id:012X}"
            seq = registry.record_verification(common.FAMILY, die, verdict)
            receipt = build_receipt(
                signer, family=common.FAMILY, die_id=die, decision=verdict,
                statistic=0.5, params_hash="0" * 64, history_seq=seq,
                audit_head=registry.audit_head(),
            )
            responses.append(_ok(it, verdict, receipt=receipt))
    served = _served(items, verdicts, responses)
    assert checks.check_receipts(served, [str(shard)]) == set()
    assert checks.check_audit([str(shard)], [s.die_id for s in served])

    receipt = responses[2]["result"]["receipt"]
    receipt["statistic"] = 0.25  # any edit breaks the signature
    assert checks.check_receipts(served, [str(shard)]) == {2}
    # A receipt that disagrees with the verdict returned beside it.
    receipt["statistic"] = 0.5
    responses[3]["result"]["verdict"] = "tampered"
    assert 3 in checks.check_receipts(served, [str(shard)])
    # History that misses a completed verify fails the audit check.
    assert not checks.check_audit([str(shard)], [s.die_id for s in served][:3])


def _die(index, passed, verdict, status="ACCEPT", extracted=True):
    imprinted = {"manufacturer": "TCMK", "die_id": f"0x{index:012X}",
                 "status": status}
    return checks.LotDie(
        index=index, passed=passed, imprinted=imprinted, verdict=verdict,
        extracted=dict(imprinted) if extracted else None,
    )


def test_check_catches_an_authentic_read_on_a_die_sort_reject():
    dies = [_die(0, True, "authentic"), _die(1, False, "tampered", "REJECT")]
    assert not checks.union(checks.check_lot(dies))
    dies.append(_die(2, False, "authentic", "REJECT"))
    assert checks.check_lot(dies)["reject_read_authentic"] == {2}


def test_check_lot_payload_and_fallout_shape():
    dies = [_die(i, True, "authentic") for i in range(20)]
    dies[0].extracted = dict(dies[0].extracted, die_id="0x000000000999")
    dies[1] = _die(1, True, "counterfeit")  # fallout: allowed
    dies[2] = _die(2, True, "tampered")  # not the fallout shape
    failed = checks.check_lot(dies)
    assert failed["payload"] == {0}
    assert failed["deviation_shape"] == {2}
    assert not failed["fallout_bound"]
    many = [_die(i, True, "counterfeit") for i in range(20)]
    assert checks.check_lot(many)["fallout_bound"] == set(range(20))
