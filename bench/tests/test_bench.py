"""Self-check of the benchmark at reduced size.

    python3 -m pytest bench/tests -q

Each workload runs its traced batch twice from the same seed: every answer
must be right, every count must repeat exactly, and the traced batch must
give the same answers as the untraced one.  The reference data is checked
against the benchmark's own reference implementation.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import refterms as R  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REPEATED_COUNTS = [
    "deciders.instances",
    "deciders.unique_problems",
    "cli.find_certificates",
    *(f"problems.outcome.{o}" for o in tracer.OUTCOMES + ("other",)),
    *(f"deciders.instances.{f}" for f in tracer.FAMILIES + ("other",)),
]


def traced_run(name, workdir, seed=3):
    workload, first, _ = run.set_up(name, seed, ROOT / "src", workdir, small=True)
    record, trace, _, _ = run.measure_traced(workload, first)
    return record, trace


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_and_tracing_keeps_answers(name, tmp_path):
    first_record, first_trace = traced_run(name, tmp_path / "first")
    second_record, second_trace = traced_run(name, tmp_path / "second")
    assert first_record.failures == []
    assert second_record.failures == []
    assert first_trace.missing == []

    table = [row[:3] for row in first_record.rows]
    assert table == [row[:3] for row in second_record.rows]
    # Ops run in pairs, one untraced and one traced, on two renamings.
    pairs = zip(table[0::2], table[1::2])
    assert all(a[0] == b[0] and a[2] == b[2] for a, b in pairs)

    first, second = first_trace.values(), second_trace.values()
    assert {k: first[k] for k in REPEATED_COUNTS} == {k: second[k] for k in REPEATED_COUNTS}
    if name == "find":
        assert first["cli.find_certificates"] > 0
        assert first["deciders.instances"] == 0
    else:
        assert first["deciders.instances"] > 0
        assert first["problems.solve_calls"] > 0


def test_missing_binding_reads_null_not_zero(monkeypatch):
    import loopcert.cli

    monkeypatch.delattr(loopcert.cli, "find_loops")
    trace = tracer.Tracer()
    trace.install()
    trace.uninstall()
    metrics = trace.metrics({name: 0.0 for name, _, _ in tracer.PER_LAYER})
    assert trace.missing == ["loopcert.cli.find_loops"]
    assert metrics["cli.find_loops_self_s"]["value"] is None
    assert metrics["cli.find_certificates"]["value"] is None
    assert metrics["deciders.generate_s"]["value"] == 0.0


def test_pinned_find_counts_match_the_reference_finder():
    counts = json.loads((workloads.CORPUS / "find_counts.json").read_text())
    for name, by_depth in counts.items():
        system = R.parse_system((workloads.CORPUS / f"{name}.trs").read_text())
        for depth, expected in by_depth.items():
            if name == "factorial" and int(depth) > 8:
                continue  # seconds each; depth 8 already covers the deep search
            assert len(R.find_loops(system, int(depth))) == expected, (name, depth)


def test_corpus_table_agrees_with_concrete_replay():
    table = json.loads((workloads.CORPUS / "expected.json").read_text())
    for row in table:
        if row["answer"] == "invalid" or row["strategy"] not in R.STRATEGY_CHECKS:
            continue
        system = R.parse_system((workloads.CORPUS / f"{row['system']}.trs").read_text())
        doc = json.loads((workloads.CORPUS / f"{row['loop']}.json").read_text())
        cert = R.certificate_from_document(doc, system)
        if row["answer"] == "no":
            assert R.first_violation(cert, system, row["strategy"], 12) is not None, row
        else:
            assert R.first_violation(cert, system, row["strategy"], 3) is None, row


def test_powers_replay_and_keep_the_loop_shape():
    system = R.parse_system((workloads.CORPUS / "factorial.trs").read_text())
    doc = json.loads((workloads.CORPUS / "factorial_loop.json").read_text())
    cert = R.certificate_from_document(doc, system)
    for k in (1, 2, 4, 8):
        power = R.power(cert, system, k)
        assert len(power.steps) == k * len(cert.steps)
        assert R.first_violation(power, system, "innermost", 0) is not None
        assert R.first_violation(power, system, "outermost", 0) is None


def test_refuses_to_run_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_last_line_reports_every_listed_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "5",
         "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())
