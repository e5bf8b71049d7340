"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_declared_metrics_match_the_runner():
    assert NAMES == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_printed_with_its_unit(name, trace, capsys):
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    result = run.run(name, seed=3, seconds=0.01, trace=trace, scale="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    lines = run.render(result)
    for m in declared:
        assert any(line.startswith(f"{m['name']} = ") and line.split("  (")[0].endswith(
            f" {m['unit']}") for line in lines), m["name"]
    if not trace:
        assert result["metrics"]["ops_per_s"]["value"] > 0
        assert "failed_frac" in result["detail"]["extra"]


def test_wrong_reference_digest_is_a_failure():
    good = run.run("decide-warm", seed=5, seconds=0.01, trace=False, scale="tiny")
    digest = good["detail"]["digest"]
    same = run.run("decide-warm", seed=5, seconds=0.01, trace=False, scale="tiny",
                   reference={"decide-warm": {"5": digest}})
    assert same["correct"] and same["failed"] == 0
    wrong = run.run("decide-warm", seed=5, seconds=0.01, trace=False, scale="tiny",
                    reference={"decide-warm": {"5": "0" * 64}})
    assert not wrong["correct"] and wrong["failed"] >= 1
    assert any("digest" in f for f in wrong["detail"]["failures"])


def _inputs(name: str, seed: int, tmp: Path):
    wl = workloads.WORKLOADS[name]("tiny")
    state = wl.setup(seed, tmp)
    ops = wl.make_pass(state, 0) + wl.make_pass(state, 1)
    if name == "sweep-cold":
        return [op.path.read_text(encoding="utf-8") for op in ops]
    if name == "decide-warm":
        return [(q.ext, q.kind, q.map.matrix.data, q.expected) for q in ops]
    return ops


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs(name, tmp_path):
    first = _inputs(name, 7, tmp_path / "a")
    assert first == _inputs(name, 7, tmp_path / "b")
    assert first != _inputs(name, 8, tmp_path / "c")
    assert first[: len(first) // 2] != first[len(first) // 2:]  # passes draw fresh inputs


def test_reference_seconds_follow_the_kernel_rate():
    import speed

    probe = speed.Probe()
    probe.times, probe.rates = [1.0, 2.0, 3.0], [500.0, 1000.0, 2000.0]
    assert probe.ref_seconds((1.5, 2.5, 0.4)) == 0.4  # one sample inside, at REF_RATE
    assert probe.ref_seconds((0.9, 3.1, 2.0)) == 2.0 * (3500 / 3) / speed.REF_RATE
    assert probe.ref_seconds((3.4, 3.5, 0.1)) == 0.1 * 2.0  # nearest sample, twice as fast
    with probe.running():
        mark = probe.mark()
        sum(speed.kernel() for _ in range(50))
        start, end, net = probe.interval(mark)
    assert 0 < net <= end - start and len(probe.rates) >= 5
