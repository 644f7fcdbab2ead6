"""scripts/bench_pairs.py summarize on a hand-written two-pair file."""

import json

import pytest

from scripts.bench_pairs import main


def _record(workload, seed, side, ops, attempted, failed):
    metrics = {name: {"value": ops if name == "ops_per_s" else 1.0, "unit": "u"}
               for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms",
                            "setup_s", "peak_rss_mb")}
    return {"workload": workload, "seed": seed, "side": side, "first": "parent",
            "trace": 0, "result": {"attempted": attempted, "failed": failed,
                                   "metrics": metrics}}


def _summarize(tmp_path, capsys, records):
    path = tmp_path / "pairs.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["summarize", str(path)]) == 0
    return json.loads(capsys.readouterr().out)


def test_summarize_two_pairs(tmp_path, capsys):
    out = _summarize(tmp_path, capsys, [
        _record("wp", 1, "parent", 10.0, 100, 0), _record("wp", 1, "change", 12.0, 100, 1),
        _record("wp", 2, "change", 9.0, 300, 3), _record("wp", 2, "parent", 14.0, 100, 0),
    ])
    row = out["end_to_end"]["wp"]
    assert row["seeds"] == [1, 2] and row["pairs"] == 2
    ops = row["metrics"]["ops_per_s"]
    assert ops["parent"]["median"] == 12.0 and ops["change"]["median"] == 10.5
    assert ops["ratio"] == 10.5 / 12.0
    assert ops["change_wins"] == "1/2"
    assert row["metrics"]["setup_s"]["change_wins"] == "0/2"  # ties count for neither
    assert row["failed_ops"] == {"parent": 0, "change": 4}
    assert row["attempted"] == {"parent": 200, "change": 400}
    assert row["failed_share"] == {"parent": 0.0, "change": 0.01}


def test_summarize_workload_without_a_pair(tmp_path, capsys):
    path = tmp_path / "pairs.jsonl"
    records = [_record("wp", 1, "parent", 10.0, 100, 0), _record("wp", 1, "change", 12.0, 100, 0),
               _record("pal", 5, "parent", 10.0, 100, 0)]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(SystemExit) as exc:
        main(["summarize", str(path)])
    assert exc.value.code == "summarize: workload pal has no seed run on both sides"


def test_summarize_claim_rule(tmp_path, capsys):
    """A gain holds on 9 of 10 pairs when the medians differ by more than the
    parent's interquartile range; 8 wins, a gap inside it, or fewer than
    ten pairs do not."""
    def pairs(parent, change):
        return [_record("wp", seed, side, ops, 100, 0)
                for seed, (p, c) in enumerate(zip(parent, change))
                for side, ops in (("parent", p), ("change", c))]

    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]  # IQR 4.5
    claims = {
        "wins 9, gap 7": ([p + 8 for p in parent[:9]] + [18.9], True),
        "wins 8, gap 6": ([p + 8 for p in parent[:8]] + [17.9, 18.9], False),
        "wins 10, gap 4": ([p + 4 for p in parent], False),
    }
    claims["wins 3 of 3, gap 8"] = ([p + 8 for p in parent[:3]], False)
    for name, (change, holds) in claims.items():
        row = _summarize(tmp_path, capsys, pairs(parent, change))["end_to_end"]["wp"]
        assert row["metrics"]["ops_per_s"]["claim_holds"] is holds, name
        # latency is 1.0 on both sides: no pair won, so lower-is-better holds no claim
        assert row["metrics"]["latency_p90_ms"]["claim_holds"] is False


def test_summarize_within_bound(tmp_path, capsys):
    """A metric is within its bound (0.25 on ops_per_s and latency) while the
    change's median is at most a quarter of the parent's median worse; a
    gain is always within it."""
    for ops, latency, within in ((76.0, 1.2, True), (74.0, 1.3, False),
                                 (130.0, 0.5, True)):
        change = _record("wp", 1, "change", ops, 100, 0)
        change["result"]["metrics"]["latency_p90_ms"]["value"] = latency
        rows = _summarize(tmp_path, capsys, [
            _record("wp", 1, "parent", 100.0, 100, 0), change])["end_to_end"]["wp"]["metrics"]
        assert rows["ops_per_s"]["within_bound"] is within, ops
        assert rows["latency_p90_ms"]["within_bound"] is within, latency
        assert rows["setup_s"]["within_bound"] is True  # 1.0 on both sides
