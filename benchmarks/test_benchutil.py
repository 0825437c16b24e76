"""benchutil.record: append-only BENCH_<name>.json trajectories."""

import json
import os

from benchutil import record


def test_record_appends_and_converts_a_legacy_object(tmp_path):
    path = tmp_path / "BENCH_demo.json"
    path.write_text(json.dumps({"restore_seconds": 0.09}))
    first = record("demo", {"restore_seconds": 0.08}, root=str(tmp_path))
    record("demo", {"restore_seconds": 0.07}, root=str(tmp_path))
    history = json.loads(path.read_text())
    assert history[0] == {"restore_seconds": 0.09}
    assert [entry["metrics"] for entry in history[1:]] == [
        {"restore_seconds": 0.08}, {"restore_seconds": 0.07}]
    assert set(first) == {"commit", "python", "cores", "metrics"}
    assert first["cores"] == os.cpu_count()


def test_record_starts_a_new_trajectory(tmp_path):
    record("fresh", {"x": 1}, root=str(tmp_path))
    history = json.loads((tmp_path / "BENCH_fresh.json").read_text())
    assert len(history) == 1 and history[0]["metrics"] == {"x": 1}
