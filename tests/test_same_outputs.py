"""The comparison rules of ``scripts/same_outputs.py``, on synthetic output trees."""
import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _SCRIPT)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def _outputs(root: Path, data: bytes, manifest: dict) -> Path:
    (root / "verify").mkdir(parents=True)
    (root / "verify" / "fidelity_points.csv").write_bytes(data)
    (root / "verify" / "manifest.json").write_text(json.dumps(manifest))
    (root / "verify.stdout").write_text("verify: target=cnot\n")
    (root / "verify.exit").write_text("0\n")
    return root


MANIFEST = {"command": "verify", "seed": None, "output_dir": "/a/verify",
            "written_at_unix": 1.0, "phase_seconds": {"load": 0.1, "write": 0.2},
            "phase_cpu_seconds": {"load": 0.1, "write": 0.2}}


def test_manifests_that_differ_in_timings_and_paths_compare_equal(tmp_path):
    timings = {"load": 0.5, "write": 0.01}
    other = {**MANIFEST, "output_dir": "/b/verify", "written_at_unix": 2.0,
             "phase_seconds": timings, "phase_cpu_seconds": timings}
    parent = _outputs(tmp_path / "parent", b"omega1_MHz,fidelity\n0.5,0.98\n", MANIFEST)
    change = _outputs(tmp_path / "change", b"omega1_MHz,fidelity\n0.5,0.98\n", other)
    assert same_outputs.differences(parent, change) == []


@pytest.mark.parametrize("data, manifest, found", [
    (b"omega1_MHz,fidelity\n0.5,0.99\n", MANIFEST, "verify/fidelity_points.csv: differs"),
    (b"omega1_MHz,fidelity\n0.5,0.98\n", {**MANIFEST, "seed": 0},
     "verify/manifest.json: the manifests differ in seed"),
    (b"omega1_MHz,fidelity\n0.5,0.98\n", {**MANIFEST, "phase_seconds": {"load": 0.1}},
     "verify/manifest.json: the manifests differ in phase_seconds"),
    (b"omega1_MHz,fidelity\n0.5,0.98\n", {**MANIFEST, "seed": 0, "cpus": 2, "command": None},
     "verify/manifest.json: the manifests differ in command, cpus, seed"),
], ids=["one_byte", "manifest_value", "phase_keys", "keys_named"])
def test_a_changed_output_is_reported(tmp_path, data, manifest, found):
    parent = _outputs(tmp_path / "parent", b"omega1_MHz,fidelity\n0.5,0.98\n", MANIFEST)
    change = _outputs(tmp_path / "change", data, manifest)
    assert same_outputs.differences(parent, change) == [found]


def test_a_missing_output_or_capture_is_reported(tmp_path):
    parent = _outputs(tmp_path / "parent", b"x\n", MANIFEST)
    change = _outputs(tmp_path / "change", b"x\n", MANIFEST)
    (change / "verify.exit").write_text("1\n")
    (change / "verify" / "fidelity_points.csv").unlink()
    assert same_outputs.differences(parent, change) == [
        "verify/fidelity_points.csv: only in parent", "verify.exit: differs"]
