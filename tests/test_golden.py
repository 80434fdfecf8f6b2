"""Golden outputs of the shipped scenarios through ``burststream run``.

Simulations are deterministic, so the CSV files ``run`` writes, the
shaper's decision log and the session trajectory are fixed behaviour. The
digests below pin them: any change to the shaping loop that alters a
single decision, burst, radio segment or stall shows up here.
"""

import hashlib
from pathlib import Path

import pytest

from burststream import cli, harness

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
CSV_FILES = ("bursts.csv", "radio_states.csv", "signaling.csv", "stalls.csv")

GOLDEN = {
    "hspa-audio-fluctuating": {
        "bursts.csv":
            "39ad372e2f61c4a2d3c65992d71b529a052b614455e89413b26f36f5c1b85335",
        "radio_states.csv":
            "c54313678707837c04053f5cb8da34c4cae9d94f4e0a1e365bbea82c8ba4dd5d",
        "signaling.csv":
            "10816ff100182dd49541226f27628de7fa67770026c5219c01d8f591adf135f1",
        "stalls.csv":
            "fb7902388439a38258054110d921559ce6f8d244b63df8db73726cf8e245d3ff",
        "decision_log":
            "566e9d9edacf0fab7a99cb5aa2ba6a65760bd76fddb467529a1e44bb2ef36181",
        "trajectory":
            "509e87997f332623919ed9e7e4b7f7ad9cdf0a3200d082d0bc94ba2ca94dda2a",
    },
    "hspa-video-39s": {
        "bursts.csv":
            "d384633ab275aa832da9b8d29cc23d67b496d915311920a4e8507d9be4294dd8",
        "radio_states.csv":
            "3a14229e9602d637d10176346bef7145831d839589457800c10955061ca2704f",
        "signaling.csv":
            "2f42612d0053e97e6e427ba0147accc74b433764adb73fc3c841321184d00b73",
        "stalls.csv":
            "53555b88ba28be84430fedd87a7ab0ab4e0558c6493483cb124b6584018155aa",
        "decision_log":
            "d9ee1dc6162fee8b631074715db62e6d6912a28c12b0b677be916bc8a558c6e1",
        "trajectory":
            "247fbd9599fa8d6ec7848597e0d8acd1f7c879c127b45a739129acfab42c98a5",
    },
    "lte-audio-18s": {
        "bursts.csv":
            "1a6b8f1c2e8a7dda9ff1194d4c90c6a5d32fec0c8d609ecbc94a4d11b14febc7",
        "radio_states.csv":
            "d098a66529e44a9d5adb5a25743736b4cf4319034cdd6c1aa935b57ab96df6fe",
        "signaling.csv":
            "277f1c6cb290e31e2be0e5606a57938ae108831e9ea54a9861c828c6b7dc8bc8",
        "stalls.csv":
            "53555b88ba28be84430fedd87a7ab0ab4e0558c6493483cb124b6584018155aa",
        "decision_log":
            "720c8897238ca31fa78bbeb9fa819ae5f9a14b7110e16a54382496f1faaf6a51",
        "trajectory":
            "9f3aef22bb90cd8d6f43e301f8216bd67e795aa6caacf4bb7c144a1c20074628",
    },
    "wifi-video-bg": {
        "bursts.csv":
            "d384633ab275aa832da9b8d29cc23d67b496d915311920a4e8507d9be4294dd8",
        "radio_states.csv":
            "c12fac1d6159051d6225c1009687e571002c1012290ccde66767f7ee0c548ea1",
        "signaling.csv":
            "316c94852fa3bf70f3bfdd100d584a2ecb4c2b595742f8de0b33ab3a99fb3d60",
        "stalls.csv":
            "53555b88ba28be84430fedd87a7ab0ab4e0558c6493483cb124b6584018155aa",
        "decision_log":
            "d9ee1dc6162fee8b631074715db62e6d6912a28c12b0b677be916bc8a558c6e1",
        "trajectory":
            "0779e151b433b7dd954c4ddaac1e076ad598af31a122c4c3774a4be741d5ef0a",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(scenario_path: Path, out_dir: Path, monkeypatch) -> dict:
    """sha256 of each ``run`` output file, of the joined decision log and
    of the trajectory, for one ``burststream run`` of ``scenario_path``."""
    results = []
    real_run = harness.run

    def recording_run(scenario, *args, **kwargs):
        results.append(real_run(scenario, *args, **kwargs))
        return results[-1]

    monkeypatch.setattr(harness, "run", recording_run)
    assert cli.main(["run", str(scenario_path), "--out", str(out_dir)]) == 0
    (result,) = results
    digests = {name: _sha((out_dir / name).read_bytes())
               for name in CSV_FILES}
    digests["decision_log"] = _sha(
        "\n".join(result.session.decision_log).encode())
    digests["trajectory"] = _sha(
        "\n".join(repr(point) for point in result.session.trajectory)
        .encode())
    return digests


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_outputs_unchanged(name, tmp_path, monkeypatch):
    got = run_digests(SCENARIO_DIR / f"{name}.ini", tmp_path, monkeypatch)
    assert got == GOLDEN[name]
