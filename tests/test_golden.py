"""Golden outputs: the four bundled scenarios, shortened to 600 s and run with
seed 5 as acceptance criterion 8 runs them, must write the same CSV bytes as
the recorded digests. A change that moves any output byte fails here; if the
move is intended, re-record the digests and say why."""

import hashlib

import pytest

from hybridtraffic.cli import main as cli_main

GOLDEN = {
    "macro_meso/boundaries.csv": "57532478d90c2759e0e410e2dac0a0c0a512ffee953e54afcd2c8ea4fdd1d385",
    "macro_meso/lane_groups.csv": "679292f811a4820e6883d6a0397052bc193a24e1085c86842769c2cfc4e3d55b",
    "macro_meso/link_states.csv": "e8b131459ec5d5a0d98fe97d467d8ffaccab6740ce6d530272a959186ec6cf95",
    "macro_meso/trajectories.csv": "47295e7e97cf0f4e22a2fa31de6ac8b172ef8e16851a966e281a98e6b8071e76",
    "macro_micro/boundaries.csv": "26e2aa99bffd0e9b93b8b6ee177bf9f165751e376140e29d787c2fa9d1d6e6ff",
    "macro_micro/lane_groups.csv": "5d0c502e07434cc14223b90e94c0db522395332f31ac447045357ed313fb1539",
    "macro_micro/link_states.csv": "d5c5c10442bcd7f73eaa3127fdfe727c5b35cedd341b9116f656a0a5b032b14c",
    "macro_micro/trajectories.csv": "3451473f1133de17e29ce4996e2451568e1ceb8f548ddda51bd1e083a3c3b898",
    "meso_micro/boundaries.csv": "bc08af1b4f075a8b8cf254f4ac75cd26ca9d10fed0252ef79991c365142bb402",
    "meso_micro/lane_groups.csv": "c77e4eedaefa34815031cbd12e88399b6260ea1f98d991cc3e01e5f349d76d2a",
    "meso_micro/link_states.csv": "d2a5d2b6f038a3bf006feb08f993b6c02884c91b3c179ece5bc439df2f9905ee",
    "meso_micro/trajectories.csv": "92d8ece0d9390dde21d0c2b6bfd82e72c52b69d2e3a36066f44f528acf5fd55b",
    "micro_macro/boundaries.csv": "806236172ff59e90a3822268ea44bdfc67eea787107de18ace77362c43047b01",
    "micro_macro/lane_groups.csv": "add0bb3a7d8b19f6d62fd401d2770a82c6698a42ff135e4f3391c32e4cf70c16",
    "micro_macro/link_states.csv": "b3329a843b621b6abba98f715d7726703d1882268962e3f51551530f55bbdaf6",
    "micro_macro/trajectories.csv": "395294d1712e1ba8b690e70647228b998a42693fbb226ee569759c3fb867697c",
}
SCENARIOS = sorted({key.split("/")[0] for key in GOLDEN})


@pytest.mark.parametrize("name", SCENARIOS)
def test_bundled_scenario_csvs_match_recorded_digests(name, tmp_path):
    out = tmp_path / name
    assert cli_main(["run", name, "--out-dir", str(out), "--duration", "600",
                     "--seed", "5"]) == 0
    written = {
        "%s/%s" % (name, p.name): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }
    assert written == {k: v for k, v in GOLDEN.items() if k.startswith(name + "/")}
