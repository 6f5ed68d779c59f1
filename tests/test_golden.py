"""Golden outputs: the six bundled scenarios, shortened to 600 s and run with
seed 5 as acceptance criterion 8 runs them, and the benchmark's two generated
grids at seed 1 with CSVs every 10 s, must write the same CSV bytes as the
recorded digests. A change that moves any output byte fails here; if the
move is intended, re-record the digests and say why."""

import hashlib
import os
import sys

import pytest

from hybridtraffic.cli import main as cli_main

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
from gridgen import write_grid  # noqa: E402
from harness import GRIDS  # noqa: E402

GOLDEN = {
    "macro_meso/boundaries.csv": "0635f186f157439090c53070fc0ed9664b7387e8c2d2ba845a43caa0d0bf1ecb",
    "macro_meso/lane_groups.csv": "3356fcca517d0c46efca35ad675ae9ac56a6deb62086cbc2a4e120f945855f32",
    "macro_meso/link_states.csv": "888d7569e569974cce46211d8716518a4a5124917badb8b683aae394610032e5",
    "macro_meso/trajectories.csv": "47295e7e97cf0f4e22a2fa31de6ac8b172ef8e16851a966e281a98e6b8071e76",
    "macro_micro/boundaries.csv": "26e2aa99bffd0e9b93b8b6ee177bf9f165751e376140e29d787c2fa9d1d6e6ff",
    "macro_micro/lane_groups.csv": "5d0c502e07434cc14223b90e94c0db522395332f31ac447045357ed313fb1539",
    "macro_micro/link_states.csv": "d5c5c10442bcd7f73eaa3127fdfe727c5b35cedd341b9116f656a0a5b032b14c",
    "macro_micro/trajectories.csv": "3451473f1133de17e29ce4996e2451568e1ceb8f548ddda51bd1e083a3c3b898",
    "meso_macro/boundaries.csv": "699e516893bba7d68006351ecdf64f830689c2352209eb74aa6d33679f027050",
    "meso_macro/lane_groups.csv": "1ed4a6899228402976089928e30594ff1d9192118501cd5a256e9c7381effd69",
    "meso_macro/link_states.csv": "6a4d50318537be56f87da1beff888b4df9fb3adb006510ac30171a95f4acd08a",
    "meso_macro/trajectories.csv": "47295e7e97cf0f4e22a2fa31de6ac8b172ef8e16851a966e281a98e6b8071e76",
    "meso_micro/boundaries.csv": "bc08af1b4f075a8b8cf254f4ac75cd26ca9d10fed0252ef79991c365142bb402",
    "meso_micro/lane_groups.csv": "c77e4eedaefa34815031cbd12e88399b6260ea1f98d991cc3e01e5f349d76d2a",
    "meso_micro/link_states.csv": "d2a5d2b6f038a3bf006feb08f993b6c02884c91b3c179ece5bc439df2f9905ee",
    "meso_micro/trajectories.csv": "92d8ece0d9390dde21d0c2b6bfd82e72c52b69d2e3a36066f44f528acf5fd55b",
    "micro_macro/boundaries.csv": "806236172ff59e90a3822268ea44bdfc67eea787107de18ace77362c43047b01",
    "micro_macro/lane_groups.csv": "add0bb3a7d8b19f6d62fd401d2770a82c6698a42ff135e4f3391c32e4cf70c16",
    "micro_macro/link_states.csv": "b3329a843b621b6abba98f715d7726703d1882268962e3f51551530f55bbdaf6",
    "micro_macro/trajectories.csv": "395294d1712e1ba8b690e70647228b998a42693fbb226ee569759c3fb867697c",
    "micro_meso/boundaries.csv": "88253546f636490be3c9d6f1601d91162b36ddff10a1eef381a502578f549bfd",
    "micro_meso/lane_groups.csv": "ed8eb4f73566adc0ed7ee9fd2ea2257e01417d912302d72c959a6f7272214cd5",
    "micro_meso/link_states.csv": "40bcb5cd2f42d3f75c4e0642119d4a3473136c7914a09f4a8fcb64c1e35d44f0",
    "micro_meso/trajectories.csv": "bfbdfcf157ae3141363400f38cb75ba14c3306b227360fc695def82fddf8f42d",
}
SCENARIOS = sorted({key.split("/")[0] for key in GOLDEN})

# bench/run.py's grid_macro (~1000 CTM links with a two_queue block, signals,
# turn splits) and grid_micro (noisy Newell behind a CTM entry block)
GRID_GOLDEN = {
    "grid_macro/boundaries.csv": "86fcb67a837a5a4079e6bdd349657b42e58c0fd336d1f0674512b84b7b473edb",
    "grid_macro/lane_groups.csv": "77b6efa61e206b8643f8cb1e29cfdc68a2d75708274f024645c163ec6f477443",
    "grid_macro/link_states.csv": "ac29faa125520c96243bbc5307133c5e37a6ac1cdf3827bdbe894494bfc6352d",
    "grid_macro/trajectories.csv": "47295e7e97cf0f4e22a2fa31de6ac8b172ef8e16851a966e281a98e6b8071e76",
    "grid_micro/boundaries.csv": "34b9907464862a25ede84df679c1e769d6707ca0c3e997145e074bffe9b196c7",
    "grid_micro/lane_groups.csv": "b947de7e41783d4e976c8bf8153b84ada0139f5c81bf90529b63ff1b97507922",
    "grid_micro/link_states.csv": "3d3da0511230ba018093492cb2035fd8493e3310ae32e0c08857cb4d58b1c86d",
    "grid_micro/trajectories.csv": "df9d8301487844171daee3ee60dc9dd82cf4cc9f498ea45b7d646b5549906923",
}


def _digests(out, name):
    return {
        "%s/%s" % (name, p.name): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


@pytest.mark.parametrize("name", SCENARIOS)
def test_bundled_scenario_csvs_match_recorded_digests(name, tmp_path):
    out = tmp_path / name
    assert cli_main(["run", name, "--out-dir", str(out), "--duration", "600",
                     "--seed", "5"]) == 0
    assert _digests(out, name) == {
        k: v for k, v in GOLDEN.items() if k.startswith(name + "/")}


@pytest.mark.parametrize("name", ["grid_macro", "grid_micro"])
def test_generated_grid_csvs_match_recorded_digests(name, tmp_path):
    path = tmp_path / "scenario.yaml"
    write_grid(GRIDS[name], 1, str(path))
    out = tmp_path / name
    assert cli_main(["run", str(path), "--out-dir", str(out), "--out-dt", "10"]) == 0
    assert _digests(out, name) == {
        k: v for k, v in GRID_GOLDEN.items() if k.startswith(name + "/")}
