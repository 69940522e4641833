"""Golden-hash gate: refactors must not change a single output byte.

Runs the twin experiment on both repository configs, on the two-heater
config with wall-mounted sensors (the only golden case with mirror-image
rows), and on the single-heater config with a six-chain ladder down to
beta = 5^-5 and an exchange every second sweep (the only golden case
where 5.0 ** -5 and numpy's power of the same numbers differ in the
last bit), at a short fixed schedule, grids included, and compares the
sha256 of every file the run writes with values recorded from the code
before the forward-model and analysis paths were merged (the wall case:
before the field kernel walked its points in blocks; the ladder case:
before the ladder kept one beta per chain in an array). The report.json
hashes were re-recorded when heaters whose sensors all lie outside their
reach took the exact closed form in place of the quadrature: that moved
observation.values and residuals_best by at most 2.8e-17 and no other
byte of any case.
The hashes hold for numpy 2.4.6 with OpenBLAS 0.3.31 on x86-64; another
numpy or BLAS build may round differently and must re-record them from a
known-good commit.
"""

import hashlib
import json
import os

import pytest

from heatinfer.harness import parse_config, run_experiment

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")
SCHEDULE = {"phase1_steps": 200, "phase2_steps": 1000, "thin": 1}

GOLDEN = {
    "single_heater": {
        "best_grid.csv": "016ce8e975f2d8dd3e60b9edb1355236d3e933db3d06a628be4df3a02e963004",
        "best_grid.meta.json": "9eafc211567658f7acc991984bc7c168b1b510560c756699123071a30759989d",
        "report.json": "edff9b796005b83a984b38998f7b25387059b2827609f88c354c2f6c0ce66b0d",
        "samples.csv": "3b881b745df5d2908c372456cd6a58c267bc61c371603c77a9eb74756934aab9",
        "truth_grid.csv": "ee9f2a45a1eda0c98e8144d69b25e6c782abc41f1c784398328172de7b9577b9",
        "truth_grid.meta.json": "9eafc211567658f7acc991984bc7c168b1b510560c756699123071a30759989d",
    },
    "single_heater_ladder": {
        "best_grid.csv": "79f8df2f74ebbe1d631f9070d1bfe1a5007ef1f473e7541f7e76ad05ff2209a1",
        "best_grid.meta.json": "9eafc211567658f7acc991984bc7c168b1b510560c756699123071a30759989d",
        "report.json": "f274335364c5501624987efe611b556e0a3ae6594f677f689c0cb34d4f54feb4",
        "samples.csv": "fbadc9b876ecf829b74193f6b5c119a902c78859a24dac34be3e6a1f310c7132",
        "truth_grid.csv": "ee9f2a45a1eda0c98e8144d69b25e6c782abc41f1c784398328172de7b9577b9",
        "truth_grid.meta.json": "9eafc211567658f7acc991984bc7c168b1b510560c756699123071a30759989d",
    },
    "two_heaters": {
        "best_grid.csv": "7578e87d57bb2fc77c1d00808864064d1d25cb967e38053ca12b41d16bfb14ab",
        "best_grid.meta.json": "9eafc211567658f7acc991984bc7c168b1b510560c756699123071a30759989d",
        "report.json": "7c374d4e9f418abe99844d492ad3f0d9ac8595544e287c32aecabf84a88bf02c",
        "samples.csv": "c8903195feea6e2b9fec9b8512154abfdff63e63965727f79d9903910d710a91",
        "truth_grid.csv": "812eae5c0b508b114fcdec408cdd9cea3f573525d78090f8387a55053ae761d5",
        "truth_grid.meta.json": "9eafc211567658f7acc991984bc7c168b1b510560c756699123071a30759989d",
    },
    "two_heaters_wall": {
        "best_grid.csv": "3b4f329188a297eb5619b1e617d43a61ba68db6e7d70997565d54e5d7e74e817",
        "best_grid.meta.json": "bab7995671d1b58e914847a17a8d538b283c94ef7f9a8b8442c5e4da4f4626ac",
        "report.json": "912080b7f0e1bde42ad31249bdae0b400700bc69eb9880b26b2aed39910b9911",
        "samples.csv": "931457a0cb6324634be0b288bea7306163ec993c8a45a21c5514467e5caf7a87",
        "truth_grid.csv": "4a266643b3d1465c0ee43d1a44003b866b9622ac494c910de5bd23b0eccb8731",
        "truth_grid.meta.json": "bab7995671d1b58e914847a17a8d538b283c94ef7f9a8b8442c5e4da4f4626ac",
    },
}

# name -> (config file, {section: key overrides})
CASES = {
    "single_heater": ("single_heater", {}),
    "single_heater_ladder": ("single_heater", {"ladder": {"exponents": [-5, -4, -3, -2, -1, 0]},
                                               "schedule": {"swap_interval": 2}}),
    "two_heaters": ("two_heaters", {}),
    "two_heaters_wall": ("two_heaters", {"sensors": {"wall": True}}),
}


def _run_hashes(name, out_dir):
    config, overrides = CASES[name]
    with open(os.path.join(CONFIG_DIR, f"{config}.json")) as fh:
        doc = json.load(fh)
    doc["schedule"] = dict(SCHEDULE)
    for section, values in overrides.items():
        doc.setdefault(section, {}).update(values)
    run_experiment(parse_config(doc), out_dir=str(out_dir), progress=None)
    hashes = {}
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as fh:
            hashes[fname] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_are_byte_identical(name, tmp_path):
    assert _run_hashes(name, tmp_path) == GOLDEN[name]
