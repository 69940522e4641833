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
byte of any case. The report.json and best_grid.csv hashes were
re-recorded when the mixture fit switched from a triangular solve per
component to whitening by inverse Cholesky factors: the rounding of the
fitted weights, means and covariances moved (by at most 1.3e-13 relative
to each field's largest entry) and with it the best mean, its PCA, its
residuals and its grid. In two_heaters_wall the best covariance has one
eigenvalue at the covariance floor twice, and its two eigenvectors turned
within their shared plane, which itself moved by 6e-11. best_index and
the EM iteration counts did not change; samples.csv, the truth grids and
the meta files did not move. The truth_grid.csv and best_grid.csv hashes
were re-recorded when grids took the closed form for every heater-cell
pair outside the heater's reach in place of the quadrature: the largest
change, 3.4e-6 of max|T| (single_heater's truth grid), sits at cells just
outside the reach next to the boundary, where the quadrature had been off
by that much. samples.csv, report.json and the meta files did not move.
The report.json and best_grid.csv hashes were re-recorded when the EM
iteration switched to two matrix products over moment features built
once per fit (the products x_i x_j, x and 1 of the centred draws): the
fitted weights, means and covariances moved by at most 8.8e-14 relative
to each field's largest entry, and the best grids by at most 1.5e-14 of
max|T|. In two_heaters_wall the two eigenvectors that share the floor
eigenvalue turned by 0.048 rad within their plane. best_index and the EM
iteration counts did not change; samples.csv, the truth grids and the
meta files did not move, and the hashes are the same with one BLAS
thread and with the default thread count.
The single_heater and single_heater_ladder report.json hashes were
re-recorded when sensors took the grids' per-pair rule (a sensor outside
a heater's reach takes the closed form even when another sensor lies
inside it): residuals_best moved by at most 1.4e-17 and no other byte of
any case.
All four report.json hashes were re-recorded when the config lost its
quad_n key (the quadrature is the field's own, at 256 nodes): the echoed
config lost its "quad_n": 256 line, and each report is otherwise
unchanged, equal as JSON with that key removed.
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
        "best_grid.csv": "534c18ede0f0ed89e7089b84a4d97dd623e50af5ea6582a2183eb1c6a73d3e98",
        "best_grid.meta.json": "9eafc211567658f7acc991984bc7c168b1b510560c756699123071a30759989d",
        "report.json": "6a2c0e22caf0b0ae905a6ca2758dc51b8d1454071505f669cad5ae04f72c9feb",
        "samples.csv": "3b881b745df5d2908c372456cd6a58c267bc61c371603c77a9eb74756934aab9",
        "truth_grid.csv": "02982d8a4c29e74b621cab9a44050a3a057ddc1b27e83a17628e7a3d6cf71314",
        "truth_grid.meta.json": "9eafc211567658f7acc991984bc7c168b1b510560c756699123071a30759989d",
    },
    "single_heater_ladder": {
        "best_grid.csv": "5e96802ad18cccfa0183d2b7942849a898cb5d8da4a9375ae23a68c74c3a6711",
        "best_grid.meta.json": "9eafc211567658f7acc991984bc7c168b1b510560c756699123071a30759989d",
        "report.json": "e6c17fc8c773e25302423791afeee77ad6c7b7e43a58f1fd6f4c3013cc2cdbff",
        "samples.csv": "fbadc9b876ecf829b74193f6b5c119a902c78859a24dac34be3e6a1f310c7132",
        "truth_grid.csv": "02982d8a4c29e74b621cab9a44050a3a057ddc1b27e83a17628e7a3d6cf71314",
        "truth_grid.meta.json": "9eafc211567658f7acc991984bc7c168b1b510560c756699123071a30759989d",
    },
    "two_heaters": {
        "best_grid.csv": "75b470ecceb3ae6dae856d73a3048dbad44ef511bda0d80d8263cb9ac7d91746",
        "best_grid.meta.json": "9eafc211567658f7acc991984bc7c168b1b510560c756699123071a30759989d",
        "report.json": "f6c816456756914a7abaddffcf99e93c1df59ce6ddb097040fea3c3a6d9c713d",
        "samples.csv": "c8903195feea6e2b9fec9b8512154abfdff63e63965727f79d9903910d710a91",
        "truth_grid.csv": "08fed5c6088def6bc403b99cfa53a7a1df85f5f3f65a73c7f2e686c04dde490d",
        "truth_grid.meta.json": "9eafc211567658f7acc991984bc7c168b1b510560c756699123071a30759989d",
    },
    "two_heaters_wall": {
        "best_grid.csv": "edef61868463edd7ad6d3e52ddd7c9fffbc20e0caee7d1f9fafa9a43ec3fcee3",
        "best_grid.meta.json": "bab7995671d1b58e914847a17a8d538b283c94ef7f9a8b8442c5e4da4f4626ac",
        "report.json": "c5f9752c4dae93d353e8f39f2223cd2440dcda105c8b4945ebc50ae30714694b",
        "samples.csv": "931457a0cb6324634be0b288bea7306163ec993c8a45a21c5514467e5caf7a87",
        "truth_grid.csv": "e58627c681a6b037f3620b6dcec84144030daa7f5ff81082436a3ec28a770081",
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
