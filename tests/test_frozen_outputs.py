"""Frozen reports and sidecars: one small config per CLI command.

The sha256 of every file a run writes was recorded from the search of the
scalar probe and the restarts screened by their a-priori bound, with no
ascent of the probe pair; the verify digests, from the trace-transfer row
that forms each tail two ways.  A refactor that changes a single byte of a verify
residual, a divergence partial sum, a witness matrix or the JSON layout
fails here.
"""

import hashlib
import json

import pytest

from specshift.cli import main

FIXTURE = {"dim": 3, "re": [[0.5, -0.25, 0.125], [-0.25, 1.0, 0.75],
                            [0.125, 0.75, -2.0]]}

CONFIGS = {
    "verify": ("verify", {"seed": 42, "matrices": [FIXTURE]}),
    # no fixtures; seed 30 is the first invocation of the perfbench verify workload
    "verify-seed1": ("verify", {"seed": 1}),
    "verify-seed17": ("verify", {"seed": 17}),
    "verify-seed30": ("verify", {"seed": 30}),
    "divergence": ("divergence", {"function": {"id": "sqrt_abs"}, "K": 4,
                                  "dim": 2, "budget": 1, "seed": 0}),
    "ratio-search-csv": ("ratio-search", {
        "function": {"id": "abs"}, "dims": [1, 2], "budget": 1, "seed": 0,
        "grid": {"interval": [-1, 1], "count": 5}, "format": "csv"}),
    "ratio-search-json": ("ratio-search", {
        "function": {"id": "abs"}, "dims": [1, 2], "budget": 1, "seed": 0,
        "grid": {"interval": [-1, 1], "count": 5}, "format": "json"}),
    "commuting": ("commuting", {"function": {"id": "sqrt_abs"}, "K": 6,
                                "search_grid": 201, "seed": 0}),
    # the perfbench commuting config: thirty levels summed as 1x1 blocks
    "commuting-sqrt_abs-K30": ("commuting", {"function": {"id": "sqrt_abs"}, "K": 30,
                                             "search_grid": 2001, "seed": 1}),
    # ends not_found at level 17: the report has a header and no rows
    "commuting-xsin_inv-K30": ("commuting", {"function": {"id": "xsin_inv"}, "K": 30,
                                             "search_grid": 2001, "seed": 1}),
    # many levels: each level's grid depends on its level only, so sqrt_abs
    # at K 60 starts with the K 40 witness, and xsin_inv at K 600 misses at
    # level 12 as it does at K 30 (before, 1/x overflowed on a subnormal rung)
    "commuting-sqrt_abs-K60-grid301": ("commuting", {
        "function": {"id": "sqrt_abs"}, "K": 60, "search_grid": 301, "seed": 1}),
    "commuting-xsin_inv-K600-grid301": ("commuting", {
        "function": {"id": "xsin_inv"}, "K": 600, "search_grid": 301, "seed": 1}),
    # divergent families at dim 4: all seven sqrt_abs blocks succeed;
    # xsin_inv fails at block 6; abs fails at block 1
    "divergence-sqrt_abs-K7": ("divergence", {"function": {"id": "sqrt_abs"}, "K": 7,
                                              "dim": 4, "budget": 2, "seed": 0}),
    "divergence-xsin_inv-K7": ("divergence", {"function": {"id": "xsin_inv"}, "K": 7,
                                              "dim": 4, "budget": 2, "seed": 0}),
    "divergence-abs-K3": ("divergence", {"function": {"id": "abs"}, "K": 3,
                                         "dim": 4, "budget": 2, "seed": 0}),
    # stops at block 1; 1/x overflows on the grid of block 7, never reached
    "divergence-xsin_inv-delta0-1e-300": ("divergence", {
        "function": {"id": "xsin_inv"}, "K": 7, "delta0": 1e-300,
        "dim": 4, "budget": 2, "seed": 0}),
    # the restart screen keeps 0-4 of each search's 4 restarts; in the
    # smoothed_abs run a kept restart wins a search that screened another
    "ratio-search-xsin_inv": ("ratio-search", {
        "function": {"id": "xsin_inv"}, "dims": [2, 4, 8], "budget": 4, "seed": 17,
        "grid": {"interval": [-1, 1], "count": 17}, "format": "csv"}),
    "ratio-search-smoothed_abs": ("ratio-search", {
        "function": {"id": "smoothed_abs", "params": [0.05]}, "dims": [2, 4],
        "budget": 4, "seed": 1, "grid": {"interval": [-0.5, 2], "count": 17},
        "format": "csv"}),
    # the screen keeps two restarts of block 2 and none of block 3
    "divergence-signed_square-delta0-256": ("divergence", {
        "function": {"id": "signed_square"}, "K": 3, "delta0": 256,
        "dim": 2, "budget": 4, "seed": 0}),
    # the perfbench divergence config: ten dim-8 blocks, every restart screened
    "divergence-sqrt_abs-K10-dim8": ("divergence", {
        "function": {"id": "sqrt_abs"}, "K": 10, "delta0": 1.0,
        "dim": 8, "budget": 4, "seed": 1}),
}

EXPECTED = {
    "commuting": {
        "report.csv":
            "5bd7127d4a490f950f2e64ef23b3d0f901eb3303685b3cfe0b4569c0c13c680f",
        "report_witness.json":
            "4bba66da1ebda4b52bdb95998d899af2945dac902f05d9e142d646689a1d50f4",
    },
    "commuting-sqrt_abs-K30": {
        "report.csv":
            "c2403e52fe2f4e93a130b8c4181a0e66f875f25d1861b87776727737598b3e05",
        "report_witness.json":
            "1c4283dbadcb75db30ad77397ef01c242afa2bdab3ea5db2c4655a0681c9adf0",
    },
    "commuting-xsin_inv-K30": {
        "report.csv":
            "ea2b0b6fed8e371327055fd2b3dfba1f40ee99dc8ebdf3aa2232c748e99edacf",
        "report_witness.json":
            "35733a9331c150be46096f64705afc438fe2e356076ab64d164cfdad36e857d1",
    },
    "commuting-sqrt_abs-K60-grid301": {
        "report.csv":
            "bb5275d53eccbf99188436fd24cf06bc809726824a5689205f3d6f6ca1ef6475",
        "report_witness.json":
            "8d8fc6475efd280566eddeeb2b3cf3cda44c2cd8f3067918888bf12a50260bb6",
    },
    "commuting-xsin_inv-K600-grid301": {
        "report.csv":
            "ea2b0b6fed8e371327055fd2b3dfba1f40ee99dc8ebdf3aa2232c748e99edacf",
        "report_witness.json":
            "a1337115a7bdd0f4673090d42c669a20c9efde06fbc3f7872780bab0ec1b1ff4",
    },
    "divergence": {
        "report.csv":
            "31c64323c5072c209f34d9647d4fa7e2171cf8d781e953d1c1ef23376590fe53",
        "report_family.json":
            "697721aff30939137874a65d2236d95878af8b66d0a0fa91a290818b98cea579",
    },
    "divergence-sqrt_abs-K7": {
        "report.csv":
            "7d649481448ba1f3ea82c06a4784d5984a385541e322e43b6bf7c3996bd195c5",
        "report_family.json":
            "91a05885ed73a4101b9f1d07b9c95ff8a020d5319829226596b0650a9cc0a2e6",
    },
    "divergence-xsin_inv-K7": {
        "report.csv":
            "a0111f9e4c688f7f5b633a798ae2c6e57d2c5d97943d7af6048f7a8a7d0b6528",
        "report_family.json":
            "d0b33afb30b09b1e6e7370bbcbbc12a2475cbb797fe792c90ea50309ad156100",
    },
    "divergence-abs-K3": {
        "report.csv":
            "238a5aeeee1cce37b92c3f7a2e40fdacde9b742648e2055adaf0e0d493a821e2",
        "report_family.json":
            "37850f196a20675da30cee6671f9ef483a6f3d3eacc18c3dedf06ef34d00c8a1",
    },
    "divergence-xsin_inv-delta0-1e-300": {
        "report.csv":
            "a879b3e207c98dcf9c5a812b8f6a4d5d4f2685dc602134879ea08d7bf5d5fe73",
        "report_family.json":
            "1fd14e96594cf9ac65b113885cdf8c7e6b59c637f1466442a8d613ca819d65b5",
    },
    "divergence-signed_square-delta0-256": {
        "report.csv":
            "158b98962b200b45606fb37a8089aabee42393d63995dc15074c23a4d6b09d27",
        "report_family.json":
            "ced77b45c7a43dca257a753d52e7f3fc563b7ba67d156729ab63a943770797f6",
    },
    "divergence-sqrt_abs-K10-dim8": {
        "report.csv":
            "3d66be32ccef1063073cff2791921ab60cc6c653c6d244f1ed2fe6df6352974b",
        "report_family.json":
            "2e2b5863e33bdb462fc5d9f05c4d7537356fe124ae9611aae242d8c3203b50de",
    },
    "ratio-search-csv": {
        "report.csv":
            "69c0883bcceaf9357085dc68f991e40e08b0678580599b8426e09198ac322573",
        "report_dim1_operator.json":
            "611c4dd807c3f628f6b96fe655434258b152d8b3ab85cca9de9079c929220c3a",
        "report_dim1_schatten1.json":
            "b906ab58136f50ff6be40d1659e0c8c2233e94a5918488ed27345ea21ad82dd8",
        "report_dim2_operator.json":
            "c0e9c348e4612f1169a83550843675d0a18985cd46eeef4a1a8cbf0e9652fddc",
        "report_dim2_schatten1.json":
            "0421e93a821e4ce13e628721a24490d42f5f3137411a6ef2936b440669f08551",
    },
    "ratio-search-json": {
        "report.json":
            "a8cb47d662d0248526ac29cbf4c1677684f8072c5d9b022bdb47eb12f765c27a",
        "report_dim1_operator.json":
            "611c4dd807c3f628f6b96fe655434258b152d8b3ab85cca9de9079c929220c3a",
        "report_dim1_schatten1.json":
            "b906ab58136f50ff6be40d1659e0c8c2233e94a5918488ed27345ea21ad82dd8",
        "report_dim2_operator.json":
            "c0e9c348e4612f1169a83550843675d0a18985cd46eeef4a1a8cbf0e9652fddc",
        "report_dim2_schatten1.json":
            "0421e93a821e4ce13e628721a24490d42f5f3137411a6ef2936b440669f08551",
    },
    "ratio-search-xsin_inv": {
        "report.csv":
            "381d01b7a2cd600c93a7df8772b937788f7b661786ddaaa2074ff59e1c21f331",
        "report_dim2_operator.json":
            "f5f9bb711454ce66f89169c47758751aa5a7c2b90a61a5353073a16bc69577a4",
        "report_dim2_schatten1.json":
            "ad803d4fe3a2b960e79519319ef371c8aba18ca75c5396e0e0f0a1c9bdae4a5b",
        "report_dim4_operator.json":
            "07ffd42c6efe793401f74a1c5384ba0fcf991dea1f60b4176c13c46cd89a20f5",
        "report_dim4_schatten1.json":
            "0ebd12d58ae144546e3d22121e8915a61050781993acd0ae45e4bfa04ace803c",
        "report_dim8_operator.json":
            "d83f18009efbbe8b6a70e02afce033d09c2ddcff5563c34fdc9c13eab55a2808",
        "report_dim8_schatten1.json":
            "9ae33a13d064af70e727c0b9557ea6e5740219ffa56bde5c4be136e9b9ff5998",
    },
    "ratio-search-smoothed_abs": {
        "report.csv":
            "6ee652fed0450609dfa2abbdc1e23e65c696e3260667ba85ad24c2147c7559f6",
        "report_dim2_operator.json":
            "604e696aa0154a9dbf2b47a8e907badb89cd0db86ba3105f73957bcc13990306",
        "report_dim2_schatten1.json":
            "32a4ed5862465997aed99f2d72e8bee8bb976605201e645ec9b900124c4a75c1",
        "report_dim4_operator.json":
            "542bc5b61d5a07b838f6e99786808a28e185bfede8fa9d4f1d9af53bdddd8b0d",
        "report_dim4_schatten1.json":
            "d7aa44c79e2a5acf1c8d336dfba08e2c1e4808ab68b365f88d0809b4bc2a2c16",
    },
    "verify": {
        "report.csv":
            "c67c8c7f736a68574bddf883fbbd16bc0c9dfb8300e6a73c182fc818bbd30c17",
    },
    "verify-seed1": {
        "report.csv":
            "c59c27229a568db6333c6fd5f0b5399dd708f9b23118519e019f65ffc26676b3",
    },
    "verify-seed17": {
        "report.csv":
            "30264d681fb4746f67b5a8aa59e2ab28648633d06e313a7202315c12473c277d",
    },
    "verify-seed30": {
        "report.csv":
            "94d0695570ccd5ef25958bf650af479cec6219e66aa36ffb565f4b253f3c0164",
    },
}


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_outputs_match_recorded_hashes(tmp_path, case):
    command, cfg = CONFIGS[case]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    cfg_path = tmp_path / "cfg.json"
    report = out_dir / ("report." + cfg.get("format", "csv"))
    cfg_path.write_text(json.dumps(dict(cfg, output=str(report))), encoding="utf-8")
    assert main([command, str(cfg_path)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out_dir.iterdir())}
    assert got == EXPECTED[case]
