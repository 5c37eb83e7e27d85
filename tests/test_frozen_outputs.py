"""Frozen reports and sidecars: one small config per CLI command.

The sha256 of every file a run writes was recorded from the code before the
norm, partial-sum, sampler and writer paths were merged; those of the four
larger divergence families, from the code before the block searches were
batched into shared lockstep ascents; those of the three partial-screen
configs, from the code before restart lanes were screened by their a-priori
bound.  A refactor that
changes a single byte of a verify residual, a divergence partial sum, a
witness matrix or the JSON layout fails here.
"""

import hashlib
import json

import pytest

from specshift.cli import main

FIXTURE = {"dim": 3, "re": [[0.5, -0.25, 0.125], [-0.25, 1.0, 0.75],
                            [0.125, 0.75, -2.0]]}

CONFIGS = {
    "verify": ("verify", {"seed": 42, "matrices": [FIXTURE]}),
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
    # divergent families whose block searches run in batches of 1, 2 and 4
    # blocks: all seven succeed; xsin_inv fails at block 6, inside the last
    # batch; abs fails at block 1
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
    # the restart screen keeps 1-4 of each search's 5 lanes; in the
    # smoothed_abs run a kept restart wins a search that screened another
    "ratio-search-xsin_inv": ("ratio-search", {
        "function": {"id": "xsin_inv"}, "dims": [2, 4, 8], "budget": 4, "seed": 17,
        "grid": {"interval": [-1, 1], "count": 17}, "format": "csv"}),
    "ratio-search-smoothed_abs": ("ratio-search", {
        "function": {"id": "smoothed_abs", "params": [0.05]}, "dims": [2, 4],
        "budget": 4, "seed": 1, "grid": {"interval": [-0.5, 2], "count": 17},
        "format": "csv"}),
    # batch 2-3 keeps two restarts of block 2 and none of block 3
    "divergence-signed_square-delta0-256": ("divergence", {
        "function": {"id": "signed_square"}, "K": 3, "delta0": 256,
        "dim": 2, "budget": 4, "seed": 0}),
}

EXPECTED = {
    "commuting": {
        "report.csv":
            "5bd7127d4a490f950f2e64ef23b3d0f901eb3303685b3cfe0b4569c0c13c680f",
        "report_witness.json":
            "4bba66da1ebda4b52bdb95998d899af2945dac902f05d9e142d646689a1d50f4",
    },
    "divergence": {
        "report.csv":
            "cdd52cd9c62583d95cd31f5bf9e9cd89b37bdc5926a4b8d364e8706900e04be5",
        "report_family.json":
            "fe65eda4b709afb5b3444c95460f4fbb8dda5ce1c4e7b55d81a07c0f048c9939",
    },
    "divergence-sqrt_abs-K7": {
        "report.csv":
            "2e33d91f1166a0390c5733744d89c56c973e9dc498d372ed8f21d2f81027cd2e",
        "report_family.json":
            "7db55b5d3a7b60619814bfcb3ad24be8cc496e8e31f1ebf555a4c39793ba9b2b",
    },
    "divergence-xsin_inv-K7": {
        "report.csv":
            "197e6d017b1972c130539a1a08186cf70c9ed8fb55077913b0f31ab43e341ef5",
        "report_family.json":
            "cc37edd80c4de0918d2cd685aa87a4b8e2e91086203bdeb8ffcd6ad0f6fe2e36",
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
            "9b60dd408a023c541dfd96e9818e57b99603bbd2f7118d8e0d053a1f4b53b587",
        "report_family.json":
            "66af6c38a500ee1839d1e492b0ebf16a059f48f5c5641efe480df55d3cb81373",
    },
    "ratio-search-csv": {
        "report.csv":
            "02cf2b1915781a110c8189c0bbcda31fa21f28c3e5ff447e4eee00a9c5952f09",
        "report_dim1_operator.json":
            "611c4dd807c3f628f6b96fe655434258b152d8b3ab85cca9de9079c929220c3a",
        "report_dim1_schatten1.json":
            "b906ab58136f50ff6be40d1659e0c8c2233e94a5918488ed27345ea21ad82dd8",
        "report_dim2_operator.json":
            "4b245cf63c6f9cfb547c6925f2540dde69d79868b2032f4d2d921d79c69525fa",
        "report_dim2_schatten1.json":
            "9f5e04ac22628e2bd5f56e0ccd61df187e373c132db440eeec7e87ed7786dbd5",
    },
    "ratio-search-json": {
        "report.json":
            "8fccc444e81cca62ca5b6bc9d174482286338df3e9b7cebd8f94a00ab66a3b97",
        "report_dim1_operator.json":
            "611c4dd807c3f628f6b96fe655434258b152d8b3ab85cca9de9079c929220c3a",
        "report_dim1_schatten1.json":
            "b906ab58136f50ff6be40d1659e0c8c2233e94a5918488ed27345ea21ad82dd8",
        "report_dim2_operator.json":
            "4b245cf63c6f9cfb547c6925f2540dde69d79868b2032f4d2d921d79c69525fa",
        "report_dim2_schatten1.json":
            "9f5e04ac22628e2bd5f56e0ccd61df187e373c132db440eeec7e87ed7786dbd5",
    },
    "ratio-search-xsin_inv": {
        "report.csv":
            "7000220629fc673b089377a7368b74cc7843c71f5b582eced8544c968e57e651",
        "report_dim2_operator.json":
            "324edb5cbf8348e5dde50fe9fa1959c7732a379d138cd698b9d896489e489ad3",
        "report_dim2_schatten1.json":
            "38abe108df0319a7424443c1a7bd2d7079a5f2e21bfe6acb6d1de4fc3abcb827",
        "report_dim4_operator.json":
            "24d6d71d2b1ebbcb13fe9f3d737e8495a32682da8d037f0fd668583ef9bb5d89",
        "report_dim4_schatten1.json":
            "44a750c23d7df459572f7960afc7ef35397109801b37cb39c631a75127c0b4f0",
        "report_dim8_operator.json":
            "af63569ae4cd47f9cae18510b42570188635e7306711c95db87eff7fa594f325",
        "report_dim8_schatten1.json":
            "ec994c366a723237db035ad44ec5b1ee4f32b5cd491fe9835be6333d7879b80f",
    },
    "ratio-search-smoothed_abs": {
        "report.csv":
            "69a74611c8db96c4ae98e28ca5a83b58d79fff1ec330c5bf361fb00723d974e2",
        "report_dim2_operator.json":
            "a14c9db41fb419295b095a9bd203766fc1938a0c577d943a2c92ab1e6bf00357",
        "report_dim2_schatten1.json":
            "32a4ed5862465997aed99f2d72e8bee8bb976605201e645ec9b900124c4a75c1",
        "report_dim4_operator.json":
            "4ffe5e63fd71f1e409469db99292f0efaaf6ab81c02a0260dfa0cf34c2f5ba1e",
        "report_dim4_schatten1.json":
            "96808c49feef286bd6aec7a09f26d67ea7ae0831dc54ed97ad82009375f23537",
    },
    "verify": {
        "report.csv":
            "100ce85b3ceee511444bc6f5b6d8c2e7ed0461f386c3254f478b6e2a6394537a",
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
