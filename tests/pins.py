"""The byte contract: each pinned command, with the md5 of its stdout and
its tier, written once.

``test_cli.py::test_pinned_bytes`` runs every row in-process, in an empty
working directory, and asserts exit 0 and the md5.  A spectrum row runs at
``--threads 1`` and ``--threads 2``, under the ids ``<id>-1`` and
``<id>-2``.  ``written`` is the md5 of the one file a command writes (scan's
``--out``); every other row writes none.  A row that runs in under about
1 s in-process is tier-1; a longer one is ``stretch`` and runs under
``pytest -m stretch``.  Other tests read a row's md5 by its id, so a digest
is never written twice.
"""

from typing import NamedTuple


class Pin(NamedTuple):
    argv: str  # split on whitespace
    md5: str
    tier: str  # "tier-1" or "stretch"
    written: str | None = None


SIX = "--checks theorem1,theorem2,sandwich,move-scan,induced-bound,epsilon-bounds --format json"

PINS = {
    # a partition of 50 with both moves, and the self-conjugate 5^5, which
    # has neither and splits in A_25
    "degree-n50-text": Pin("degree 10,9,8,7,6,5,4,1", "bccc93e2ca129f6554731478f4face8b", "tier-1"),
    "degree-n50-json": Pin("degree 10,9,8,7,6,5,4,1 --format json",
                           "3dd6a21b9a85e73bb6bfcfb034715e48", "tier-1"),
    "degree-5^5-text": Pin("degree 5^5", "2a946df544b2dc00eda5002faee55b2d", "tier-1"),
    "degree-5^5-json": Pin("degree 5^5 --format json", "a90999e6da2f1adaefc64dd46782ccb8", "tier-1"),
    "branch-n50-text": Pin("branch 10,9,8,7,6,5,4,1", "49697d5ab3b474b40b2ff928f60c9937", "tier-1"),
    "branch-n50-json": Pin("branch 10,9,8,7,6,5,4,1 --format json",
                           "25d682ffa59e6caed064ed99dd3856f7", "tier-1"),
    "branch-5^5-text": Pin("branch 5^5", "205528cc02e2ae378a72d47f54562850", "tier-1"),
    "branch-5^5-json": Pin("branch 5^5 --format json", "a55c3808923121727abb25780ae54700", "tier-1"),
    # spectrum, at or below the member cap and above it; A_44's top two lie
    # below a self-conjugate maximizer
    "a24-text": Pin("spectrum --n 24 --group a", "40beb1479a8c452cd8351399b4f12510", "tier-1"),
    "a24-csv": Pin("spectrum --n 24 --group a --format csv",
                   "f525c3bd737c94728cfbc64385b1bdb6", "tier-1"),
    "a24-json": Pin("spectrum --n 24 --group a --format json",
                    "17bce929179402b57734cdd30c4dd251", "tier-1"),
    "s41-text": Pin("spectrum --n 41", "84502cd247043f0fbf4b334c79c11596", "tier-1"),
    "s41-json": Pin("spectrum --n 41 --format json", "36e4461473a5b268ce5dd918dfad88b2", "tier-1"),
    "a41-json": Pin("spectrum --n 41 --group a --format json",
                    "68af6f8d2340e843d6307f73a6099b5f", "tier-1"),
    "s44-json": Pin("spectrum --n 44 --format json", "815adc12f270cc1f4cdc2995cd262bdd", "tier-1"),
    "a44-json": Pin("spectrum --n 44 --group a --format json",
                    "95dfe3193f492cd76e9bd2b57376496c", "tier-1"),
    "s50-json": Pin("spectrum --n 50 --format json", "5872c690893bba6bd69bd88abae280d5", "tier-1"),
    "a50-json": Pin("spectrum --n 50 --group a --format json",
                    "07c3a7c8f0f98cfc38a29349580282f4", "tier-1"),
    "graph12-json": Pin("graph --n 12 --format json", "4eff0028d25127bd29674c3599bb047f", "tier-1"),
    "graph12-dot": Pin("graph --n 12 --format dot", "2bdd66c7e6585104b37ee7de47592ba9", "tier-1"),
    # verify: every report's bytes below the stated domains, over the paper's
    # range and past the member cap
    "range5-20-json": Pin("verify --range 5..20 --checks all --format json",
                          "44516d161a26efea7c5b32340878189b", "tier-1"),
    "range5-20-text": Pin("verify --range 5..20 --checks all --format text",
                          "8a3cdb26df5348e3bc2d7830cf0ce694", "tier-1"),
    "paper-range-json": Pin("verify --range 5..40 --checks all --format json",
                            "bcc05f3ea568c3ee39ffc9d89a420b18", "tier-1"),
    "override-domain-text": Pin("verify --range 2..12 --checks theorem1,theorem2 --override-domain",
                                "8e38a2c932f6f81e2ebfbdf70344d6c4", "tier-1"),
    "range41-49-text": Pin("verify --range 41..49 --checks theorem2,induced-bound",
                           "e44d190607beda893e853a9e73fe56cd", "stretch"),
    "range5-49-json": Pin("verify --range 5..49 --checks all --format json",
                          "143063626fb5bf2dc8a31989c95bfaad", "stretch"),
    "range5-55-json": Pin("verify --range 5..55 --checks epsilon-bounds,count-lemmas,induced-bound"
                          " --format json", "fecf348bd3a5b481ba076aa0757cefe2", "stretch"),
    "range5-60-json": Pin("verify --range 5..60 --checks induced-bound --format json",
                          "685a9e7f52e92baf79faf713a040dc5e", "stretch"),
    "range50-60-all-json": Pin("verify --range 50..60 --checks all --format json",
                               "350a0632066e5fe588c9f4bc36067143", "stretch"),
    # the six theorem-level checks where the induced-bound hypotheses hold:
    # the alternating ones at n = 44, the symmetric ones at 50, both at 51
    "n44": Pin(f"verify --n 44 {SIX}", "7c540cf83417f69cbe06ba040e6ca497", "tier-1"),
    "n50": Pin(f"verify --n 50 {SIX}", "4781547ae1e23f6f6ff4cc97de509a3a", "tier-1"),
    "n51": Pin(f"verify --n 51 {SIX}", "88008f6504977afa8b71f7529ba70f49", "tier-1"),
    "range41-49": Pin(f"verify --range 41..49 {SIX}", "9cb7c09095461e7bfc30fc048c25ede3", "stretch"),
    "range50-60": Pin(f"verify --range 50..60 {SIX}", "8d04e17a819273f565b17a84efaab0d7", "stretch"),
    # stdout names --out as given, so the path is relative
    "scan45": Pin("scan --n 45 --out scan45.csv", "7dfa065a80529f8a7bf12c6909fa4fd7", "stretch",
                  written="17d93dfef3868942f9ff60ef5c7915ec"),
}
