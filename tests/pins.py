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

The refusal contract: each command line the CLI refuses, with the option it
refuses and a fragment of its stderr.  ``test_cli.py::test_refused`` runs
every row in-process, in an empty working directory, with the walk and the
process pool patched to fail, and asserts exit 2, empty stdout, the
fragment on stderr (one ``error:`` line when ``cli.main`` returns), and
that nothing was written.  ``test_tooling.py`` requires a row for every
value-taking option of every command and one below each ``cli.CHECKS``
floor, with and without ``--override-domain``.  An argv is split as a
shell would split it, so ``''`` is an empty argument.
"""

from typing import NamedTuple


class Pin(NamedTuple):
    argv: str  # split on whitespace
    md5: str
    tier: str  # "tier-1" or "stretch"
    written: str | None = None


class Refusal(NamedTuple):
    argv: str  # shlex.split
    option: str  # the option refused, or a positional's name
    fragment: str  # found in stderr


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


REFUSALS = {
    # degree and branch: the partition, and the guard before an exponent is
    # expanded, which would not fit in memory
    "degree-parse-error": Refusal("degree 1,3", "partition", "parts not weakly decreasing"),
    "resource-guard-degree": Refusal("degree 3,2,1 --max-n 5", "--max-n", "exceeds the limit 5"),
    "resource-guard-degree-exponent": Refusal("degree 1^100000000000000000", "partition",
                                              "exceeds the limit 60"),
    "resource-guard-branch": Refusal("branch 3,2,1 --max-n 5", "--max-n", "exceeds the limit 5"),
    "resource-guard-branch-exponent": Refusal("branch 1^100000000000000000", "partition",
                                              "exceeds the limit 60"),
    "degree-format": Refusal("degree 3,1 --format csv", "--format", "invalid choice: 'csv'"),
    "branch-format": Refusal("branch 3,1 --format dot", "--format", "invalid choice: 'dot'"),
    # spectrum
    "threads-below-one-0": Refusal("spectrum --n 5 --threads 0", "--threads",
                                   "--threads must be at least 1"),
    "threads-below-one--1": Refusal("spectrum --n 5 --threads -1", "--threads",
                                    "--threads must be at least 1"),
    "resource-guard-spectrum": Refusal("spectrum --n 25 --max-n 20", "--max-n",
                                       "n=25 exceeds the resource guard --max-n 20"),
    "spectrum-n-1e12": Refusal("spectrum --n 1000000000000", "--n",
                               "exceeds the resource guard --max-n 60"),
    "spectrum-empty-cache-dir": Refusal("spectrum --n 41 --cache-dir ''", "--cache-dir",
                                        "--cache-dir names no directory"),
    "spectrum-group": Refusal("spectrum --n 5 --group x", "--group", "invalid choice: 'x'"),
    "spectrum-format": Refusal("spectrum --n 5 --format dot", "--format", "invalid choice: 'dot'"),
    # graph
    "graph-n-1e12": Refusal("graph --n 1000000000000", "--n",
                            "exceeds the resource guard --max-n 60"),
    "graph-max-n": Refusal("graph --n 13 --max-n 12", "--max-n",
                           "n=13 exceeds the resource guard --max-n 12"),
    "graph-format": Refusal("graph --n 4 --format csv", "--format", "invalid choice: 'csv'"),
    # verify: the span, the checks, the store's ceiling, one process
    "missing-n-and-range": Refusal("verify --checks sandwich", "--n",
                                   "one of --n or --range is required"),
    "n-with-range": Refusal("verify --n 5 --range 7..8 --checks sandwich", "--range",
                            "not allowed with argument --n"),
    "bad-range-9..3": Refusal("verify --range 9..3 --checks sandwich", "--range",
                              "must be positive and ordered"),
    "bad-range-5-9": Refusal("verify --range 5-9 --checks sandwich", "--range", "bad range '5-9'"),
    "bad-range-a..9": Refusal("verify --range a..9 --checks sandwich", "--range",
                              "bad range 'a..9'"),
    "verify-range-to-1e12": Refusal("verify --range 5..1000000000000 --checks sandwich", "--range",
                                    "exceeds the resource guard --max-n 60"),
    "domain-rejection": Refusal("verify --range 3..4 --checks theorem1", "--range",
                                "stated for n >= 5"),
    "unknown-check": Refusal("verify --n 7 --checks bogus", "--checks", "unknown check 'bogus'"),
    "empty-checks-": Refusal("verify --n 7 --checks ''", "--checks", "names no check"),
    "empty-checks-,": Refusal("verify --n 7 --checks ,", "--checks", "names no check"),
    "empty-checks- , ": Refusal("verify --n 7 --checks ' , '", "--checks", "names no check"),
    "verify-store-ceiling-61": Refusal("verify --n 61 --max-n 70 --checks sandwich", "--max-n",
                                       "above 60"),
    "verify-store-ceiling-10": Refusal("verify --n 10 --max-n 70 --checks sandwich", "--max-n",
                                       "above 60"),
    "verify-threads-2": Refusal("verify --n 5 --checks sandwich --threads 2", "--threads",
                                "only spectrum starts workers"),
    "verify-threads-1e9": Refusal("verify --n 5 --checks sandwich --threads 1000000000",
                                  "--threads", "only spectrum starts workers"),
    "verify-format": Refusal("verify --n 5 --checks sandwich --format csv", "--format",
                             "invalid choice: 'csv'"),
    # one below each check's floor, and below its floor under --override-domain
    "theorem1-below-floor": Refusal("verify --n 4 --checks theorem1", "--n", "stated for n >= 5"),
    "theorem1-below-override-floor": Refusal("verify --n 1 --checks theorem1 --override-domain",
                                             "--n", "stated for n >= 2"),
    "theorem2-below-floor": Refusal("verify --n 6 --checks theorem2", "--n", "stated for n >= 7"),
    "theorem2-below-override-floor": Refusal("verify --n 1 --checks theorem2 --override-domain",
                                             "--n", "stated for n >= 2"),
    "sandwich-below-floor": Refusal("verify --n 4 --checks sandwich", "--n", "stated for n >= 5"),
    "sandwich-below-override-floor": Refusal("verify --n 4 --checks sandwich --override-domain",
                                             "--n", "stated for n >= 5"),
    "ratio-lemma-below-floor": Refusal("verify --n 0 --checks ratio-lemma", "--n",
                                       "stated for n >= 1"),
    "ratio-lemma-below-override-floor": Refusal(
        "verify --n 0 --checks ratio-lemma --override-domain", "--n", "stated for n >= 1"),
    "count-lemmas-below-floor": Refusal("verify --n 4 --checks count-lemmas", "--n",
                                        "stated for n >= 5"),
    "count-lemmas-below-override-floor": Refusal(
        "verify --n 4 --checks count-lemmas --override-domain", "--n", "stated for n >= 5"),
    "move-scan-below-floor": Refusal("verify --n 4 --checks move-scan", "--n",
                                     "stated for n >= 5"),
    "move-scan-below-override-floor": Refusal("verify --n 4 --checks move-scan --override-domain",
                                              "--n", "stated for n >= 5"),
    "induced-bound-below-floor": Refusal("verify --n 4 --checks induced-bound", "--n",
                                         "stated for n >= 5"),
    "induced-bound-below-override-floor": Refusal(
        "verify --n 4 --checks induced-bound --override-domain", "--n", "stated for n >= 5"),
    "epsilon-bounds-below-floor": Refusal("verify --n 4 --checks epsilon-bounds", "--n",
                                          "stated for n >= 5"),
    "epsilon-bounds-below-override-floor": Refusal(
        "verify --n 4 --checks epsilon-bounds --override-domain", "--n", "stated for n >= 5"),
    # scan
    "scan-below-five": Refusal("scan --n 4 --out x.csv", "--n", "scan starts at n = 5"),
    "scan-guard": Refusal("scan --n 70 --out x.csv", "--n", "exceeds the resource guard --max-n 60"),
    "scan-n-1e12": Refusal("scan --n 1000000000000 --out t.csv", "--n",
                           "exceeds the resource guard --max-n 60"),
    "scan-store-ceiling-61": Refusal("scan --n 61 --max-n 70 --out x.csv", "--max-n", "above 60"),
    "scan-store-ceiling-10": Refusal("scan --n 10 --max-n 70 --out x.csv", "--max-n", "above 60"),
    "scan-empty-out": Refusal("scan --n 5 --out ''", "--out", "--out names no file"),
    # a flag that a command does not honour is not accepted
    "degree---threads": Refusal("degree 3,1 --threads 1", "--threads", "unrecognized arguments"),
    "degree---cache-dir": Refusal("degree 3,1 --cache-dir c", "--cache-dir",
                                  "unrecognized arguments"),
    "degree---override-domain": Refusal("degree 3,1 --override-domain", "--override-domain",
                                        "unrecognized arguments"),
    "branch---threads": Refusal("branch 3,1 --threads 1", "--threads", "unrecognized arguments"),
    "branch---cache-dir": Refusal("branch 3,1 --cache-dir c", "--cache-dir",
                                  "unrecognized arguments"),
    "branch---override-domain": Refusal("branch 3,1 --override-domain", "--override-domain",
                                        "unrecognized arguments"),
    "graph---threads": Refusal("graph --n 4 --threads 1", "--threads", "unrecognized arguments"),
    "graph---cache-dir": Refusal("graph --n 4 --cache-dir c", "--cache-dir",
                                 "unrecognized arguments"),
    "graph---override-domain": Refusal("graph --n 4 --override-domain", "--override-domain",
                                       "unrecognized arguments"),
    "spectrum---override-domain": Refusal("spectrum --n 4 --override-domain", "--override-domain",
                                          "unrecognized arguments"),
    "verify---cache-dir": Refusal("verify --n 5 --checks sandwich --cache-dir c", "--cache-dir",
                                  "unrecognized arguments"),
    "scan---threads": Refusal("scan --n 5 --out t.csv --threads 1", "--threads",
                              "unrecognized arguments"),
    "scan---cache-dir": Refusal("scan --n 5 --out t.csv --cache-dir c", "--cache-dir",
                                "unrecognized arguments"),
    "scan---override-domain": Refusal(
        "scan --n 5 --out t.csv --override-domain", "--override-domain", "unrecognized arguments"),
    "scan---format": Refusal("scan --n 5 --out t.csv --format csv", "--format",
                             "unrecognized arguments"),
}
