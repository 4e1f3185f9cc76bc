"""Byte-for-byte CSV contract on a small grid, through the CLI.

The digests below are the SHA-256 of the results CSV and of the
per-replicate ``--trace`` CSV, recorded from an earlier version of the
package. Both files are pure functions of the configuration, so a changed
digest means a run's behaviour changed: a sampled chromosome, an update, an
iteration count, a counter or the formatting of a row.
"""

import hashlib

import pytest

from compactga.cli import main

VARIANT_ARGS = {
    "cga": ["--algo", "cga"],
    "cga-t(s=3)": ["--algo", "cga-t", "--s", "3"],
    "cga-rr(m=3)": ["--algo", "cga-rr", "--m", "3"],
    "pe-cga": ["--algo", "pe-cga"],
    "ne-cga(eta=auto)": ["--algo", "ne-cga"],
    "ne-cga(eta=2)": ["--algo", "ne-cga", "--eta", "2"],
}

# (variant, problem, bits, policy) -> (results CSV digest, trace CSV digest)
GOLDEN = {
    ("cga", "onemax", 24, "fifo"): (
        "4933e1e2aacbc995af2e0ad1be6a723cc7005accbb74ef8c96486c1fdd022a93",
        "0722a31125cc5d11a1f4605058d57063631284340d3c19af16c728f61c142d1a",
    ),
    ("cga", "onemax", 24, "lru"): (
        "c7e0553878309bf5394bb76f63c550fceaf30892b0564d1dcb8640b98088c056",
        "927c4944151d12d814239c65783d64fcaf5793f2a65eeb4f199b894d4d71e11f",
    ),
    ("cga-t(s=3)", "onemax", 24, "fifo"): (
        "41b9b52e2fc6330a0d2b69b8102d5a3cdc9cdda60f0bf12a4d6c30477753df0a",
        "2529f306b233b03058b131c27520f70f5efa9daee2aae858573f90272bab23cc",
    ),
    ("cga-t(s=3)", "onemax", 24, "lru"): (
        "b7387910a6387ceb8c47b33931d48cde4190818f1ada442bb0539381b2778434",
        "e918a4e60645630f3a44bfd767d6f0d4ed1e6a46b1c8ab263e450e738df4eafd",
    ),
    ("cga-rr(m=3)", "onemax", 24, "fifo"): (
        "e4b0ebde9021d5c201c407a73034ab3b4b574e2a0f49141c4842d9d17ef1e5ef",
        "012c00a18cddf1f132a6d20b788b350efcfe19db86420fc7aaef0ffd9185bb55",
    ),
    ("cga-rr(m=3)", "onemax", 24, "lru"): (
        "6b152a16085a0a7efcae7b27ad833636d1c27786ab0759bf82b0b3f7a5e83e64",
        "76a8850cfc3bfe4ee79ec5729639b7702b105d3cc5bd855dc6d2838a8cef0c98",
    ),
    ("pe-cga", "onemax", 24, "fifo"): (
        "4812315ead2741215c66ca5e2969331619e071b1fbf887fc5393e4e7dcf54cab",
        "023c111c51e59bc5e8c6aac0427dbad0aab15be81a6592dcf82c56378c349ca8",
    ),
    ("pe-cga", "onemax", 24, "lru"): (
        "53b11d9d5597caa74656652d34c2906b508bb1579a6271208ee3ab47d15fde7e",
        "b05713cdaa1cae804dea68744072cc09398587e5f8b537e33f76e8744377345d",
    ),
    ("ne-cga(eta=auto)", "onemax", 24, "fifo"): (
        "25c6cb8acfef1fb4317990dc5d6ca75dd506b0f368c32a58e2086c20762e47e5",
        "e030314e5e0fcb858ee157e84004e7953faf0b9256cb99c5a9ea4fbb869a783a",
    ),
    ("ne-cga(eta=auto)", "onemax", 24, "lru"): (
        "d9ec0e2c70aca74daaf0610d2ff77fd627b8ed30fab684df28e7c35ab1e0e8c8",
        "d9c6c65edd01dadc7d87f9efc47ec4dcd83287f7db1abb18acabe1f91dae6734",
    ),
    ("ne-cga(eta=2)", "onemax", 24, "fifo"): (
        "2603398a2fcb536c4a40a59f39d9132db1fa1c7f0872c8fd1abe301a9a019d2b",
        "fd45524236a129dd01fb5bc9153b32ef6c26b547a51ff4ed921b987ddec1a899",
    ),
    ("ne-cga(eta=2)", "onemax", 24, "lru"): (
        "4f111051ac812fe65093f5402e26cfcf55e221c09c3ae2329a17865548cec88c",
        "bc0aa7622752b8109191c9f80eb4a077d96e0724e47520d2997ec6d47469d61d",
    ),
    # 4096 variates is one block, so every sample on both loops reads the stream ahead
    ("cga", "onemax", 4096, "fifo"): (
        "bb28063c43c7055a88c276e5febb8fe7472dcfe13243b6ce720d29c314cd1ead",
        "711d3c886beaeb2932decae306fa9e60c992e302e308d1cb34d398d149858853",
    ),
    ("pe-cga", "onemax", 4096, "fifo"): (
        "4c4fff5920dcdc9372b7d888b04a5c1b9f1d6ad322f686129ef1291af7ea4cc9",
        "644b24e742610f7102c2b6205ae0903e5c705ad36cd7be81da09ddd7ec6b9577",
    ),
    ("cga", "binint", 12, "lru"): (
        "826dc75a0e7bff08fa6d4de55841f8320036866116c0a1ad40c98cb38abe2553",
        "21fa6d97f9b3c11fce43029a20318c652d4b1d1daddab12394c2ac030441dd66",
    ),
    ("cga-t(s=3)", "binint", 12, "lru"): (
        "99ba83f3a7d206b7a6e361f5c7ae47db65556bfd446e9fe859537981bab48d46",
        "ac02d1afe6449a4167450fd8c3c2ae7d9fd804c1b99c0eaf2cdf58cfab033f67",
    ),
    ("cga-rr(m=3)", "binint", 12, "lru"): (
        "6b2f038528645a8508cdcb3883652f8acc03c58a35beda9df3d5fe37138810b2",
        "028bb2621a98098e775429927c26a483d98901ec3359e7d2af349adeae9b9f30",
    ),
    ("pe-cga", "binint", 12, "lru"): (
        "4f164562e7057f718a1c3eb2ee53ada3983eba89e61217b24e7f5242b474bb78",
        "810fb167ef0e841cdaf966c994d6ccd318b3d952ea332ace326421249f87db51",
    ),
    ("ne-cga(eta=auto)", "binint", 12, "lru"): (
        "db8211afa2fec10165a9efd29d7d00513783eb09e962ab04a8a1860993957e10",
        "81e01644238372ac4dfa50df9ed9e2ce02e290bd9457e3e02cfdd0c574a73379",
    ),
    ("ne-cga(eta=2)", "binint", 12, "lru"): (
        "9ef93137165db496b75fd9dddd06845f34fc4ca54694610a42e2ae2ee8de9c0e",
        "d66ea8f45f6d9f979e43a0ca7b0217212630b4217147eaec9438c31c599811d7",
    ),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda case: "-".join(map(str, case)))
def test_cli_csv_matches_recorded_digest(case, tmp_path):
    variant, problem, bits, policy = case
    out, trace = tmp_path / "results.csv", tmp_path / "runs.csv"
    argv = VARIANT_ARGS[variant] + [
        "--problem", problem, "--bits", str(bits), "--pop", "6,12", "--cache", "0,1,4",
        "--policy", policy, "--runs", "3", "--seed", "1",
        "--out", str(out), "--trace", str(trace),
    ]
    assert main(argv) == 0
    assert (sha256(out), sha256(trace)) == GOLDEN[case]
