"""The byte-identity contract: a seed's artifacts hash to pinned digests.

The digests were taken before the flat parameter state replaced the
per-hole distribution objects in the training loop, so any refactor that
changes a single bit of a CSV log, decoded program, params snapshot or
``summary.csv`` fails here.  They hold for the float behaviour of the
platform they were taken on (x86-64, NumPy 2.4); a change of libm or
NumPy that moves the last bit of ``exp`` or ``log`` would need a re-pin,
stated as such.
"""

import hashlib

import pytest

from disnes import harness
from disnes.optimizer import TrainConfig

MAIN_DIGESTS = {
    "nes_lr0.1_seed1.csv":
        "0060edb2675f9b932f389a4a9e648052feb2ad748e42e5cbc19efc08e1e25400",
    "nes_lr0.1_seed1_params.json":
        "956849c839e29a0593ff4e83a3ebff8812771ad45ca7575d16b94ec79b230aff",
    "nes_lr0.1_seed1_program.txt":
        "50b868a9a9ea6346bb9f063a751ea47865b3a37606ee18bd36b1dd47450223e9",
    "summary.csv":
        "5945a37de376cd82bc17a70a85f5cc6a5c4180679fec06593be75e6b3e622c98",
    "vo_lr0.1_seed1.csv":
        "05a533cda5d10126f9f99fd21c642bf17c673f757d051654c6aa5ca167b299ff",
    "vo_lr0.1_seed1_params.json":
        "31bed0164d960c2e9e2d58511057b4bf59e29383d862beb80b8755daa9bb43e5",
    "vo_lr0.1_seed1_program.txt":
        "d32960f8d7ec699ab33fab0335108da1ac7dbef9cdb99fec998b1cde37781a73",
}

# one cell of the ablation sweep: the sg arm, so the search kind is pinned
# too (the main arms pin the natural and vo kinds)
ABLATION_DIGESTS = {
    "sg_lr0.05_seed1.csv":
        "750bfa4d2faa328446713eadd88fe99c795a62f061764db95277ec9d9a81c3f1",
    "sg_lr0.05_seed1_params.json":
        "45e832afe579024d5c771c518a78b7d68224979cc24a17499247167629e38b28",
    "sg_lr0.05_seed1_program.txt":
        "27709698d08a0cbabf016901a905aeab8c228c545f72368ae142c041c815cf84",
    "summary.csv":
        "e8fe5de61f7e47df4824e2b35d7eba2bbca30417d6705fb0d4b71798be3b273c",
}


def _digests(out_dir):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())
            if path.name != "config.txt"}  # config.txt echoes out_dir


def _run_main(out):
    results = harness.run_main(1, str(out), config=TrainConfig(iterations=300))
    harness.emit_summary(results, str(out / "summary.csv"))


def _run_ablation_cell(out):
    results = harness.run_ablation((1,), str(out),
                                   config=TrainConfig(iterations=300),
                                   learning_rates=(0.05,), arms=("sg",))
    harness.emit_summary(results, str(out / "summary.csv"))


@pytest.mark.parametrize("run,expected", [
    (_run_main, MAIN_DIGESTS),
    (_run_ablation_cell, ABLATION_DIGESTS),
], ids=["run-main-seed1", "ablation-sg-lr0.05-seed1"])
def test_artifacts_match_pinned_digests(tmp_path, run, expected):
    run(tmp_path)
    assert _digests(tmp_path) == expected
