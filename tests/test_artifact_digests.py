"""The byte-identity contract: a seed's artifacts hash to pinned digests.

The digests were taken before the flat parameter state replaced the
per-hole distribution objects in the training loop, so any refactor that
changes a single bit of a CSV log, decoded program, params snapshot or
``summary.csv`` fails here.  They hold only at the SIMD level of the CPU
they were taken on: x86-64 with AVX-512, where NumPy 2.4 runs its
AVX-512 ``exp`` and ``log`` loops and OpenBLAS its SkylakeX gemv.  An
AVX2-only CPU gets other last bits from both (``OPENBLAS_CORETYPE=Haswell``
alone fails three cases), and so would a change of libm, NumPy or
OpenBLAS; a re-pin would be stated as such.
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


# a sweep of eight cells (two arms, two learning rates, two seeds) trained
# in one batch; these digests were taken before the cells were batched,
# when each cell trained on its own, one after another
SWEEP_DIGESTS = {
    "nes_lr0.001_seed1.csv":
        "0bace7ffe4253e9d7f17f866f7878cf6673ad9e9f2518eb709dd8451bf1eb308",
    "nes_lr0.001_seed1_params.json":
        "ffd71cefc0a11f840b4e5f75b0c7cf37e6b6cb2c8ef09d227688402e89e81508",
    "nes_lr0.001_seed1_program.txt":
        "9b6caaffb5b9402d73f89f7c974384277adcde42e7af0f1819305435dd9a5d30",
    "nes_lr0.001_seed2.csv":
        "a3247fbb656faefc8b3d086bfa4cd12221a6a499c7f0829d2f27096e028cfd0c",
    "nes_lr0.001_seed2_params.json":
        "f6ab3ce6d335e5b9b66064d5ec9960004dd255a06cc9fdafe0345a6eb6ba846e",
    "nes_lr0.001_seed2_program.txt":
        "dfa0db0dc1e6ba58740b8189d4d9f4bd21349b9878d463317c7b7a136a3938f9",
    "nes_lr0.1_seed1.csv":
        "f46e8d409a23ea5efe32315c951769bc9203a30e97e82724a7ff6ce101af9786",
    "nes_lr0.1_seed1_params.json":
        "b8035f48651f3e08fe7ba48815459583cc2bc637a87f304e7180fc82ef234675",
    "nes_lr0.1_seed1_program.txt":
        "10d8acfa090627c20a2f29651f7bc4c4d187ac40509ab5928b536f5d394028aa",
    "nes_lr0.1_seed2.csv":
        "5d671482129457cd3a68cb27d318b14332f11e6efb58a2d21c2d6d5ede319535",
    "nes_lr0.1_seed2_params.json":
        "80e68cc35ef484a8dadc46ba5bcb4d37fb72d0147352f55776a8551ee0d0f0df",
    "nes_lr0.1_seed2_program.txt":
        "65f5b2d28693cb76b29e55a6daacce1d6ca6c1e11cbad4d617ce5ae47ee82012",
    "sg_lr0.001_seed1.csv":
        "bb056dca85b08bdeb19bea4fbf190b29091a5b451c3886a7baf18428f7ee1847",
    "sg_lr0.001_seed1_params.json":
        "08778ac2f36b0c4cf807fbecc943f687f522effae1b60d85fcac7b7ebeb66c5b",
    "sg_lr0.001_seed1_program.txt":
        "9b6caaffb5b9402d73f89f7c974384277adcde42e7af0f1819305435dd9a5d30",
    "sg_lr0.001_seed2.csv":
        "8d23ce4f8abfee164fbb9f8c385c15f1042891ec1ab5fc4030bad0e1d3f3890b",
    "sg_lr0.001_seed2_params.json":
        "81525386398a4c0970d1c942741d748fac3e009f7cca9056a4ee0f6a2cc997ae",
    "sg_lr0.001_seed2_program.txt":
        "dfa0db0dc1e6ba58740b8189d4d9f4bd21349b9878d463317c7b7a136a3938f9",
    "sg_lr0.1_seed1.csv":
        "323ea906200190464586813213d0d950dad225829ebdb5022c5d364dfe961531",
    "sg_lr0.1_seed1_params.json":
        "9c85c86544c91a9c5b90985c0672cc5a2084b923c81626d21ed70405d994ceeb",
    "sg_lr0.1_seed1_program.txt":
        "eedb8674c958654c014197c758b3aaef809a9a9c81f625c657be2056d549cc00",
    "sg_lr0.1_seed2.csv":
        "d22014a8662b7066fa4750e71e9148ab6e066c161923761e20522f4f19da6c9a",
    "sg_lr0.1_seed2_params.json":
        "c7235d5ed5acf33bca9896533119178053918c9890dade28e605e9737513ce9c",
    "sg_lr0.1_seed2_program.txt":
        "3e325bcdbc5afc7afcc1100999d613ce53af3b41673bf0c096c6ab491da5d16a",
    "summary.csv":
        "ad656e72be68ac41ec926e1e7696fd5e9c26d9673f40369f4d8b92943a6c3f1d",
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


def _run_ablation_sweep(out):
    results = harness.run_ablation((1, 2), str(out),
                                   config=TrainConfig(iterations=300),
                                   learning_rates=(0.1, 0.001),
                                   arms=("nes", "sg"))
    harness.emit_summary(results, str(out / "summary.csv"))


@pytest.mark.parametrize("run,expected", [
    (_run_main, MAIN_DIGESTS),
    (_run_ablation_cell, ABLATION_DIGESTS),
    (_run_ablation_sweep, SWEEP_DIGESTS),
], ids=["run-main-seed1", "ablation-sg-lr0.05-seed1",
        "ablation-sweep-8-cells"])
def test_artifacts_match_pinned_digests(tmp_path, run, expected):
    run(tmp_path)
    assert _digests(tmp_path) == expected
