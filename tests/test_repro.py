"""Protocol smoke tests: the recipe dispatcher, the tables it prints, and
the none-vs-SIGN arms."""

from dataclasses import replace

import pytest

from signreg import repro
from signreg.evalharness import TransferResult, evaluate
from signreg.nn import build_model, params_checksum
from signreg.sign import transform_dataset
from signreg.training import fit


def two_arm_result() -> TransferResult:
    """A transfer result whose two arms are untrained models of different seeds."""
    split = repro.blob_split(2, samples_per_class=6)
    meta = repro.mlp_meta(split)
    return TransferResult(transfer_report=evaluate(build_model(meta, seed=1), split.test),
                          control_report=evaluate(build_model(meta, seed=2), split.test))


class TestRecipeDispatch:
    def test_unknown_recipe_raises(self):
        with pytest.raises(ValueError, match="unknown recipe"):
            repro.run_recipe("nonsense")

    def test_recipe_names_cover_protocols(self):
        assert set(repro.RECIPES) == {"classify", "uncertainty", "robustness",
                                      "ood", "transfer", "delta-only"}

    def test_classify_recipe_prints_table(self, capsys):
        lines = []
        repro.print_classify(repro.run_classify(seed=3, epochs=4, samples_per_class=15),
                             out=lines.append)
        assert lines[0].split()[0] == "method"
        assert [line.split()[0] for line in lines[1:]] == ["none", "mixup", "sign"]

    def test_transfer_table_has_one_row_per_arm(self):
        result = two_arm_result()
        lines = []
        repro.print_transfer(result, out=lines.append)
        assert lines[0].split() == ["arm", "class0", "class1", "class2", "mean"]
        assert [line.split()[0] for line in lines[1:]] == ["control", "transfer"]
        for line, report in zip(lines[1:], (result.control_report, result.transfer_report)):
            accuracies = [row.accuracy for row in report.per_class] + [report.mean_accuracy]
            assert line.split()[1:] == [f"{value:.4f}" for value in accuracies]


    def test_transfer_recipe_prints_its_protocol_result(self, monkeypatch):
        # run_recipe looks each protocol up by its module-level name when it
        # runs, so a replaced repro.run_transfer is the one called
        result = two_arm_result()
        seeds = []
        monkeypatch.setattr(repro, "run_transfer", lambda seed: seeds.append(seed) or result)
        lines, want = [], []
        assert repro.run_recipe("transfer", seed=5, out=lines.append) == 0
        repro.print_transfer(result, out=want.append)
        assert seeds == [5] and lines == want


class TestNoneVsSign:
    def test_arms_are_plain_fit_and_sign_fit_at_the_same_seed(self):
        split = repro.blob_split(4, samples_per_class=12)
        meta = repro.mlp_meta(split)
        base = repro._base_cfg(4, epochs=2)
        cfgs = repro.desk_sign_cfgs((2,))
        arms = repro.none_vs_sign(split, meta, base, cfgs, lambda model: model)
        plain, _ = fit(meta, split, base)
        assert params_checksum(arms["none"].params) == params_checksum(plain.params)
        augmented = replace(split, train=transform_dataset(plain, split.train, cfgs))
        final, _ = fit(meta, augmented, replace(base, strategy="sign"))
        assert params_checksum(arms["sign"].params) == params_checksum(final.params)
