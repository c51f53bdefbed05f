"""End-to-end runs of the command-line entry point.

Each test drives `main` with a temp directory, then inspects the files it
wrote. Nothing here shells out; `main` returns the exit code directly.
"""

import hashlib
import json

import numpy as np
import pytest

from ratiomarker.cli import main
from ratiomarker.composition import StrictlyPositiveMatrix, clr_transform
from ratiomarker.learn.biomarker import load_model, predict
from ratiomarker.tabular import read_config, read_matrix, read_outcome_pairs


def run(*argv):
    return main(list(argv))


def read_plain_table(path):
    lines = path.read_text().splitlines()
    cols = lines[0].split("\t")[1:]
    ids = [line.split("\t")[0] for line in lines[1:]]
    values = np.array(
        [[float(c) for c in line.split("\t")[1:]] for line in lines[1:]]
    )
    return ids, cols, values


def as_positive(matrix):
    return StrictlyPositiveMatrix(
        matrix.values, matrix.sample_ids, matrix.feature_ids
    )


def simulate_into(tmp_path, name="sim", **overrides):
    out = tmp_path / name
    argv = ["simulate", "--out-dir", str(out)]
    for key, value in overrides.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    assert run(*argv) == 0
    return out


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            run("--version")
        assert info.value.code == 0

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            run("frobnicate")
        assert info.value.code == 2

    def test_bad_flag_choice(self, capsys):
        with pytest.raises(SystemExit) as info:
            run("transform", "--transform", "alr")
        assert info.value.code == 2


class TestTransform:
    def test_clr_output_matches_library(self, tmp_path):
        sim = simulate_into(tmp_path, n_samples=20, n_features=8)
        out = tmp_path / "t"
        rc = run(
            "transform",
            "--matrix", str(sim / "observed.tsv"),
            "--out-dir", str(out),
        )
        assert rc == 0
        ids, _, got = read_plain_table(out / "clr.tsv")
        source = read_matrix(sim / "observed.tsv")
        np.testing.assert_allclose(
            got, clr_transform(as_positive(source)), rtol=1e-12
        )
        assert ids == source.sample_ids
        assert (out / "removed_features.txt").read_text() == ""

    def test_pairwise_labels(self, tmp_path):
        sim = simulate_into(tmp_path, n_samples=10, n_features=5)
        out = tmp_path / "t"
        rc = run(
            "transform",
            "--matrix", str(sim / "observed.tsv"),
            "--transform", "pairwise",
            "--out-dir", str(out),
        )
        assert rc == 0
        header = (out / "pairwise.tsv").read_text().splitlines()[0]
        cols = header.split("\t")[1:]
        assert len(cols) == 10
        assert cols[0] == "g1/g2"
        assert cols[-1] == "g4/g5"

    def test_proportions_rows_sum_to_one(self, tmp_path):
        sim = simulate_into(tmp_path, n_samples=10, n_features=5)
        out = tmp_path / "t"
        rc = run(
            "transform",
            "--matrix", str(sim / "observed.tsv"),
            "--transform", "prop",
            "--out-dir", str(out),
        )
        assert rc == 0
        props = read_matrix(out / "proportions.tsv")
        np.testing.assert_allclose(props.values.sum(axis=1), 1.0, rtol=1e-12)

    def test_manifest_contents(self, tmp_path):
        sim = simulate_into(tmp_path, n_samples=10, n_features=5)
        matrix_path = sim / "observed.tsv"
        out = tmp_path / "t"
        assert run("transform", "--matrix", str(matrix_path), "--out-dir", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "ratiomarker"
        assert manifest["command"] == "transform"
        assert manifest["config"]["transform"] == "clr"
        assert manifest["config"]["seed"] == 0
        want_digest = hashlib.sha256(matrix_path.read_bytes()).hexdigest()
        assert manifest["inputs"][str(matrix_path)] == want_digest
        assert manifest["wall_seconds"] > 0
        for name in manifest["outputs"]:
            assert (out / name).is_file()
        on_disk = {p.name for p in out.iterdir()}
        assert on_disk == set(manifest["outputs"]) | {"manifest.json"}


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        rc = run(
            "transform",
            "--matrix", str(tmp_path / "nope.tsv"),
            "--out-dir", str(tmp_path / "o"),
        )
        assert rc == 3

    def test_missing_required_flag(self, tmp_path):
        assert run("transform", "--out-dir", str(tmp_path / "o")) == 3

    def test_malformed_matrix(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("sample_id\tg1\tg2\ns1\t1.0\tpotato\n")
        rc = run("transform", "--matrix", str(bad), "--out-dir", str(tmp_path / "o"))
        assert rc == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bogus_option=3\n")
        rc = run("transform", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
        assert rc == 3

    def test_config_file_missing(self, tmp_path):
        rc = run(
            "transform",
            "--config", str(tmp_path / "absent.cfg"),
            "--out-dir", str(tmp_path / "o"),
        )
        assert rc == 3

    def run_with_config(self, tmp_path, command, text):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        return run(command, "--config", str(cfg), "--out-dir", str(tmp_path / "o"))

    def test_config_value_not_an_integer(self, tmp_path, capsys):
        assert self.run_with_config(tmp_path, "transform", "seed=abc\n") == 2
        assert "seed='abc'" in capsys.readouterr().err

    def test_config_fraction_for_an_integer_option(self, tmp_path, capsys):
        assert self.run_with_config(tmp_path, "benchmark", "n_samples=2.5\n") == 2
        assert "n_samples='2.5'" in capsys.readouterr().err

    def test_config_none_only_clears_options_that_default_to_none(self, tmp_path):
        assert self.run_with_config(tmp_path, "simulate", "seed=none\n") == 2

    def test_config_value_outside_choices(self, tmp_path):
        assert self.run_with_config(tmp_path, "transform", "transform=alr\n") == 3


# Small runs of every subcommand whose manifests are replayed as --config.
# Together they set int, float, bool (--synthetic), nullable float
# (--mutation-rate) and input-path options away from their defaults.
REPLAY_ARGS = {
    "transform": [
        "--matrix", "{sim}/observed.tsv",
        "--transform", "pairwise",
        "--zero-replacement", "none",
    ],
    "daa": [
        "--matrix", "{sim}/observed.tsv",
        "--outcome", "{sim}/outcome.tsv",
        "--transform", "prop",
        "--alpha", "0.1",
    ],
    "ratios": [
        "--matrix", "{sim}/observed.tsv",
        "--outcome", "{sim}/outcome.tsv",
        "--max-features", "50",
        "--link", "logistic",
        "--max-zero-fraction", "0.4",
    ],
    "learn": [
        "--matrix", "{sim}/observed.tsv",
        "--outcome", "{sim}/outcome.tsv",
        "--test-matrix", "{sim}/observed.tsv",
        "--test-outcome", "{sim}/outcome.tsv",
        "--learner", "evolutionary",
        "--mode", "slr",
        "--population", "8",
        "--generations", "3",
        "--mutation-rate", "0.25",
        "--cv-folds", "3",
        "--seed", "4",
    ],
    "simulate": [
        "--n-samples", "20",
        "--n-features", "6",
        "--effect", "1.5",
        "--seed", "5",
    ],
    "approx": [
        "--matrix", "{sim}/observed.tsv",
        "--matrix2", "{sim2}/observed.tsv",
        "--latent", "nn",
        "--lambda", "0.5",
        "--epochs", "50",
        "--nn-epochs", "30",
        "--nn-learning-rate", "0.02",
        "--hidden-units", "4",
        "--cv-folds", "3",
    ],
    "benchmark": [
        "--synthetic",
        "--n-samples", "30",
        "--g-t", "6",
        "--g-u", "8",
        "--epochs", "40",
        "--nn-epochs", "20",
        "--hidden-units", "4",
        "--cv-folds", "3",
    ],
}


class TestConfigPrecedence:
    def test_file_beats_default_and_flag_beats_file(self, tmp_path):
        sim = simulate_into(tmp_path, n_samples=10, n_features=5)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"matrix={sim / 'observed.tsv'}\ntransform=prop\n"
        )
        out1 = tmp_path / "from-file"
        assert run("transform", "--config", str(cfg), "--out-dir", str(out1)) == 0
        assert (out1 / "proportions.tsv").is_file()

        out2 = tmp_path / "flag-wins"
        rc = run(
            "transform",
            "--config", str(cfg),
            "--transform", "clr",
            "--out-dir", str(out2),
        )
        assert rc == 0
        assert (out2 / "clr.tsv").is_file()
        assert not (out2 / "proportions.tsv").exists()

    @pytest.mark.parametrize("command", list(REPLAY_ARGS))
    def test_manifest_reruns_identically(self, tmp_path, command):
        sim = simulate_into(tmp_path, n_samples=24, n_features=6, seed=1)
        sim2 = simulate_into(tmp_path, "sim2", n_samples=24, n_features=5, seed=2)
        argv = [arg.format(sim=sim, sim2=sim2) for arg in REPLAY_ARGS[command]]
        out1 = tmp_path / "first"
        assert run(command, *argv, "--out-dir", str(out1)) == 0
        out2 = tmp_path / "second"
        rc = run(
            command,
            "--config", str(out1 / "manifest.json"),
            "--out-dir", str(out2),
        )
        assert rc == 0
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]
        for name in m1["outputs"]:
            assert (out2 / name).read_bytes() == (out1 / name).read_bytes(), name
        c1 = dict(m1["config"])
        c2 = dict(m2["config"])
        c1.pop("out_dir")
        c2.pop("out_dir")
        assert c1 == c2


class TestSimulate:
    def test_planted_outputs(self, tmp_path):
        out = simulate_into(tmp_path, n_samples=30, n_features=10, seed=4)
        for name in (
            "true.tsv",
            "observed.tsv",
            "outcome.tsv",
            "da_report.tsv",
            "scenario.cfg",
            "manifest.json",
        ):
            assert (out / name).is_file()
        scenario = read_config(out / "scenario.cfg")
        assert scenario["preset"] == "planted"
        assert scenario["planted_numerator"] != scenario["planted_denominator"]
        ids, values = read_outcome_pairs(out / "outcome.tsv")
        assert len(ids) == 30
        assert set(values) == {0.0, 1.0}

    def test_depth_confounded_report(self, tmp_path):
        out = tmp_path / "d"
        assert run("simulate", "--preset", "depth_confounded", "--out-dir", str(out)) == 0
        lines = (out / "da_report.tsv").read_text().splitlines()
        assert lines[0] == "feature_id\tabsolute\trelative\tpresential"
        rows = {line.split("\t")[0]: line.split("\t")[1:] for line in lines[1:]}
        assert rows["a"][0] == "1"
        assert rows["a"][1] == "-1"

    def test_deterministic_given_seed(self, tmp_path):
        a = simulate_into(tmp_path, name="a", n_samples=12, n_features=6, seed=9)
        b = simulate_into(tmp_path, name="b", n_samples=12, n_features=6, seed=9)
        assert (a / "observed.tsv").read_bytes() == (b / "observed.tsv").read_bytes()


class TestLearn:
    def learn_from(self, tmp_path, sim, out_name, *extra):
        out = tmp_path / out_name
        rc = run(
            "learn",
            "--matrix", str(sim / "observed.tsv"),
            "--outcome", str(sim / "outcome.tsv"),
            "--out-dir", str(out),
            *extra,
        )
        assert rc == 0
        return out

    def test_stepwise_recovers_planted_pair(self, tmp_path):
        sim = simulate_into(tmp_path, n_samples=100, n_features=20, seed=0)
        out = self.learn_from(tmp_path, sim, "learned")
        metrics = json.loads((out / "metrics.json").read_text())
        scenario = read_config(sim / "scenario.cfg")
        got = {
            frozenset(metrics["numerator_features"]),
            frozenset(metrics["denominator_features"]),
        }
        want = {
            frozenset([scenario["planted_numerator"]]),
            frozenset([scenario["planted_denominator"]]),
        }
        assert got == want
        assert metrics["cv_score"] >= 0.8
        assert metrics["train_score"] >= 0.8
        assert metrics["beta"] >= 0.0

    def test_model_file_round_trips(self, tmp_path):
        sim = simulate_into(tmp_path, n_samples=60, n_features=12, seed=1)
        out = self.learn_from(
            tmp_path,
            sim,
            "learned",
            "--test-matrix", str(sim / "observed.tsv"),
            "--test-outcome", str(sim / "outcome.tsv"),
        )
        model = load_model((out / "model.json").read_text())
        matrix = as_positive(read_matrix(sim / "observed.tsv"))
        scores = predict(model, matrix)
        _, written = read_outcome_pairs(out / "test_predictions.tsv")
        np.testing.assert_array_equal(scores, written)

    def test_deterministic_given_seed(self, tmp_path):
        sim = simulate_into(tmp_path, n_samples=60, n_features=12, seed=2)
        out1 = self.learn_from(tmp_path, sim, "m1", "--learner", "relaxed")
        out2 = self.learn_from(tmp_path, sim, "m2", "--learner", "relaxed")
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()

    def test_heldout_scoring(self, tmp_path):
        sim = simulate_into(tmp_path, n_samples=80, n_features=12, seed=3)
        out = self.learn_from(
            tmp_path,
            sim,
            "learned",
            "--test-matrix", str(sim / "observed.tsv"),
            "--test-outcome", str(sim / "outcome.tsv"),
        )
        metrics = json.loads((out / "metrics.json").read_text())
        np.testing.assert_allclose(metrics["test_score"], metrics["train_score"])
        assert (out / "test_predictions.tsv").is_file()

    def test_learner_mode_mismatch(self, tmp_path):
        sim = simulate_into(tmp_path, n_samples=30, n_features=8)
        rc = run(
            "learn",
            "--matrix", str(sim / "observed.tsv"),
            "--outcome", str(sim / "outcome.tsv"),
            "--learner", "stepwise",
            "--mode", "slr",
            "--out-dir", str(tmp_path / "o"),
        )
        assert rc == 3


class TestDaaAndRatios:
    def test_daa_outputs(self, tmp_path):
        sim = simulate_into(tmp_path, n_samples=80, n_features=10, seed=5)
        out = tmp_path / "daa"
        rc = run(
            "daa",
            "--matrix", str(sim / "observed.tsv"),
            "--outcome", str(sim / "outcome.tsv"),
            "--out-dir", str(out),
        )
        assert rc == 0
        lines = (out / "daa.tsv").read_text().splitlines()
        assert lines[0] == "feature_id\tbeta\tp_value\tp_adjusted\tnote"
        assert len(lines) == 11
        summary = json.loads((out / "daa.json").read_text())
        assert summary["n_features"] == 10
        assert 0 <= summary["n_significant"] <= 10
        assert summary["notion"] == "clr"

    def test_ratio_outputs(self, tmp_path):
        sim = simulate_into(tmp_path, n_samples=80, n_features=8, seed=6)
        out = tmp_path / "ratios"
        rc = run(
            "ratios",
            "--matrix", str(sim / "observed.tsv"),
            "--outcome", str(sim / "outcome.tsv"),
            "--out-dir", str(out),
        )
        assert rc == 0
        lines = (out / "ratios.tsv").read_text().splitlines()
        assert len(lines) == 1 + 28
        attr = (out / "attribution.tsv").read_text().splitlines()
        assert len(attr) == 1 + 8
        summary = json.loads((out / "ratios.json").read_text())
        assert summary["n_ratios"] == 28
        # The planted pair should carry the strongest per-feature signal.
        scenario = read_config(sim / "scenario.cfg")
        top2 = set(summary["top_features"][:2])
        assert top2 == {
            scenario["planted_numerator"],
            scenario["planted_denominator"],
        }

    def test_ratio_feature_cap(self, tmp_path):
        sim = simulate_into(tmp_path, n_samples=30, n_features=12)
        rc = run(
            "ratios",
            "--matrix", str(sim / "observed.tsv"),
            "--outcome", str(sim / "outcome.tsv"),
            "--max-features", "10",
            "--out-dir", str(tmp_path / "o"),
        )
        assert rc == 3


class TestApproxAndBenchmark:
    def test_pca_approx(self, tmp_path):
        sim = simulate_into(tmp_path, n_samples=60, n_features=12, seed=7)
        out = tmp_path / "approx"
        rc = run(
            "approx",
            "--matrix", str(sim / "observed.tsv"),
            "--epochs", "300",
            "--cv-folds", "3",
            "--out-dir", str(out),
        )
        assert rc == 0
        summary = json.loads((out / "approx.json").read_text())
        assert summary["latent_method"] == "pca"
        assert 0 < summary["active_features"] <= summary["total_features"]
        assert summary["total_features"] == 12
        assert 0.0 < summary["sparsity"] <= 1.0
        # Latent scores are centered, so this file is a score listing, not
        # a readable outcome file.
        lines = (out / "latent.tsv").read_text().splitlines()
        assert len(lines) == 60
        assert all(len(line.split("\t")) == 2 for line in lines)
        model = load_model((out / "model.json").read_text())
        assert model.biomarker.mode == "balance"

    def test_synthetic_benchmark(self, tmp_path):
        out = tmp_path / "bench"
        rc = run(
            "benchmark",
            "--synthetic",
            "--n-samples", "50",
            "--g-t", "10",
            "--g-u", "12",
            "--epochs", "200",
            "--cv-folds", "3",
            "--nn-epochs", "150",
            "--hidden-units", "8",
            "--out-dir", str(out),
        )
        assert rc == 0
        rows = json.loads((out / "benchmark.json").read_text())["rows"]
        assert len(rows) == 12
        assert all(r["error"] == "" for r in rows)
        table = (out / "benchmark.tsv").read_text()
        assert len(table.splitlines()) == 13

    def test_benchmark_requires_matrices_without_synthetic(self, tmp_path):
        assert run("benchmark", "--out-dir", str(tmp_path / "o")) == 3
