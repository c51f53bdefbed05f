"""End-to-end runs of the command-line entry point.

Each test drives `main` with a temp directory, then inspects the files it
wrote. Nothing here shells out; `main` returns the exit code directly.
"""

import hashlib
import inspect
import json
import multiprocessing
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import fit_glm_by_column, two_equal_factor_pair

from ratiomarker import cli, composition, glm, parallel, tabular
from ratiomarker.cli import _COMMANDS, main
from ratiomarker.composition import (
    CompositionMatrix,
    StrictlyPositiveMatrix,
    ZeroPolicy,
    apply_zero_policy,
    clr_transform,
    pairwise_logratios,
)
from ratiomarker.learn.biomarker import load_model, predict
from ratiomarker.tabular import (
    read_config,
    read_matrix,
    read_outcome_pairs,
    write_matrix,
    write_outcome,
    write_table,
)


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

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            run("--help")
        assert info.value.code == 0
        text = capsys.readouterr().out
        for command, (help_text, *_) in _COMMANDS.items():
            assert command in text
            assert help_text.split()[0] in text

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_command_help_lists_every_option(self, capsys, command):
        # The parser declares only the invoked command's options; those
        # must all be there.
        with pytest.raises(SystemExit) as info:
            run(command, "--help")
        assert info.value.code == 0
        text = capsys.readouterr().out
        for opt in ("--config", *(o.flag for o in _COMMANDS[command][3])):
            assert f"{opt} " in text or f"{opt}\n" in text

    def test_an_option_of_another_command_is_a_parse_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run("learn", "--transform", "clr")
        assert info.value.code == 2
        assert "unrecognized arguments: --transform clr" in capsys.readouterr().err


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
        # Rows are built one at a time, with the bits of the whole table.
        positive, _ = apply_zero_policy(read_matrix(sim / "observed.tsv"))
        ratios, _ = pairwise_logratios(positive)
        write_table(tmp_path / "whole.tsv", positive.sample_ids, cols, ratios)
        assert (out / "pairwise.tsv").read_bytes() == (
            tmp_path / "whole.tsv"
        ).read_bytes()

    # G = 6 gives 15 ratios a row. 45 values make blocks of three rows,
    # the last one short; 8 values are fewer than one row holds.
    @pytest.mark.parametrize(
        "n_samples, block_elements",
        [(1, 45), (10, 45), (4, 8)],
        ids=["one-row", "short-last-block", "row-wider-than-block"],
    )
    def test_pairwise_bytes_equal_the_serial_run(
        self, tmp_path, cpus, monkeypatch, n_samples, block_elements
    ):
        rng = np.random.default_rng(n_samples)
        values = np.exp(rng.normal(0.0, 1.0, (n_samples, 6)))
        ids = [f"s{i + 1}" for i in range(n_samples)]
        matrix = tmp_path / "m.tsv"
        matrix.write_text(
            "sample_id\t" + "\t".join(f"g{j + 1}" for j in range(6)) + "\n"
            + "".join(
                "\t".join([sid, *map(repr, row.tolist())]) + "\n"
                for sid, row in zip(ids, values)
            )
        )
        monkeypatch.setattr(composition, "_BLOCK_ELEMENTS", block_elements)
        outputs = []
        for count in (cpus, 1):
            monkeypatch.setattr(parallel, "_cpu_count", lambda: count)
            out = tmp_path / f"cpus{count}-{len(outputs)}"
            rc = run(
                "transform",
                "--matrix", str(matrix),
                "--transform", "pairwise",
                "--out-dir", str(out),
            )
            assert rc == 0
            outputs.append((out / "pairwise.tsv").read_bytes())
        assert outputs[0] == outputs[1]
        ratios, pairs = pairwise_logratios(
            StrictlyPositiveMatrix(values, ids, [f"g{j + 1}" for j in range(6)])
        )
        expected = "sample_id\t" + "\t".join(
            f"g{j + 1}/g{k + 1}" for j, k in pairs
        ) + "\n" + "".join(
            "\t".join([sid, *map(repr, row.tolist())]) + "\n"
            for sid, row in zip(ids, ratios)
        )
        assert outputs[0].decode() == expected
        assert multiprocessing.active_children() == []

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

    def test_tab_in_a_comma_delimited_cell(self, tmp_path, capsys):
        # Read as one cell, "s<TAB>1" would make clr.tsv a ragged table.
        bad = tmp_path / "bad.csv"
        bad.write_text("sample_id,g1,g2,g3\ns\t1,1.0,2.0,3.0\ns2,2.0,1.0,4.0\n")
        rc = run("transform", "--matrix", str(bad), "--out-dir", str(tmp_path / "o"))
        assert rc == 2
        assert "row 2, column 1: tab in a cell" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_tab_in_a_first_row_cell(self, tmp_path, capsys):
        # The tab does not make the file tab-delimited; row 1 is named.
        bad = tmp_path / "bad.csv"
        bad.write_text("sample\tid,g1,g2\ns1,1.0,2.0\ns2,2.0,1.0\n")
        rc = run("transform", "--matrix", str(bad), "--out-dir", str(tmp_path / "o"))
        assert rc == 2
        assert "row 1, column 1: tab in a cell" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bogus_option=3\n")
        rc = run("transform", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
        assert rc == 3

    @pytest.mark.parametrize("sub", ["", "x"])
    def test_out_dir_that_cannot_be_made(self, tmp_path, capsys, sub):
        # A file where the directory, or one of its parents, should be.
        taken = tmp_path / "afile"
        taken.write_text("")
        out_dir = taken / sub if sub else taken
        assert run("simulate", "--out-dir", str(out_dir)) == 3
        assert f"--out-dir {out_dir}: " in capsys.readouterr().err
        assert taken.read_text() == ""

    def test_output_that_cannot_be_written(self, tmp_path, capsys):
        # A directory where model.json should go: the rename fails, which
        # is a precondition failure naming the file, and no temp file stays.
        sim = simulate_into(tmp_path, n_samples=40, n_features=6, seed=3)
        out = tmp_path / "out"
        (out / "model.json").mkdir(parents=True)
        rc = run(
            "learn",
            "--matrix", str(sim / "observed.tsv"),
            "--outcome", str(sim / "outcome.tsv"),
            "--out-dir", str(out),
        )
        assert rc == 3
        assert "model.json" in capsys.readouterr().err
        assert list(out.glob("*.tmp")) == []
        assert [p.name for p in out.iterdir()] == ["model.json"]

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

    @pytest.mark.parametrize("command", ["daa", "ratios"])
    def test_the_outcome_decides_the_link(self, tmp_path, capsys, command):
        # No flag sets the link, and a config key naming it, as manifests
        # written with a --link option hold, is rejected.
        with pytest.raises(SystemExit) as info:
            run(command, "--link", "identity")
        assert info.value.code == 2
        capsys.readouterr()
        assert self.run_with_config(tmp_path, command, "link=auto\n") == 3
        self.assert_one_line_error(
            capsys, f"config key 'link' is not an option of {command!r}"
        )

    def assert_one_line_error(self, capsys, *parts):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert all(part in err for part in parts), err

    def test_malformed_json_config(self, tmp_path, capsys):
        assert self.run_with_config(tmp_path, "transform", '{"seed": 1,') == 2
        self.assert_one_line_error(capsys, "c.cfg", "invalid JSON")

    @pytest.mark.parametrize("name", ["matrix", "outcome", "config"])
    def test_input_that_is_not_utf8(self, tmp_path, capsys, name):
        sim = simulate_into(tmp_path, n_samples=24, n_features=6)
        paths = {
            "matrix": sim / "observed.tsv",
            "outcome": sim / "outcome.tsv",
            "config": tmp_path / "c.cfg",
        }
        paths["config"].write_text("alpha=0.1\n")
        bad = paths[name]
        bad.write_bytes(b"\xff\xfe" + bad.read_bytes())
        capsys.readouterr()
        rc = run(
            "ratios",
            "--matrix", str(paths["matrix"]),
            "--outcome", str(paths["outcome"]),
            "--config", str(paths["config"]),
            "--out-dir", str(tmp_path / "o"),
        )
        assert rc == 2
        self.assert_one_line_error(capsys, str(bad), "not UTF-8")

    def run_on_simulated(self, tmp_path, command, *argv):
        sim = simulate_into(tmp_path, n_samples=24, n_features=6)
        return run(
            command,
            "--matrix", str(sim / "observed.tsv"),
            "--outcome", str(sim / "outcome.tsv"),
            "--out-dir", str(tmp_path / "o"),
            *argv,
        )

    def test_negative_standard_deviation(self, tmp_path, capsys):
        assert run("simulate", "--log-sd", "-1", "--out-dir", str(tmp_path)) == 3
        assert "log_sd must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["transform", "daa", "ratios"])
    def test_seed_of_a_command_that_draws_no_random_numbers(self, tmp_path, capsys, command):
        sim = simulate_into(tmp_path, n_samples=24, n_features=6)
        inputs = ["--matrix", str(sim / "observed.tsv")]
        if command != "transform":
            inputs += ["--outcome", str(sim / "outcome.tsv")]
        assert run(command, *inputs, "--seed", "5", "--out-dir", str(tmp_path / "o")) == 3
        self.assert_one_line_error(capsys, f"--seed is not read by {command}")
        # Its manifest records the default seed, and replays.
        assert run(command, *inputs, "--out-dir", str(tmp_path / "a")) == 0
        manifest = str(tmp_path / "a" / "manifest.json")
        assert run(command, "--config", manifest, "--out-dir", str(tmp_path / "b")) == 0

    def test_negative_seed(self, tmp_path, capsys):
        assert self.run_on_simulated(tmp_path, "learn", "--seed", "-5") == 3
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_alpha_outside_the_unit_interval(self, tmp_path, capsys):
        assert self.run_on_simulated(tmp_path, "ratios", "--alpha", "2") == 3
        assert "alpha must be a probability" in capsys.readouterr().err

    def test_nan_learning_rate(self, tmp_path, capsys):
        rc = self.run_on_simulated(
            tmp_path, "learn", "--learner", "relaxed", "--learning-rate", "nan"
        )
        assert rc == 3
        assert "learning_rate must be positive" in capsys.readouterr().err

    def run_without_warnings(self, *argv):
        # pytest captures warnings before they reach stderr; record them.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(*argv)
        assert [str(w.message) for w in caught] == []
        return rc

    def test_overflowing_simulation_names_the_cause(self, tmp_path, capsys):
        rc = self.run_without_warnings(
            "simulate", "--effect", "1e308", "--out-dir", str(tmp_path)
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "true abundances overflow float64" in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("effect", ["nan", "inf"])
    def test_non_finite_effect_names_the_cause(self, tmp_path, capsys, effect):
        rc = self.run_without_warnings(
            "simulate", "--effect", effect, "--out-dir", str(tmp_path)
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "effect must be finite" in err
        assert "RuntimeWarning" not in err

    def test_diverging_network_names_the_cause(self, tmp_path, capsys):
        sim = simulate_into(tmp_path, n_samples=24, n_features=6, seed=1)
        sim2 = simulate_into(tmp_path, "sim2", n_samples=24, n_features=5, seed=2)
        rc = self.run_without_warnings(
            "approx",
            "--matrix", str(sim / "observed.tsv"),
            "--matrix2", str(sim2 / "observed.tsv"),
            "--latent", "nn",
            "--nn-learning-rate", "1e308",
            "--nn-epochs", "10",
            "--hidden-units", "4",
            "--out-dir", str(tmp_path / "o"),
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "network training diverged" in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("kind", ["binary", "continuous"])
    def test_diverging_relaxed_training_names_the_cause(self, tmp_path, capsys, kind):
        sim = simulate_into(tmp_path, n_samples=24, n_features=6, seed=1)
        outcome = sim / "outcome.tsv"
        if kind == "continuous":
            ids, group = read_outcome_pairs(outcome)
            outcome = tmp_path / "continuous.tsv"
            outcome.write_text(
                "".join(
                    f"{sid}\t{1.0 + g + 0.1 * i!r}\n"
                    for i, (sid, g) in enumerate(zip(ids, group.tolist()))
                )
            )
        rc = self.run_without_warnings(
            "learn",
            "--matrix", str(sim / "observed.tsv"),
            "--outcome", str(outcome),
            "--outcome-kind", kind,
            "--learner", "relaxed",
            "--learning-rate", "1e300",
            "--out-dir", str(tmp_path / "o"),
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "relaxed training diverged; lower the learning rate" in err
        assert "RuntimeWarning" not in err

    def test_config_value_outside_its_range(self, tmp_path, capsys):
        assert self.run_with_config(tmp_path, "simulate", "log_sd=-1\n") == 3
        assert "log_sd must be non-negative" in capsys.readouterr().err


# Small, quick runs of every subcommand, with each learner and each latent
# method drawn in; the fuzz below breaks one option value or one input cell
# of one of them.
FUZZ_ARGS = {
    "transform": ["--matrix", "{sim}/observed.tsv", "--transform", "pairwise"],
    "daa": ["--matrix", "{sim}/observed.tsv", "--outcome", "{sim}/outcome.tsv"],
    "ratios": ["--matrix", "{sim}/observed.tsv", "--outcome", "{sim}/outcome.tsv"],
    "learn": [
        "--matrix", "{sim}/observed.tsv",
        "--outcome", "{sim}/outcome.tsv",
        "--learner", "{learner}",
        "--epochs", "20",
        "--population", "6",
        "--generations", "2",
        "--cv-folds", "3",
    ],
    "simulate": ["--n-samples", "20", "--n-features", "6"],
    # pls and nn add "--matrix2 {sim2}/observed.tsv"; pca reads no second
    # matrix.
    "approx": [
        "--matrix", "{sim}/observed.tsv",
        "--latent", "{latent}",
        "--epochs", "20",
        "--nn-epochs", "10",
        "--hidden-units", "4",
        "--cv-folds", "3",
    ],
    "benchmark": [
        "--synthetic",
        "--n-samples", "30",
        "--g-t", "6",
        "--g-u", "8",
        "--epochs", "20",
        "--nn-epochs", "10",
        "--hidden-units", "4",
        "--cv-folds", "3",
    ],
}
DOCUMENTED_EXIT_CODES = {0, 2, 3}
# Out-of-range, extreme, non-finite or unparsable values. No int is large:
# a large in-range count (say --n-samples 1000000000) would ask for a huge
# simulation.
BAD_INTS = ["0", "-1", "-2147483648", "1.5", "nan"]
BAD_FLOATS = ["nan", "inf", "-inf", "-1", "0", "1e308", "-1e308", "x"]
BAD_CELLS = ["", "abc", "nan", "inf", "-inf", "-1", "1e999", "0", "1,5", " "]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return {
        "sim": simulate_into(root, n_samples=24, n_features=6, seed=1),
        "sim2": simulate_into(root, "sim2", n_samples=24, n_features=5, seed=2),
    }


def break_one_cell(path: Path, data):
    lines = path.read_text().splitlines()
    row = data.draw(st.integers(1, len(lines) - 1), label="row")
    cells = lines[row].split("\t")
    col = data.draw(st.integers(1, len(cells) - 1), label="column")
    cells[col] = data.draw(st.sampled_from(BAD_CELLS), label="cell")
    lines[row] = "\t".join(cells)
    path.write_text("\n".join(lines) + "\n")


class TestExitCodeContract:
    """Generated bad input never escapes `main` as an exception: every run
    ends in a documented exit code (argparse's own exit is code 2)."""

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_bad_values_and_cells_end_in_a_documented_code(self, fuzz_inputs, data):
        command = data.draw(st.sampled_from(sorted(FUZZ_ARGS)), label="command")
        learner = data.draw(st.sampled_from(["stepwise", "relaxed", "evolutionary"]))
        latent = data.draw(st.sampled_from(["pca", "pls", "nn"]))
        args = FUZZ_ARGS[command]
        if command == "approx" and latent != "pca":
            args = [*args, "--matrix2", "{sim2}/observed.tsv"]
        template = " ".join(args)
        files = [
            (key, name)
            for key in ("sim", "sim2")
            for name in ("observed.tsv", "outcome.tsv")
            if f"{{{key}}}/{name}" in template
        ]
        with tempfile.TemporaryDirectory() as work:
            dirs = dict(fuzz_inputs)
            extra = []
            if files and data.draw(st.booleans(), label="break a cell"):
                key, name = data.draw(st.sampled_from(files), label="file")
                dirs[key] = Path(work) / key
                shutil.copytree(fuzz_inputs[key], dirs[key])
                break_one_cell(dirs[key] / name, data)
            else:
                numeric = [
                    opt for opt in _COMMANDS[command][3] if opt.type in (int, float)
                ]
                opt = data.draw(st.sampled_from(numeric), label="option")
                bad = BAD_INTS if opt.type is int else BAD_FLOATS
                extra = [opt.flag, data.draw(st.sampled_from(bad), label="value")]
            argv = [a.format(learner=learner, latent=latent, **dirs) for a in args]
            try:
                code = main(
                    [command, *argv, *extra, "--out-dir", str(Path(work) / "out")]
                )
            except SystemExit as exc:
                code = exc.code
        assert code in DOCUMENTED_EXIT_CODES


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

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--n-samples", "120"),
            ("--n-features", "30"),
            ("--effect", "1.5"),
            ("--log-sd", "0.9"),
            ("--theta-sd", "0"),
            ("--depth-sd", "1"),
            ("--noise-sd", "0.3"),
            # A flag is rejected at its default too: the preset ignores it.
            ("--n-samples", "100"),
            ("--n-features", "20"),
            ("--effect", "2"),
            ("--noise-sd", "0.1"),
            # The preset draws nothing, so a seed would be recorded unread.
            ("--seed", "7"),
            ("--seed", "0"),
        ],
    )
    def test_depth_confounded_rejects_planted_options(self, tmp_path, capsys, flag, value):
        out = tmp_path / "d"
        rc = run("simulate", "--preset", "depth_confounded", flag, value, "--out-dir", str(out))
        assert rc == 3
        assert flag in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_depth_confounded_rejects_planted_options_from_a_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("preset=depth_confounded\nnoise_sd=0.3\n")
        assert run("simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "d")) == 3

    def test_depth_confounded_accepts_the_planted_defaults_from_a_config(self, tmp_path):
        # A manifest records every option, so a replayed one names them all.
        cfg = tmp_path / "c.cfg"
        cfg.write_text("preset=depth_confounded\nn_samples=100\neffect=2\nnoise_sd=0.1\n")
        assert run("simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "d")) == 0

    def test_a_manifest_records_the_zero_defaults_and_replays(self, tmp_path):
        # simulate reads no matrix, but its manifests record the zero
        # options at their defaults, so they replay as a config.
        first = simulate_into(tmp_path, "first", n_samples=20, n_features=5)
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["config"]["max_zero_fraction"] == 0.5
        assert manifest["config"]["zero_replacement"] == "half_detection_limit"
        second = tmp_path / "second"
        rc = run(
            "simulate",
            "--config", str(first / "manifest.json"),
            "--out-dir", str(second),
        )
        assert rc == 0
        for name in manifest["outputs"]:
            assert (second / name).read_bytes() == (first / name).read_bytes()

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

    def with_test_matrix(self, tmp_path, edit):
        """Learn on one simulation with another, its matrix passed through
        `edit`, as the test set; the exit code and the held-out matrix."""
        sim = simulate_into(tmp_path, n_samples=40, n_features=8, seed=4)
        held = simulate_into(tmp_path, "held", n_samples=40, n_features=8, seed=5)
        raw = read_matrix(held / "observed.tsv")
        test = edit(raw)
        write_matrix(tmp_path / "test.tsv", test)
        rc = run(
            "learn",
            "--matrix", str(sim / "observed.tsv"),
            "--outcome", str(sim / "outcome.tsv"),
            "--test-matrix", str(tmp_path / "test.tsv"),
            "--test-outcome", str(held / "outcome.tsv"),
            "--out-dir", str(tmp_path / "learned"),
        )
        return rc, test

    def test_zero_heavy_test_feature_is_kept(self, tmp_path):
        # Feature 3 is zero in 60% of the test rows, which the training
        # zero filter would drop; the model still finds every feature.
        def zero_feature_3(raw):
            values = raw.values.copy()
            values[:24, 3] = 0.0
            return CompositionMatrix(values, raw.sample_ids, raw.feature_ids)

        rc, test = self.with_test_matrix(tmp_path, zero_feature_3)
        assert rc == 0
        out = tmp_path / "learned"
        model = load_model((out / "model.json").read_text())
        positive, removed = apply_zero_policy(test, ZeroPolicy(max_zero_fraction=1.0))
        assert removed == []
        _, written = read_outcome_pairs(out / "test_predictions.tsv")
        np.testing.assert_array_equal(written, predict(model, positive))

    def test_missing_test_feature_is_named(self, tmp_path, capsys):
        def drop_feature_3(raw):
            keep = [j for j in range(raw.n_features) if j != 3]
            ids = [raw.feature_ids[j] for j in keep]
            return CompositionMatrix(raw.values[:, keep], raw.sample_ids, ids)

        rc, test = self.with_test_matrix(tmp_path, drop_feature_3)
        assert rc == 3
        assert "'g4'" in capsys.readouterr().err
        # A failed run keeps its directory once an output is in it.
        assert (tmp_path / "learned" / "model.json").is_file()

    def test_test_outcome_needs_test_matrix(self, tmp_path, capsys):
        sim = simulate_into(tmp_path, n_samples=30, n_features=8)
        (tmp_path / "kept").mkdir()
        for out_dir in (tmp_path / "e" / "a" / "b", tmp_path / "kept" / "a"):
            rc = run(
                "learn",
                "--matrix", str(sim / "observed.tsv"),
                "--outcome", str(sim / "outcome.tsv"),
                "--test-outcome", str(sim / "outcome.tsv"),
                "--out-dir", str(out_dir),
            )
            assert rc == 3
            assert "--test-outcome needs --test-matrix" in capsys.readouterr().err
        # The failed runs removed the directories they made, and no other.
        assert not (tmp_path / "e").exists()
        assert list((tmp_path / "kept").iterdir()) == []

    @pytest.mark.parametrize(
        "learner", [["stepwise"], ["relaxed"], ["evolutionary", "--mode", "slr"]]
    )
    def test_continuous_outcome_that_does_not_vary(self, tmp_path, capsys, learner):
        sim = simulate_into(tmp_path, n_samples=30, n_features=8)
        ids = read_matrix(sim / "observed.tsv").sample_ids
        write_outcome(tmp_path / "y.tsv", ids, np.full(len(ids), 0.3))
        rc = run(
            "learn",
            "--matrix", str(sim / "observed.tsv"),
            "--outcome", str(tmp_path / "y.tsv"),
            "--learner", *learner,
            "--out-dir", str(tmp_path / "o"),
        )
        assert rc == 3
        assert "continuous outcome does not vary" in capsys.readouterr().err

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

    @pytest.mark.parametrize("kind", ["auto", "continuous"])
    def test_ratios_match_fit_glm_column_by_column(self, tmp_path, monkeypatch, kind):
        sim = simulate_into(tmp_path, n_samples=60, n_features=20, seed=8)
        argv = [
            "ratios",
            "--matrix", str(sim / "observed.tsv"),
            "--outcome", str(sim / "outcome.tsv"),
            "--outcome-kind", kind,
        ]
        assert run(*argv, "--out-dir", str(tmp_path / "batched")) == 0
        monkeypatch.setattr(
            glm,
            "_fit_columns",
            lambda blocks, n_columns, outcome, scale: fit_glm_by_column(blocks, outcome),
        )
        assert run(*argv, "--out-dir", str(tmp_path / "by_column")) == 0
        for name in ("attribution.tsv", "ratios.json"):
            assert (tmp_path / "batched" / name).read_bytes() == (
                tmp_path / "by_column" / name
            ).read_bytes()
        rows = [
            [line.split("\t") for line in (tmp_path / d / "ratios.tsv").read_text().splitlines()]
            for d in ("batched", "by_column")
        ]
        assert len(rows[0]) == 1 + 190
        assert rows[0][0] == rows[1][0]
        for got, want in zip(rows[0][1:], rows[1][1:]):
            # Labels and notes agree; beta, p and adjusted p to 1e-9.
            assert got[:3] + got[6:] == want[:3] + want[6:]
            np.testing.assert_allclose(
                np.array(got[3:6], dtype=float), np.array(want[3:6], dtype=float),
                rtol=1e-9, atol=1e-9,
            )

    def test_separated_ratios_are_noted(self, tmp_path):
        # Two samples per class, and two of the three ratios split them.
        sim = tmp_path / "sim"
        assert run("simulate", "--preset", "depth_confounded", "--out-dir", str(sim)) == 0
        out = tmp_path / "ratios"
        rc = run(
            "ratios",
            "--matrix", str(sim / "observed.tsv"),
            "--outcome", str(sim / "outcome.tsv"),
            "--out-dir", str(out),
        )
        assert rc == 0
        lines = (out / "ratios.tsv").read_text().splitlines()
        notes = {line.split("\t")[0]: line.split("\t")[6] for line in lines[1:]}
        separated = "outcome is separated by the score; beta is set by the ridge"
        assert notes == {
            "a/b": separated,
            "a/c": separated,
            "b/c": "score is constant; nothing to fit",
        }

    @pytest.mark.parametrize("factor", [2.0, 3.0])
    @pytest.mark.parametrize("kind", ["auto", "continuous"])
    def test_a_feature_times_a_constant_gives_a_noted_ratio(self, tmp_path, kind, factor):
        # log(f x) - log(x) is log f up to rounding: under either link the
        # ratio has nothing to fit, so it gets no beta and does not count
        # as a test.
        sim = simulate_into(tmp_path, n_samples=60, n_features=8, seed=3)
        mat = read_matrix(sim / "observed.tsv")
        values = np.column_stack([mat.values, factor * mat.values[:, 0]])
        ids = mat.feature_ids + ["g1x"]
        write_matrix(tmp_path / "m.tsv", CompositionMatrix(values, mat.sample_ids, ids))
        out = tmp_path / "ratios"
        rc = run(
            "ratios",
            "--matrix", str(tmp_path / "m.tsv"),
            "--outcome", str(sim / "outcome.tsv"),
            "--outcome-kind", kind,
            "--out-dir", str(out),
        )
        assert rc == 0
        lines = (out / "ratios.tsv").read_text().splitlines()
        rows = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
        noted = [label for label, row in rows.items() if row[6]]
        assert noted == ["g1/g1x"]
        assert rows["g1/g1x"][6] == "score is constant; nothing to fit"
        assert np.isnan(np.array(rows["g1/g1x"][3:6], dtype=float)).all()

    @pytest.mark.parametrize("kind", ["auto", "continuous"])
    def test_daa_notes_clr_columns_constant_up_to_rounding(self, tmp_path, kind):
        # With a feature and its triple alone, each clr column is
        # -+log(3) / 2 up to rounding: nothing to fit under either link.
        sim = simulate_into(tmp_path, n_samples=60, n_features=8, seed=3)
        mat = read_matrix(sim / "observed.tsv")
        values = np.column_stack([mat.values[:, 0], 3.0 * mat.values[:, 0]])
        write_matrix(
            tmp_path / "m.tsv", CompositionMatrix(values, mat.sample_ids, ["g1", "g1x3"])
        )
        out = tmp_path / "daa"
        rc = run(
            "daa",
            "--transform", "clr",
            "--matrix", str(tmp_path / "m.tsv"),
            "--outcome", str(sim / "outcome.tsv"),
            "--outcome-kind", kind,
            "--out-dir", str(out),
        )
        assert rc == 0
        lines = (out / "daa.tsv").read_text().splitlines()
        notes = [line.split("\t")[4] for line in lines[1:]]
        assert notes == ["score is constant; nothing to fit"] * 2

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
        lines = (out / "latent.tsv").read_text().splitlines()
        assert len(lines) == 60
        assert all(len(line.split("\t")) == 2 for line in lines)
        model = load_model((out / "model.json").read_text())
        assert model.biomarker.mode == "balance"

    def test_latent_is_a_learnable_outcome(self, tmp_path):
        # Latent scores are centered, so some are negative; the outcome
        # reader takes them.
        sim = simulate_into(tmp_path, n_samples=40, n_features=8, seed=7)
        approx = tmp_path / "approx"
        assert run(
            "approx",
            "--matrix", str(sim / "observed.tsv"),
            "--epochs", "100",
            "--out-dir", str(approx),
        ) == 0
        _, latent = read_outcome_pairs(approx / "latent.tsv")
        assert latent.min() < 0.0
        out = tmp_path / "learned"
        assert run(
            "learn",
            "--learner", "relaxed",
            "--epochs", "100",
            "--matrix", str(sim / "observed.tsv"),
            "--outcome", str(approx / "latent.tsv"),
            "--out-dir", str(out),
        ) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert np.isfinite(metrics["cv_score"])

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

    def test_pls_approx_on_two_equally_strong_factors(self, tmp_path):
        x, y = two_equal_factor_pair(3)
        ids = [f"s{i}" for i in range(x.shape[0])]
        paths = []
        for name, block in (("x", x), ("y", y)):
            paths.append(tmp_path / f"{name}.tsv")
            features = [f"{name}{j}" for j in range(block.shape[1])]
            write_matrix(paths[-1], CompositionMatrix(np.exp(block), ids, features))
        out = tmp_path / "approx"
        rc = run(
            "approx",
            "--latent", "pls",
            "--matrix", str(paths[0]),
            "--matrix2", str(paths[1]),
            "--epochs", "50",
            "--cv-folds", "3",
            "--out-dir", str(out),
        )
        assert rc == 0
        _, latent = read_outcome_pairs(out / "latent.tsv")
        assert latent.size == x.shape[0]
        assert np.all(np.isfinite(latent))

    def test_benchmark_requires_matrices_without_synthetic(self, tmp_path):
        assert run("benchmark", "--out-dir", str(tmp_path / "o")) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["approx", "--latent", "pca", "--matrix", "{m}", "--matrix2", "{m}"],
            ["benchmark", "--synthetic", "--matrix", "{m}"],
            ["benchmark", "--synthetic", "--matrix2", "{m}"],
            ["benchmark", "--matrix", "{m}", "--matrix2", "{m}", "--n-samples", "30"],
            ["benchmark", "--matrix", "{m}", "--matrix2", "{m}", "--g-t", "5"],
            ["benchmark", "--matrix", "{m}", "--matrix2", "{m}", "--g-u", "5"],
            ["benchmark", "--synthetic", "--max-zero-fraction", "0.2"],
            ["benchmark", "--synthetic", "--zero-replacement", "none"],
            ["simulate", "--max-zero-fraction", "0.1"],
            ["simulate", "--preset", "depth_confounded", "--zero-replacement", "none"],
            ["simulate", "--max-zero-fraction", "0.5"],
            ["benchmark", "--matrix", "{m}", "--matrix2", "{m}", "--g-u", "80"],
        ],
        ids=["pca-matrix2", "synthetic-matrix", "synthetic-matrix2",
             "n-samples", "g-t", "g-u", "synthetic-max-zero-fraction",
             "synthetic-zero-replacement", "simulate-max-zero-fraction",
             "simulate-zero-replacement", "simulate-max-zero-fraction-default",
             "g-u-default"],
    )
    def test_an_option_nothing_reads_is_rejected(self, tmp_path, capsys, argv):
        # The last option given is the one no run of this kind reads.
        flag = [a for a in argv if a.startswith("--")][-1]
        sim = simulate_into(tmp_path, n_samples=20, n_features=6)
        capsys.readouterr()
        out = tmp_path / "o"
        argv = [a.format(m=sim / "observed.tsv") for a in argv]
        assert run(*argv, "--out-dir", str(out)) == 3
        assert capsys.readouterr().err.startswith(f"error: {flag} ")
        assert not out.exists()


class TestEveryOutputGoesThroughTabular:
    def test_each_output_is_written_by_a_public_tabular_writer(
        self, tmp_path, monkeypatch
    ):
        # Each public writer of `tabular` is wrapped and rebound wherever
        # `cli` imported it, as a tracer outside the package does.
        written = set()
        for name, fn in vars(tabular).items():
            public_writer = name.startswith("write_") or name == "atomic_write_text"
            if not (public_writer and inspect.isfunction(fn)):
                continue

            def wrapper(path, *args, _fn=fn, **kwargs):
                result = _fn(path, *args, **kwargs)
                written.add(Path(path).resolve())
                return result

            monkeypatch.setattr(tabular, name, wrapper)
            if getattr(cli, name, None) is fn:
                monkeypatch.setattr(cli, name, wrapper)

        sim = simulate_into(tmp_path, n_samples=30, n_features=6)
        data = ["--matrix", str(sim / "observed.tsv")]
        labels = [*data, "--outcome", str(sim / "outcome.tsv")]
        runs = {
            "transform": ["transform", *data],
            "pairwise": ["transform", "--transform", "pairwise", *data],
            "daa": ["daa", *labels],
            "ratios": ["ratios", *labels],
            "learn": [
                "learn", *labels, "--test-matrix", str(sim / "observed.tsv"),
                "--test-outcome", str(sim / "outcome.tsv"),
            ],
            "approx": ["approx", *data, "--epochs", "30"],
            "benchmark": [
                "benchmark", "--synthetic", "--n-samples", "30", "--g-t", "5",
                "--g-u", "6", "--epochs", "30", "--nn-epochs", "30",
                "--hidden-units", "2", "--cv-folds", "3",
            ],
        }
        for name, argv in runs.items():
            assert run(*argv, "--out-dir", str(tmp_path / name)) == 0, name
        expected = set()
        for out in [sim, *(tmp_path / name for name in runs)]:
            outputs = json.loads((out / "manifest.json").read_text())["outputs"]
            expected |= {(out / n).resolve() for n in [*outputs, "manifest.json"]}
        root = tmp_path.resolve()
        assert sorted(str(p.relative_to(root)) for p in expected - written) == []
