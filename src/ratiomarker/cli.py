"""Command-line interface.

Every subcommand reads delimited text, writes its outputs into --out-dir,
and finishes by writing manifest.json there: tool version, the fully
resolved configuration, sha256 digests of every input file, wall-clock
seconds, and the list of outputs. Options can come from a key=value config
file via --config; explicit flags win over the file, which wins over
defaults. A previously written manifest.json is itself a valid --config,
so any run can be repeated. Each option is declared once, as a row of the
option tables below; the parser, the defaults, the coercion of config-file
values and their choice checks all come from those rows, but the parser
declares only the invoked subcommand's. Exit codes: 0 success, 2 parse
errors, 3 precondition failures (an output that cannot be written too).
"""

import argparse
import hashlib
import math
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .benchmark import benchmark_table, run_benchmark, synthetic_omics_pair
from .composition import (
    CompositionMatrix,
    Outcome,
    ZeroPolicy,
    apply_zero_policy,
    clr_transform,
    close_to_proportions,
    ratio_labels,
    ratio_pairs,
)
from .errors import ParseError, RatiomarkerError, ValidationError
from .glm import daa, differential_ratio_analysis
from .latent import (
    EncoderDecoderConfig,
    OmicsPair,
    approximate_latent_with_rbb,
    encoder_decoder_latent,
    pca_first_component,
    pls_first_component,
)
from .learn import (
    LearnerConfig,
    evolutionary_slr,
    forward_stepwise_balance,
    predict,
    relaxed_gradient_learner,
    serialize_model,
)
from .learn.biomarker import side_features
from .metrics import auc_score, r2_score
from .simulate import (
    BiasModel,
    da_notion_report,
    depth_confounded_scenario,
    observe,
    planted_signal_scenario,
)
from .tabular import (
    atomic_write_text,
    json_text,
    outcome_for_matrix,
    read_config,
    read_matrix,
    read_outcome_pairs,
    write_config,
    write_matrix,
    write_outcome,
    write_rows,
    write_table,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3


def _input_file(raw: str) -> str:
    """Option type of the input files whose digests go into the manifest."""
    return raw


class _Domain(NamedTuple):
    """The values a numeric option accepts, and how its message says so."""

    text: str
    holds: Callable[[float], bool]


_POSITIVE = _Domain("positive and finite", lambda x: 0.0 < x < math.inf)
_NON_NEGATIVE = _Domain("non-negative and finite", lambda x: 0.0 <= x < math.inf)
_PROBABILITY = _Domain("a probability in (0, 1)", lambda x: 0.0 < x < 1.0)


class _Option(NamedTuple):
    """One command-line option; a config file names it by its key."""

    flag: str
    type: Callable  # str, int, float, _input_file, or bool for a switch
    default: object = None
    choices: tuple[str, ...] = ()
    dest: str = ""
    domain: _Domain | None = None

    @property
    def key(self) -> str:
        return self.dest or self.flag[2:].replace("-", "_")


# Zero handling of the matrices read; every manifest records it, and the
# runs that read no matrix reject it away from its defaults.
_ZEROS = (
    _Option("--max-zero-fraction", float, 0.5),
    _Option(
        "--zero-replacement",
        str,
        "half_detection_limit",
        ("half_detection_limit", "none"),
    ),
)
# `transform`, `daa` and `ratios` draw no random numbers and reject it.
_SEED = _Option("--seed", int, 0, domain=_NON_NEGATIVE)
_COMMON = (
    _Option("--out-dir", str, "ratiomarker-out"),
    _SEED,
    *_ZEROS,
)
# The learner group; every key but "mode" names a LearnerConfig field.
_LEARNER = (
    _Option("--mode", str, "balance", ("balance", "slr")),
    _Option("--lambda", float, 1.0, dest="lam", domain=_NON_NEGATIVE),
    _Option("--epochs", int, 1000),
    _Option("--learning-rate", float, 1.0, domain=_POSITIVE),
    _Option("--cv-folds", int, 5),
)
# The network group: EncoderDecoderConfig fields, "nn_" prefixed where a
# learner option has the same name.
_NN = (
    _Option("--hidden-units", int, 32),
    _Option("--nn-epochs", int, 1000),
    _Option("--nn-learning-rate", float, 0.01, domain=_POSITIVE),
)
_MATRIX = _Option("--matrix", _input_file)
_MATRIX2 = _Option("--matrix2", _input_file)
_OUTCOME = _Option("--outcome", _input_file)
_ALPHA = _Option("--alpha", float, 0.05, domain=_PROBABILITY)
_OUTCOME_KIND = _Option(
    "--outcome-kind", str, "auto", ("auto", "binary", "continuous")
)
# The planted preset's knobs; the depth_confounded preset is fixed.
_PLANTED = (
    _Option("--n-samples", int, 100),
    _Option("--n-features", int, 20),
    _Option("--effect", float, 2.0),
    _Option("--log-sd", float, 0.5, domain=_NON_NEGATIVE),
    _Option("--theta-sd", float, 0.5, domain=_NON_NEGATIVE),
    _Option("--depth-sd", float, 0.5, domain=_NON_NEGATIVE),
    _Option("--noise-sd", float, 0.1, domain=_NON_NEGATIVE),
)
# The sizes of `benchmark --synthetic`'s own matrices.
_SYNTHETIC = (
    _Option("--n-samples", int, 200, domain=_POSITIVE),
    _Option("--g-t", int, 50, domain=_POSITIVE),
    _Option("--g-u", int, 80, domain=_POSITIVE),
)
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _build_parser(invoked: str | None) -> argparse.ArgumentParser:
    """Every subcommand and its help, but only `invoked`'s options."""
    parser = argparse.ArgumentParser(
        prog="ratiomarker",
        description="Ratio-based biomarker analysis for compositional count data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, _, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        if command != invoked:
            continue
        p.add_argument("--config", help="key=value file or a previous manifest.json")
        for opt in options:
            if opt.type is bool:
                p.add_argument(opt.flag, dest=opt.key, action="store_true")
            else:
                p.add_argument(
                    opt.flag,
                    dest=opt.key,
                    type=opt.type,
                    choices=opt.choices or None,
                )
    return parser


def _coerce(opt: _Option, raw: str, path) -> object:
    """A config-file value as the option's declared type.

    `none` or an empty value clears only an option whose default is None.
    """
    word = raw.lower()
    if opt.default is None and word in ("", "none"):
        return None
    if opt.type is bool and word in _TRUE + _FALSE:
        return word in _TRUE
    if raw and opt.type is not bool:
        try:
            return opt.type(raw)
        except ValueError:
            pass
    raise ParseError(
        f"config value {opt.key}={raw!r} is not a valid {opt.type.__name__}",
        path=path,
    )


class _Config(dict):
    """Resolved options by key; `flags`, the keys given on the command line."""

    flags: frozenset = frozenset()


def _resolve_config(command: str, args: argparse.Namespace) -> _Config:
    options = {opt.key: opt for opt in _COMMANDS[command][3]}
    resolved = {key: opt.default for key, opt in options.items()}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        if not Path(config_path).is_file():
            raise ValidationError(f"config file does not exist: {config_path}")
        file_values = read_config(config_path)
        file_values.pop("command", None)
        for key, raw in file_values.items():
            if key not in options:
                raise ValidationError(
                    f"config key {key!r} is not an option of {command!r}"
                )
            resolved[key] = _coerce(options[key], raw, config_path)
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    resolved.update(flags)
    # Config-file values and flags alike: an out-of-range value is a
    # precondition failure that names its option.
    for key, opt in options.items():
        value = resolved[key]
        if opt.choices and value not in opt.choices:
            raise ValidationError(
                f"{key} must be one of {', '.join(opt.choices)}"
            )
        if opt.domain and value is not None and not opt.domain.holds(value):
            raise ValidationError(f"{key} must be {opt.domain.text}, got {value!r}")
    config = _Config(resolved)
    config.flags = frozenset(flags)
    return config


def _require(config: dict, *keys):
    for key in keys:
        if config.get(key) is None:
            raise ValidationError(f"--{key.replace('_', '-')} is required")


def _reject_set(config: _Config, options, reason: str):
    """Fail on the first of `options` given as a flag, or off its default in
    a config file (a manifest names every option): nothing reads it."""
    for opt in options:
        if opt.key in config.flags or config[opt.key] != opt.default:
            raise ValidationError(f"{opt.flag} {reason}")


def _check_inputs_exist(config: dict, keys) -> dict[str, str]:
    digests = {}
    for key in keys:
        path = config.get(key)
        if path is None:
            continue
        p = Path(path)
        if not p.is_file():
            raise ValidationError(f"input file does not exist: {path}")
        digests[str(path)] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


def _load_positive_matrix(config: dict, key: str = "matrix"):
    matrix = read_matrix(config[key])
    policy = ZeroPolicy(
        max_zero_fraction=config["max_zero_fraction"],
        replacement=config["zero_replacement"],
    )
    return apply_zero_policy(matrix, policy)


def _load_outcome(config: dict, matrix, key: str = "outcome") -> Outcome:
    ids, values = read_outcome_pairs(config[key])
    kind = config["outcome_kind"]
    return outcome_for_matrix(
        matrix, ids, values, kind=None if kind == "auto" else kind
    )


def _from_config(cls, config: dict, prefix: str = ""):
    """A `cls` dataclass from the resolved options named like its fields.

    The key `prefix + field` wins over `field`; a field no key names keeps
    its dataclass default.
    """
    kwargs = {}
    for f in fields(cls):
        key = prefix + f.name if prefix + f.name in config else f.name
        if key in config:
            kwargs[f.name] = config[key]
    return cls(**kwargs)


def _cmd_transform(config: dict, out: Callable[[str], Path]):
    _reject_set(config, (_SEED,), "is not read by transform")
    positive, removed = _load_positive_matrix(config)
    atomic_write_text(
        out("removed_features.txt"), "\n".join(removed) + ("\n" if removed else "")
    )
    kind = config["transform"]
    if kind == "clr":
        write_table(
            out("clr.tsv"),
            positive.sample_ids,
            positive.feature_ids,
            clr_transform(positive),
        )
    elif kind == "prop":
        write_matrix(out("proportions.tsv"), close_to_proportions(positive))
    else:
        # Each row is built as it is written, never the whole table; its
        # values are the bits of the matching `pairwise_logratios` row.
        jj, kk = ratio_pairs(positive.n_features)
        logs = np.log(positive.values)
        write_table(
            out("pairwise.tsv"),
            positive.sample_ids,
            ratio_labels(positive.feature_ids, jj, kk),
            lambda i: logs[i][jj] - logs[i][kk],
        )


def _cmd_daa(config: dict, out: Callable[[str], Path]):
    _reject_set(config, (_SEED,), "is not read by daa")
    positive, removed = _load_positive_matrix(config)
    outcome = _load_outcome(config, positive)
    result = daa(positive, outcome, transform=config["transform"])
    write_rows(
        out("daa.tsv"),
        ("feature_id", "beta", "p_value", "p_adjusted", "note"),
        zip(
            result.feature_ids,
            result.beta,
            result.p_value,
            result.p_adjusted,
            result.notes,
        ),
    )
    significant = result.significant(config["alpha"])
    summary = {
        "notion": result.notion,
        "alpha": config["alpha"],
        "n_features": len(result.feature_ids),
        "n_significant": int(significant.sum()),
        "significant_features": [
            fid for fid, s in zip(result.feature_ids, significant) if s
        ],
        "removed_features": removed,
    }
    atomic_write_text(out("daa.json"), json_text(summary))


def _cmd_ratios(config: dict, out: Callable[[str], Path]):
    _reject_set(config, (_SEED,), "is not read by ratios")
    positive, removed = _load_positive_matrix(config)
    outcome = _load_outcome(config, positive)
    result = differential_ratio_analysis(
        positive, outcome, alpha=config["alpha"], max_features=config["max_features"]
    )
    ids = result.feature_ids
    jj, kk = result.numerator, result.denominator
    # Each row, label and feature ids included, is built as it is written.
    write_rows(
        out("ratios.tsv"),
        ("ratio", "numerator", "denominator", "beta", "p_value", "p_adjusted", "note"),
        zip(
            ratio_labels(ids, jj, kk),
            (ids[j] for j in jj),
            (ids[k] for k in kk),
            result.beta,
            result.p_value,
            result.p_adjusted,
            result.notes,
        ),
    )
    write_rows(
        out("attribution.tsv"),
        ("feature_id", "attribution"),
        zip(ids, result.attribution),
    )
    summary = {
        "alpha": result.alpha,
        "n_ratios": len(result.beta),
        "n_significant": result.n_significant,
        "top_features": [
            ids[int(i)] for i in np.argsort(-result.attribution, kind="stable")[:10]
        ],
        "removed_features": removed,
    }
    atomic_write_text(out("ratios.json"), json_text(summary))


def _cmd_learn(config: dict, out: Callable[[str], Path]):
    if config["test_outcome"] is not None and config["test_matrix"] is None:
        raise ValidationError("--test-outcome needs --test-matrix")
    positive, removed = _load_positive_matrix(config)
    outcome = _load_outcome(config, positive)
    learner_config = _from_config(LearnerConfig, config)
    learner = config["learner"]
    mode = config["mode"]
    if learner == "stepwise":
        if mode != "balance":
            raise ValidationError("the stepwise learner builds balances only")
        model = forward_stepwise_balance(positive, outcome, learner_config)
    elif learner == "evolutionary":
        if mode != "slr":
            raise ValidationError(
                "the evolutionary learner builds summed log-ratios; use --mode slr"
            )
        model = evolutionary_slr(positive, outcome, learner_config)
    else:
        model = relaxed_gradient_learner(
            positive, outcome, learner_config, mode=mode
        )
    atomic_write_text(out("model.json"), serialize_model(model))

    def score(y: Outcome, predictions) -> float:
        if y.kind == "binary":
            return auc_score(y.values, predictions)
        return r2_score(y.values, predictions)

    metrics = {
        "learner": learner,
        "mode": model.biomarker.mode,
        **side_features(model),
        "beta": model.glm.beta,
        "beta0": model.glm.beta0,
        "converged": model.glm.converged,
        "cv_score": model.cv_score,
        "cv_se": model.cv_se,
        "train_score": score(outcome, model.training_scores),
        "seed": config["seed"],
        "removed_features": removed,
    }
    if config["test_matrix"] is not None:
        _require(config, "test_outcome")
        # The model's features, found by id; zeros are replaced with no
        # zero-fraction filter, so no model feature is dropped.
        raw = read_matrix(config["test_matrix"])
        cols = [raw.feature_index(f) for f in model.feature_ids]
        test_matrix, _ = apply_zero_policy(
            CompositionMatrix(raw.values[:, cols], raw.sample_ids, model.feature_ids),
            ZeroPolicy(1.0, config["zero_replacement"]),
        )
        test_outcome = _load_outcome(config, test_matrix, "test_outcome")
        predictions = predict(model, test_matrix)
        metrics["test_score"] = score(test_outcome, predictions)
        write_outcome(
            out("test_predictions.tsv"), test_matrix.sample_ids, predictions
        )
    atomic_write_text(out("metrics.json"), json_text(metrics))


def _cmd_simulate(config: dict, out: Callable[[str], Path]):
    _reject_set(config, _ZEROS, "is not read by simulate")
    if config["preset"] == "depth_confounded":
        _reject_set(config, _PLANTED, "applies to the planted preset only")
        scenario = depth_confounded_scenario()
        bias = BiasModel.identity(scenario.n_samples, scenario.n_features)
        report_feature = "a"
    else:
        scenario = planted_signal_scenario(
            config["n_samples"],
            config["n_features"],
            effect=config["effect"],
            seed=config["seed"],
            log_sd=config["log_sd"],
        )
        bias = BiasModel.random(
            scenario.n_samples,
            scenario.n_features,
            seed=config["seed"] + 1,
            theta_sd=config["theta_sd"],
            depth_sd=config["depth_sd"],
            noise_sd=config["noise_sd"],
        )
        report_feature = scenario.feature_ids[scenario.planted.numerator[0]]
    observed = observe(scenario, bias, seed=config["seed"] + 2)
    write_matrix(out("true.tsv"), scenario.true_matrix())
    write_matrix(out("observed.tsv"), observed)
    write_outcome(
        out("outcome.tsv"), scenario.sample_ids, scenario.group.astype(float)
    )
    reports = [
        (fid, da_notion_report(scenario, observed, fid))
        for fid in scenario.feature_ids
    ]
    write_rows(
        out("da_report.tsv"),
        ("feature_id", "absolute", "relative", "presential"),
        ((fid, r.absolute, r.relative, r.presential) for fid, r in reports),
    )
    scenario_echo = {
        "preset": config["preset"],
        "n_samples": scenario.n_samples,
        "n_features": scenario.n_features,
        "effect": scenario.planted_effect,
        "seed": config["seed"],
        "report_feature": report_feature,
    }
    if scenario.planted is not None:
        scenario_echo["planted_numerator"] = scenario.feature_ids[
            scenario.planted.numerator[0]
        ]
        scenario_echo["planted_denominator"] = scenario.feature_ids[
            scenario.planted.denominator[0]
        ]
    write_config(out("scenario.cfg"), scenario_echo)


def _cmd_approx(config: dict, out: Callable[[str], Path]):
    positive, _ = _load_positive_matrix(config)
    clr_x = clr_transform(positive)
    latent_kind = config["latent"]
    if latent_kind == "pls":
        _require(config, "matrix2")
    elif latent_kind == "pca":
        _reject_set(config, (_MATRIX2,), "applies to --latent pls and nn only")
    target = clr_x
    if config["matrix2"] is not None:
        second, _ = _load_positive_matrix(config, "matrix2")
        OmicsPair(positive, second)
        target = clr_transform(second)
    if latent_kind == "pca":
        latent, _ = pca_first_component(clr_x)
    elif latent_kind == "pls":
        latent = pls_first_component(clr_x, target).x_scores
    else:
        nn = encoder_decoder_latent(
            clr_x,
            target,
            _from_config(EncoderDecoderConfig, config, "nn_"),
        )
        latent = nn.encode(clr_x)
    approx = approximate_latent_with_rbb(
        latent, positive, _from_config(LearnerConfig, config), mode=config["mode"]
    )
    write_outcome(out("latent.tsv"), positive.sample_ids, latent.scores)
    atomic_write_text(out("model.json"), serialize_model(approx.model))
    summary = {
        "latent_method": latent.method,
        "latent_r2": approx.latent_r2,
        "active_features": approx.active_features,
        "total_features": approx.total_features,
        "sparsity": approx.sparsity,
        "cv_score": approx.model.cv_score,
        **side_features(approx.model),
    }
    atomic_write_text(out("approx.json"), json_text(summary))


def _cmd_benchmark(config: dict, out: Callable[[str], Path]):
    if config["synthetic"]:
        _reject_set(
            config, (_MATRIX, _MATRIX2, *_ZEROS), "is not read with --synthetic"
        )
        pair = synthetic_omics_pair(
            n_samples=config["n_samples"],
            g_t=config["g_t"],
            g_u=config["g_u"],
            seed=config["seed"],
        )
    else:
        _reject_set(config, _SYNTHETIC, "applies with --synthetic only")
        _require(config, "matrix", "matrix2")
        first, _ = _load_positive_matrix(config)
        second, _ = _load_positive_matrix(config, "matrix2")
        pair = OmicsPair(first, second)
    rows = run_benchmark(
        pair,
        config=_from_config(LearnerConfig, config),
        nn_config=_from_config(EncoderDecoderConfig, config, "nn_"),
        mode=config["mode"],
    )
    atomic_write_text(out("benchmark.tsv"), benchmark_table(rows))
    summary = {"rows": [asdict(r) for r in rows]}
    atomic_write_text(out("benchmark.json"), json_text(summary))


# name: (help, runner, required keys, options)
_COMMANDS = {
    "transform": (
        "write clr / proportion / pairwise log-ratio matrices",
        _cmd_transform,
        ("matrix",),
        (
            *_COMMON,
            _MATRIX,
            _Option("--transform", str, "clr", ("clr", "prop", "pairwise")),
        ),
    ),
    "daa": (
        "per-feature differential abundance under a chosen notion",
        _cmd_daa,
        ("matrix", "outcome"),
        (
            *_COMMON,
            _MATRIX,
            _OUTCOME,
            _Option("--transform", str, "clr", ("clr", "prop")),
            _ALPHA,
            _OUTCOME_KIND,
        ),
    ),
    "ratios": (
        "GLM on every pairwise log-ratio plus feature attribution",
        _cmd_ratios,
        ("matrix", "outcome"),
        (
            *_COMMON,
            _MATRIX,
            _OUTCOME,
            _ALPHA,
            _Option("--max-features", int, 2000),
            _OUTCOME_KIND,
        ),
    ),
    "learn": (
        "fit a sparse ratio biomarker predicting the outcome",
        _cmd_learn,
        ("matrix", "outcome"),
        (
            *_COMMON,
            _MATRIX,
            _OUTCOME,
            _Option("--test-matrix", _input_file),
            _Option("--test-outcome", _input_file),
            _Option(
                "--learner", str, "stepwise", ("stepwise", "relaxed", "evolutionary")
            ),
            *_LEARNER,
            _Option("--population", int, 64),
            _Option("--generations", int, 100),
            _Option("--mutation-rate", float),
            _Option("--tournament-size", int, 3),
            _OUTCOME_KIND,
        ),
    ),
    "simulate": (
        "generate ground truth, biased observations, and a notion report",
        _cmd_simulate,
        (),
        (
            *_COMMON,
            _Option("--preset", str, "planted", ("planted", "depth_confounded")),
            *_PLANTED,
        ),
    ),
    "approx": (
        "summarize by a latent score and refit it as a ratio biomarker",
        _cmd_approx,
        ("matrix",),
        (
            *_COMMON,
            _MATRIX,
            _MATRIX2,
            _Option("--latent", str, "pca", ("pca", "pls", "nn")),
            *_LEARNER,
            *_NN,
        ),
    ),
    "benchmark": (
        "latent pipelines vs their RBB stand-ins, 12-row table",
        _cmd_benchmark,
        (),
        (
            *_COMMON,
            _MATRIX,
            _MATRIX2,
            _Option("--synthetic", bool, False),
            *_SYNTHETIC,
            *_LEARNER,
            *_NN,
        ),
    ),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # No top-level option takes a value, so the first command name is run.
    invoked = next((arg for arg in argv if arg in _COMMANDS), None)
    args = _build_parser(invoked).parse_args(argv)
    command = args.command
    started = time.perf_counter()
    created: list[Path] = []
    try:
        config = _resolve_config(command, args)
        _, runner, required, options = _COMMANDS[command]
        _require(config, *required)
        digests = _check_inputs_exist(
            config, [opt.key for opt in options if opt.type is _input_file]
        )
        config_path = getattr(args, "config", None)
        if config_path is not None:
            digests.update(_check_inputs_exist({"config": config_path}, ("config",)))
        out_dir = Path(config["out_dir"])
        # Deepest first; a failed run removes those still empty.
        created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"--out-dir {out_dir}: {exc.strerror}") from None
        outputs: list[str] = []

        def out(name: str) -> Path:
            outputs.append(name)
            return out_dir / name

        runner(config, out)
        manifest = {
            "tool": "ratiomarker",
            "version": __version__,
            "command": command,
            "config": config,
            "inputs": digests,
            "outputs": outputs,
            "wall_seconds": time.perf_counter() - started,
        }
        atomic_write_text(out_dir / "manifest.json", json_text(manifest))
        print(f"wrote {len(outputs) + 1} files to {out_dir}")
        return EXIT_OK
    except RatiomarkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for directory in created:
            try:
                directory.rmdir()
            except OSError:  # not empty, or never made
                break
        return EXIT_PARSE if isinstance(exc, ParseError) else EXIT_PRECONDITION


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
