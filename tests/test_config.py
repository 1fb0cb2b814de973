"""Config defaults, file parsing, overrides, and validation."""

import pytest

from sleepstager.config import KEYS, ConfigError, RunConfig, load_config, parse_config_text
from sleepstager.features_low import FrameConfig
from sleepstager.training import TrainConfig


def test_defaults_follow_reference_setup():
    cfg = RunConfig()
    assert cfg.frame == FrameConfig(
        frame_epochs=10, freq_components=5, cepstrum_components=30
    )
    assert cfg.num_words == 300
    assert cfg.net_layers() == (("blstm", 400),)
    tc = cfg.train
    assert tc.learning_rate == 1e-6
    assert tc.init_std == 0.1
    assert tc.weight_noise_std == 0.005
    assert tc.max_passes == 100
    assert tc.patience == 10
    assert (cfg.folds, cfg.rounds, cfg.num_classes) == (8, 3, 5)


# every key, its type and default, as the CLI has always read them
KEY_DEFAULTS = {
    "frame_epochs": (int, 10),
    "freq_components": (int, 5),
    "cepstrum_components": (int, 30),
    "num_words": (int, 300),
    "hidden_type": (str, "blstm"),
    "layers": (int, 1),
    "units": (int, 400),
    "learning_rate": (float, 1e-6),
    "init_std": (float, 0.1),
    "weight_noise_std": (float, 0.005),
    "max_passes": (int, 100),
    "patience": (int, 10),
    "folds": (int, 8),
    "rounds": (int, 3),
    "num_classes": (int, 5),
    "seed": (int, 0),
    "val_count": (int, 1),
    "sweep_types": (str, "mlp,lstm,blstm"),
    "sweep_layers": (str, "1,2"),
    "sweep_units": (str, "32,64"),
}


def test_keys_are_the_declaring_classes_fields():
    assert {key: kind for key, (_, kind) in KEYS.items()} == {
        key: kind for key, (kind, _) in KEY_DEFAULTS.items()
    }
    for key, (cls, _) in KEYS.items():
        assert getattr(cls(), key) == KEY_DEFAULTS[key][1], key
    owners = {key: cls for key, (cls, _) in KEYS.items()}
    assert {k for k, c in owners.items() if c is FrameConfig} == {
        "frame_epochs", "freq_components", "cepstrum_components"
    }
    assert {k for k, c in owners.items() if c is TrainConfig} == {
        "learning_rate", "init_std", "weight_noise_std", "max_passes", "patience"
    }
    # a frame or SGD setting is declared in its own class only
    run_fields = set(RunConfig.__dataclass_fields__)
    assert not run_fields & {k for k, c in owners.items() if c is not RunConfig}


def test_keys_reach_the_class_that_declares_them():
    cfg = load_config(None, ["cepstrum_components=12", "patience=4", "seed=7", "units=16"])
    assert cfg.frame == FrameConfig(cepstrum_components=12)
    assert cfg.train == TrainConfig(patience=4)  # the seed stays the run's
    assert (cfg.seed, cfg.units) == (7, 16)


@pytest.mark.parametrize("key", ["frame", "train"])
def test_nested_configs_are_not_keys(key):
    with pytest.raises(ConfigError, match=f"unknown config key: '{key}'"):
        load_config(None, [f"{key}=1"])


def test_frame_then_sgd_then_run_settings_are_checked():
    bad = ["num_words=0", "patience=0", "frame_epochs=0"]
    with pytest.raises(ConfigError, match="frame_epochs must be >= 1"):
        load_config(None, bad)
    with pytest.raises(ConfigError, match="patience must be >= 1"):
        load_config(None, bad[:2])


def test_parse_config_text_comments_and_blanks():
    text = "\n# comment\nunits = 32  # trailing\n\nseed=7\nunits = 48\n"
    assert parse_config_text(text) == {"units": "48", "seed": "7"}


def test_parse_config_text_rejects_bare_words():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("a = 1\nnot a pair\n")


def test_precedence_flags_over_file_over_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("units = 32\nseed = 3\n")
    cfg = load_config(str(path), ["seed=9"])
    assert cfg.units == 32  # from file
    assert cfg.seed == 9  # override wins
    assert cfg.num_words == 300  # default untouched


def test_unknown_key_is_named_in_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("frame_epoch = 10\n")
    with pytest.raises(ConfigError, match="frame_epoch"):
        load_config(str(path))


def test_bad_value_is_named_in_error():
    with pytest.raises(ConfigError, match="units"):
        load_config(None, ["units=many"])


def test_malformed_override_rejected():
    with pytest.raises(ConfigError, match="key=value"):
        load_config(None, ["units"])


@pytest.mark.parametrize(
    "field,value",
    [
        ("frame_epochs", 0),
        ("freq_components", 2),
        ("cepstrum_components", 0),
        ("num_words", 0),
        ("hidden_type", "gru"),
        ("layers", 0),
        ("layers", 5),
        ("units", 0),
        ("learning_rate", -1.0),
        ("init_std", 0.0),
        ("weight_noise_std", -0.1),
        ("max_passes", 0),
        ("patience", 0),
        ("folds", 1),
        ("folds", 2),
        ("rounds", 0),
        ("num_classes", 3),
        ("val_count", 0),
    ],
)
def test_out_of_range_values_rejected(field, value):
    with pytest.raises(ConfigError):
        load_config(None, [f"{field}={value}"])


def test_layer_stack_repeats_hidden_type():
    cfg = RunConfig(hidden_type="lstm", layers=3, units=16)
    assert cfg.net_layers() == (("lstm", 16),) * 3


def test_sweep_grid_products_and_validation():
    cfg = RunConfig(sweep_types="mlp,blstm", sweep_layers="1,2", sweep_units="8")
    assert cfg.sweep_grid() == [
        ("mlp", 1, 8),
        ("mlp", 2, 8),
        ("blstm", 1, 8),
        ("blstm", 2, 8),
    ]
    with pytest.raises(ConfigError, match="gru"):
        RunConfig(sweep_types="gru").sweep_grid()
    with pytest.raises(ConfigError):
        RunConfig(sweep_layers="0").sweep_grid()
    with pytest.raises(ConfigError, match="between 1 and 4"):
        RunConfig(sweep_layers="1,5").sweep_grid()
    with pytest.raises(ConfigError, match="units"):
        RunConfig(sweep_units="8,0").sweep_grid()
    with pytest.raises(ConfigError):
        RunConfig(sweep_units="x").sweep_grid()
    with pytest.raises(ConfigError):
        RunConfig(sweep_types=",").sweep_grid()
