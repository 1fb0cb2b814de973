"""Config defaults, file parsing, overrides, and validation."""

import pytest

from sleepstager.config import ConfigError, RunConfig, load_config, parse_config_text
from sleepstager.features_low import FrameConfig


def test_defaults_follow_reference_setup():
    cfg = RunConfig()
    assert cfg.frame() == FrameConfig(
        frame_epochs=10, freq_components=5, cepstrum_components=30
    )
    assert cfg.num_words == 300
    assert cfg.net_layers() == (("blstm", 400),)
    tc = cfg.train_config()
    assert tc.learning_rate == 1e-6
    assert tc.init_std == 0.1
    assert tc.weight_noise_std == 0.005
    assert tc.max_passes == 100
    assert tc.patience == 10
    assert (cfg.folds, cfg.rounds, cfg.num_classes) == (8, 3, 5)


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
        RunConfig(**{field: value})


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
