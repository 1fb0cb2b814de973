"""Run configuration: defaults, config-file parsing, and overrides.

Precedence is fixed: built-in defaults, then values from a config file,
then explicit ``key=value`` overrides. Files use one ``key = value`` pair
per line; blank lines and ``#`` comments are ignored. Unknown keys and
unparsable values are hard errors that name the offending key, never
silent fallbacks.
"""

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError
from .features_low import FrameConfig
from .network import check_net_shape, layer_stack
from .training import TrainConfig


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of the pipeline: the run's own settings, plus the frame
    sizes in ``frame`` and the SGD schedule in ``train``.

    Defaults follow the reference setup: 30 s epochs framed 10 at a time,
    5 frequency components, 30 cepstrum components, a 300-word codebook,
    one bidirectional layer of 400 units trained with tiny-step gradient
    descent under Gaussian weight noise, and 8-fold subject-independent
    cross-validation repeated 3 times over 5 classes.
    """

    num_words: int = 300
    hidden_type: str = "blstm"
    layers: int = 1
    units: int = 400
    folds: int = 8
    rounds: int = 3
    num_classes: int = 5
    seed: int = 0
    val_count: int = 1
    sweep_types: str = "mlp,lstm,blstm"
    sweep_layers: str = "1,2"
    sweep_units: str = "32,64"
    frame: FrameConfig = FrameConfig()
    train: TrainConfig = TrainConfig()

    def __post_init__(self):
        check_net_shape(self.net_layers(), self.num_classes)
        checks = [
            (self.num_words >= 1, "num_words must be >= 1"),
            (self.folds >= 3, "folds must be >= 3 (a test, a validation and a training fold)"),
            (self.rounds >= 1, "rounds must be >= 1"),
            (self.val_count >= 1, "val_count must be >= 1"),
            (self.seed >= 0, "seed must be >= 0"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        self.sweep_grid()

    def net_layers(self) -> tuple[tuple[str, int], ...]:
        return layer_stack(self.hidden_type, self.units, self.layers)

    def sweep_grid(self) -> list[tuple[str, int, int]]:
        """All (hidden_type, layers, units) combinations of the sweep lists."""
        kinds = [t.strip() for t in self.sweep_types.split(",") if t.strip()]
        try:
            depths = [int(v) for v in self.sweep_layers.split(",") if v.strip()]
            widths = [int(v) for v in self.sweep_units.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"sweep lists must be comma-separated integers: {exc}") from exc
        if not kinds or not depths or not widths:
            raise ConfigError("sweep lists must be non-empty")
        grid = [(t, d, w) for t in kinds for d in depths for w in widths]
        for kind, depth, width in grid:
            try:
                check_net_shape(layer_stack(kind, width, depth), self.num_classes)
            except ConfigError as exc:
                raise ConfigError(f"sweep cell {kind} x{depth} @{width}: {exc}") from exc
        return grid


# key -> (the class that declares it, its type); ``seed`` is the run's, so
# ``TrainConfig.seed`` is no key
KEYS = {
    f.name: (cls, type(f.default))
    for cls in (RunConfig, FrameConfig, TrainConfig)
    for f in dataclasses.fields(cls)
    if f.name not in ("frame", "train") and (cls, f.name) != (TrainConfig, "seed")
}


def _coerce(key: str, raw: str):
    if key not in KEYS:
        raise ConfigError(f"unknown config key: {key!r}")
    kind = KEYS[key][1]
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"invalid value for {key!r}: {raw!r}") from exc


def parse_config_text(text: str) -> dict[str, str]:
    """``key = value`` lines to a raw string mapping; later keys win."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def load_config(path: str | None, overrides: list[str] | None = None) -> RunConfig:
    """Defaults, overlaid with a config file, overlaid with key=value pairs."""
    merged: dict[str, object] = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for key, raw in parse_config_text(fh.read()).items():
                merged[key] = _coerce(key, raw)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        merged[key.strip()] = _coerce(key.strip(), value.strip())
    parts = {cls: {} for cls in (RunConfig, FrameConfig, TrainConfig)}
    for key, value in merged.items():
        parts[KEYS[key][0]][key] = value
    # checked in this order: frame sizes, SGD schedule, then the run's own settings
    frame, train = FrameConfig(**parts[FrameConfig]), TrainConfig(**parts[TrainConfig])
    return RunConfig(**parts[RunConfig], frame=frame, train=train)
