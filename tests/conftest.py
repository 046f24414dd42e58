import pytest

from fpt.backbone import BackboneConfig
from fpt.data import TimeSeriesDataset, WindowSpec
from fpt.preprocess import PatchConfig
from fpt.synthetic import sinusoid
from fpt.tasks import TrainConfig


def tiny_backbone(**over) -> BackboneConfig:
    """Small config used across backbone/task tests."""
    params = dict(
        n_layers=2,
        d_model=16,
        n_heads=2,
        d_ff=32,
        max_tokens=32,
        patch_len=8,
        head_in=1,
        head_out=1,
    )
    params.update(over)
    return BackboneConfig(**params)


def train_config(**over) -> TrainConfig:
    """Training settings for library calls: the values the library once
    defaulted (now the run config's job), overridden by keyword."""
    params = dict(
        epochs=10,
        batch_size=64,
        learning_rate=1e-3,
        early_stop_patience=3,
        seed=0,
        ablation="no_pretrain",
    )
    params.update(over)
    return TrainConfig(**params)


@pytest.fixture
def sine_dataset() -> TimeSeriesDataset:
    values = sinusoid(800, 24.0)[:, None]
    return TimeSeriesDataset(name="sine24", values=values)


@pytest.fixture
def small_window() -> WindowSpec:
    return WindowSpec(lookback=48, horizon=12, stride=2)


@pytest.fixture
def small_patch() -> PatchConfig:
    return PatchConfig(patch_len=8, stride=4)
