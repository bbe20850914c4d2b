import numpy as np
import pytest

from skelclip import JointLayout, SkeletonSequence, load_layout, write_tensor


@pytest.fixture
def fig16():
    return load_layout("figure2-16")


@pytest.fixture
def tiny_layout():
    # 6 joints keeps brute-force oracles cheap
    return JointLayout(
        name="tiny-6",
        joint_count=6,
        chain_order=(0, 1, 2, 3, 4, 5),
        reference_joints=(1, 2, 3, 4),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_sequence(layout, t, rng, label=None):
    frames = rng.uniform(-1.0, 1.0, size=(t, layout.joint_count, 3))
    return SkeletonSequence(layout=layout, frames=frames, label=label)


@pytest.fixture
def make_sequence():
    return random_sequence


def write_raw_checkpoint(path, mode, tensors):
    """Store ``tensors`` (name -> array) under a checkpoint header without
    building a ModeModel, so a file can hold what ModeModel rejects."""
    with open(path, "wb") as fh:
        fh.write(f"skelclip-model 1\nmode {mode}\ntensors {' '.join(tensors)}\nend\n".encode())
        for arr in tensors.values():
            write_tensor(fh, np.asarray(arr, dtype=np.float32))
