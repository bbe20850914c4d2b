"""Joint layouts: joint count, chain order and reference joints per dataset.

The chain concatenates the joints of each body part into one fixed order,
which becomes the column order of the generated images. The four reference
joints default to left shoulder, right shoulder, left hip, right hip; they
are the joints whose relative positions define the four frames of a clip.
All indices are 0-based internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .config import ConfigFile, parse_int_list

REFERENCE_JOINT_COUNT = 4


@dataclass(frozen=True)
class JointLayout:
    name: str
    joint_count: int
    chain_order: tuple[int, ...]
    reference_joints: tuple[int, ...]

    def __post_init__(self):
        m = self.joint_count
        if m < REFERENCE_JOINT_COUNT + 1:
            raise ValueError(f"layout {self.name!r}: joint_count must be >= 5, got {m}")
        if sorted(self.chain_order) != list(range(m)):
            raise ValueError(
                f"layout {self.name!r}: chain_order must be a permutation of 0..{m - 1}"
            )
        refs = self.reference_joints
        if len(refs) != REFERENCE_JOINT_COUNT or len(set(refs)) != REFERENCE_JOINT_COUNT:
            raise ValueError(
                f"layout {self.name!r}: need exactly {REFERENCE_JOINT_COUNT} distinct "
                f"reference joints, got {refs}"
            )
        if any(r < 0 or r >= m for r in refs):
            raise ValueError(f"layout {self.name!r}: reference joint out of range: {refs}")


# 16-joint demo skeleton: chain is simply 1..16 (0-based 0..15); references
# are left shoulder 5, right shoulder 8, left hip 11, right hip 14 (1-based).
FIGURE2_16 = JointLayout(
    name="figure2-16",
    joint_count=16,
    chain_order=tuple(range(16)),
    reference_joints=(4, 7, 10, 13),
)

# Chain: trunk head-to-base, left arm, right arm, left leg, right leg;
# references: left shoulder 4, right shoulder 8, left hip 12, right hip 16.
NTU_25 = JointLayout(
    name="ntu-25",
    joint_count=25,
    chain_order=(3, 2, 20, 1, 0,
                 4, 5, 6, 7, 21, 22,
                 8, 9, 10, 11, 23, 24,
                 12, 13, 14, 15,
                 16, 17, 18, 19),
    reference_joints=(4, 8, 12, 16),
)

# Chain in joint order: head, neck, torso, arms, legs; references: left
# shoulder 3, right shoulder 6, left hip 9, right hip 12.
SBU_15 = JointLayout(
    name="sbu-15",
    joint_count=15,
    chain_order=tuple(range(15)),
    reference_joints=(3, 6, 9, 12),
)

# CMU mocap skeleton (asf order): trunk from head down, arms, then legs;
# references: lhumerus 18, rhumerus 25, lhipjoint 1, rhipjoint 6.
CMU_31 = JointLayout(
    name="cmu-31",
    joint_count=31,
    chain_order=(16, 15, 14, 13, 12, 11, 0,
                 17, 18, 19, 20, 21, 22, 23,
                 24, 25, 26, 27, 28, 29, 30,
                 1, 2, 3, 4, 5,
                 6, 7, 8, 9, 10),
    reference_joints=(18, 25, 1, 6),
)

BUILTIN_LAYOUTS = {
    layout.name: layout for layout in (FIGURE2_16, NTU_25, SBU_15, CMU_31)
}


def load_layout(source: str | Path) -> JointLayout:
    """Resolve a layout from a built-in name or a config file path.

    Config keys: ``name``, ``joint_count``, ``chain`` and ``reference_joints``
    (both comma-separated 0-based indices, ranges like ``0-15`` allowed). Any
    other key, a missing or bad value, or an invalid layout fails as a
    ParseError naming the file.
    """
    if isinstance(source, str) and source in BUILTIN_LAYOUTS:
        return BUILTIN_LAYOUTS[source]
    if not Path(source).exists():
        raise ValueError(f"unknown layout {str(source)!r}: not a built-in name or config file")
    cfg = ConfigFile(source)
    with cfg.checking():
        return JointLayout(
            name=cfg.get("name"),
            joint_count=cfg.get("joint_count", int),
            chain_order=tuple(cfg.get("chain", parse_int_list)),
            reference_joints=tuple(cfg.get("reference_joints", parse_int_list)),
        )
