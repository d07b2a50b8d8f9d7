"""Doppler-aware sparse attention and beamforming evaluation toolkit.

The package splits into: mask construction (`masks`), attention-graph
connectivity analysis (`graph`), the sparse attention kernel with its
oracles (`attention`), complex beamforming math and direct sum-rate
optimization (`beamforming`), a Jakes/tapped-delay-line channel
simulator (`channel`), and the benchmark sweep harness (`bench`).
"""

from ._buildinfo import VERSION as __version__, build_hash
from .attention import (
    AttentionResult,
    EmbeddingBlock,
    attended_keys_histogram,
    dense_masked_oracle,
    gradient_check,
    sparse_attention_backward,
    sparse_attention_forward,
)
from .beamforming import (
    OptimizeResult,
    OptimizerConfig,
    finite_difference_gradient,
    lookahead_update,
    mmse_combiner,
    optimize_sum_rate,
    power_project,
    sinr,
    sum_rate,
    sum_rate_gradient,
    zf_combiner,
)
from .bench import SweepConfig, SweepPoint, SweepResult, export_report, run_sweep
from .channel import (
    SPEED_OF_LIGHT,
    DopplerConfig,
    OfdmConfig,
    add_estimation_error,
    generate_channel_batch,
    max_doppler,
    read_channel_file,
    time_bias_hint,
    write_channel_file,
)
from .errors import ResourceLimitError, SingularChannelError
from .graph import (
    ConnectivityReport,
    HeadBridging,
    HopDiameterResult,
    PartitionCheck,
    bridging_condition,
    connectivity_report,
    effective_step,
    equivalence_classes,
    hop_diameter,
    union_adjacency,
    verify_partition,
)
from .masks import (
    DEFAULT_TOKEN_CAP,
    GridSpec,
    SparseMaskSet,
    build_doppler_masks,
    build_fixed_strided_masks,
    global_stride,
    head_offsets,
    head_strides,
    row_count_closedform,
)

__all__ = [name for name in dir() if not name.startswith("_")]
