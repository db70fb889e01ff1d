"""polarcomm: interactive function computation with polar-coded exchanges.

Library layout:

  probability   -- PMFs, entropies, Bhattacharyya parameter, Markov checks
  transform     -- the G_N = B_N F^{otimes n} transform over GF(2)
  sc            -- successive-cancellation conditionals and samplers
  reliability   -- Z-profiles (exact / Monte Carlo) and round partitions
  models        -- AND / BSC / collocated chain builders, sum-rate formulas
  protocol      -- the t-round two-terminal and collocated protocols
  verification  -- exact small-N oracle and Monte Carlo metrics
  cli           -- the `polarcomm` command-line harness
"""

from .models import (
    AndModelParams,
    CurveSpec,
    binary_entropy,
    bsc_round_rate,
    build_and_chain,
    build_bsc_chain,
    build_collocated_chain,
    convolve_noise,
    sum_rates,
)
from .probability import (
    AuxChainModel,
    JointPmf,
    MarkovReport,
    Pmf,
    bhattacharyya,
    entropy_bits,
    mutual_information,
    tv_distance,
    validate_markov,
)
from .protocol import (
    ProtocolResult,
    RoundPlan,
    TerminalState,
    Transcript,
    compute_function,
    plan_protocol,
    run_collocated,
    run_round,
    run_two_terminal,
    sample_sources,
)
from .reliability import (
    IndexPartition,
    PartitionPolicy,
    ReliabilityProfile,
    build_partition,
    profile_exact,
    profile_monte_carlo,
)
from .sc import (
    OBSERVATION_CONDITIONAL,
    PINNED,
    PRIOR_CONDITIONAL,
    UNIFORM_HALF,
    AnomalyLog,
    SamplingPolicy,
    SymbolChannel,
    chain_probability,
    sample_sequential,
)
from .transform import apply_transform, bit_reversal_perm
from .verification import (
    VerificationReport,
    agreement_probability,
    exact_q_tv,
    function_error_rate,
    measured_rates,
)

__version__ = "0.1.0"
