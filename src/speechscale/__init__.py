"""speechscale: estimate a universal frequency-warping scale from vowel formants.

The library models vowel spectra of different speakers as frequency-scaled
versions of each other, band by band: warping the frequency axis by the
estimated piecewise-log scale turns speaker differences into pure
translations. It also synthesizes ground-truth populations from two-tube
vocal tract models and fits the estimated scale to the familiar
``a*log10(1 + f/b)`` corner-frequency form for comparison.
"""

from .acoustic import (
    DEFAULT_SPEED_OF_SOUND,
    FormantSet,
    IncompleteScanWarning,
    TubeConfig,
    TubeSection,
    characteristic,
    formants,
    synth_population,
)
from .align import AlignmentResult, align_population, best_translation
from .dataio import (
    ColumnMap,
    Corpus,
    CorpusError,
    RowIssue,
    canonical_json,
    load_warp,
    parse_csv,
    parse_table,
    read_json,
    records_from_tokens,
    write_bundle,
    write_canonical_csv,
)
from .estimate import (
    GRAND_MEAN,
    DegenerateDataError,
    EstimationError,
    Rank1Result,
    ScaleEstimate,
    ShiftMatrix,
    SpeakerRecord,
    choose_partition,
    compute_shifts,
    estimate_scale,
    rank1_factor,
)
from .melfit import (
    STANDARD_MEL,
    MelFitResult,
    MelParams,
    ScaleComparison,
    compare_scales,
    fit_mel,
    mel_eval,
)
from .warp import (
    BandPartition,
    DomainError,
    IdentityWarp,
    LogWarp,
    PiecewiseWarp,
    Warp,
    build_piecewise,
)

__version__ = "0.1.0"
