"""macronet: imitation-learned build-order prediction for RTS macromanagement.

The pipeline, end to end: replay event logs are replayed through a forward
model into state-action pairs, encoded as normalized 210-feature vectors,
and used to train a feed-forward softmax classifier over the 58 producible
builds. Decision policies turn the class distribution into the next build,
either in-process or over the framed prediction service.
"""

from .catalog import (
    BuildCatalog,
    BuildKind,
    load_catalog,
    load_default_catalog,
    write_catalog,
)
from .encoding import (
    FULL_MASK,
    N_CLASSES,
    N_FEATURES,
    Dataset,
    FeatureGroupMask,
    GameRecord,
    NormalizationTable,
    apply_mask,
    build_dataset,
    encode,
    load_default_norms,
    load_norms,
    parse_mask,
    read_dataset,
    write_dataset,
    write_norms,
)
from .errors import (
    ClientTimeout,
    CompatibilityError,
    ConsistencyError,
    DegenerateDistributionError,
    FormatError,
    MacronetError,
    ParseError,
    ProtocolError,
    SchemaError,
    ValidationError,
)
from .events import EventKind, EventLog, GameEvent, parse_event_log, write_event_log
from .forward import (
    MacroState,
    advance,
    apply_event,
    extract_pairs,
    initial_state,
    replay,
)
from .net import (
    ModelMeta,
    Network,
    NetworkTopology,
    adam_step,
    backward_batch,
    forward,
    forward_batch,
    init_adam,
    init_network,
    load_model,
    save_model,
)
from .policy import (
    DecisionPolicy,
    Mode,
    apply_exclusions,
    decide,
    decide_from_vector,
    default_exclusions,
    select_greedy,
    select_probabilistic,
)
from .service import PredictionClient, PredictionServer, client_predict
from .simulate import (
    FixedScript,
    NetworkPlayer,
    ReactiveScript,
    TwoBranchScript,
    Winner,
    bayes_top1_error,
    generate_synthetic_corpus,
    random_player,
    run_matches,
    simulate_match,
    worker_only_player,
    worker_then_army_player,
)
from .training import (
    TrainConfig,
    baseline_most_frequent,
    baseline_uniform_random,
    evaluate_topk,
    format_ablation_report,
    run_ablation_grid,
    split_dataset,
    topk_errors_from_probs,
    train,
    uniform_random_error,
)

__version__ = "0.1.0"
