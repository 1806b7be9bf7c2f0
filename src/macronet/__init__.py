"""macronet: imitation-learned build-order prediction for RTS macromanagement.

The pipeline, end to end: replay event logs are replayed through a forward
model into state-action pairs, encoded as normalized 210-feature vectors,
and used to train a feed-forward softmax classifier over the 58 producible
builds. Decision policies turn the class distribution into the next build,
either in-process or over the framed prediction service. Importing the
package loads none of its modules: each name below loads its module on use.
"""

import importlib
import os

# One BLAS thread unless the user chose a count: the matrices here are small,
# and threads contending with another process slowed a demo 70-fold. OpenBLAS
# reads these, in this order, when numpy loads (so not if it already has).
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

_EXPORTS = {
    "catalog": "BuildCatalog BuildKind load_catalog load_default_catalog write_catalog",
    "encoding": "FULL_MASK N_CLASSES N_FEATURES Dataset FeatureGroupMask GameRecord "
    "NormalizationTable apply_mask build_dataset encode load_default_norms load_norms "
    "parse_mask read_dataset write_dataset write_norms",
    "errors": "ClientTimeout CompatibilityError ConsistencyError DegenerateDistributionError "
    "FormatError MacronetError ParseError ProtocolError SchemaError ValidationError",
    "events": "EventKind EventLog GameEvent parse_event_log write_event_log",
    # Not net.forward: the name is the forward submodule's once it loads.
    "forward": "MacroState advance apply_event extract_pairs initial_state replay",
    "net": "ModelMeta Network NetworkTopology adam_step backward_batch forward_batch "
    "init_adam init_network load_model save_model",
    "policy": "DecisionPolicy Mode apply_exclusions decide decide_from_vector "
    "default_exclusions select_greedy select_probabilistic",
    "service": "PredictionClient PredictionServer client_predict",
    "simulate": "FixedScript NetworkPlayer ReactiveScript TwoBranchScript Winner "
    "bayes_top1_error generate_synthetic_corpus random_player run_matches simulate_match "
    "worker_only_player worker_then_army_player",
    "training": "TrainConfig baseline_most_frequent baseline_uniform_random evaluate_topk "
    "format_ablation_report run_ablation_grid split_dataset topk_errors_from_probs train "
    "uniform_random_error",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}


def __getattr__(name):
    # A submodule's name raises, so `from macronet import encoding` imports it.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
