"""From event logs to the 210-feature training matrix.

python3 demos/03_encode_and_dataset.py
"""

import io

import numpy as np

from macronet import (
    ReactiveScript,
    build_dataset,
    encode,
    generate_synthetic_corpus,
    initial_state,
    load_default_catalog,
    load_default_norms,
    read_dataset,
    write_dataset,
)
from macronet.encoding import (
    ENEMY_SLICE,
    IN_PRODUCTION_SLICE,
    OWN_SLICE,
    PROGRESS_SLICE,
    SUPPLY_SLICE,
    apply_mask,
    parse_mask,
)

catalog = load_default_catalog()
norms = load_default_norms(catalog)

# The feature vector has five contiguous groups. All values live in [0, 1].
print("feature layout (210 wide):")
for label, sl in (
    ("a: own completed material ", OWN_SLICE),
    ("b: material in production ", IN_PRODUCTION_SLICE),
    ("c: construction progress  ", PROGRESS_SLICE),
    ("d: opponent material seen ", ENEMY_SLICE),
    ("e: supply used/max/left   ", SUPPLY_SLICE),
):
    print(f"  {label} [{sl.start:>3}, {sl.stop:>3})")
print()

v = encode(initial_state(catalog), catalog, norms)
nonzero = np.flatnonzero(v)
print("initial state encodes to", len(nonzero), "nonzero features:")
for i in nonzero:
    if i < 58:
        label = catalog.build(int(i)).name
    else:
        label = ("supply_used", "supply_max", "supply_left")[int(i) - 207]
    print(f"  v[{i:>3}] = {v[i]:.4f}  ({label})")
print()

# Masks zero whole groups. Group a can never be dropped; the rest can.
mask = parse_mask("a+e")
masked = apply_mask(v, mask)
print(f"mask {mask.label()!r} keeps {np.count_nonzero(masked)} of those")
print()

# A dataset is just every pre-decision state paired with the decision taken.
logs = generate_synthetic_corpus(ReactiveScript(catalog), 25, seed=8)
dataset = build_dataset(logs, catalog, norms)
X, y = dataset.stacked()
print(f"{len(dataset.games)} games -> X{X.shape}, y{y.shape}")
print(f"value range [{X.min():.3f}, {X.max():.3f}]")
top = np.bincount(y, minlength=58).argsort()[::-1][:5]
print("most common actions:", [catalog.build(int(i)).name for i in top])

# The binary format round-trips exactly, hashes included.
buf = io.BytesIO()
write_dataset(dataset, buf)
buf.seek(0)
again = read_dataset(buf)
assert again.games == dataset.games
assert (again.catalog_hash, again.norms_hash) == (dataset.catalog_hash, dataset.norms_hash)
print(f"serialized {len(buf.getvalue()):,} bytes, round-trip ok")
print(f"pipeline hashes: catalog={again.catalog_hash} norms={again.norms_hash}")
